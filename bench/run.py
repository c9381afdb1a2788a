"""The recipe-codes benchmark: one workload per run, or all, or a diff.

    python3 bench/run.py --workload eval-narrow --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --out runs.jsonl
    python3 bench/run.py --diff base.jsonl change.jsonl

A run sets the program up, generates the benchmark's own inputs from
--seed, then repeats the workload's job, closed loop, for --seconds,
setting up again between rounds; it reports the job's and the set-up's
time in wall seconds and at reference speed (see REF_LOOP_S), the times
BENCHMARK.json bounds.  Every set-up's and every round's outputs are
hashed and must match the first one's; an untimed oracle then checks a
sample against the scalar reference.  The last line of standard output is
one JSON object with the end-to-end metrics of BENCHMARK.json (--trace 0)
or its per-layer metrics (--trace 1, where the first half of the time runs
untraced and the second half traced, to give the overhead).  --out
appends the full run record, digests and machine facts included, as one
JSON line; --diff compares two such files against the bounds in
BENCHMARK.json.

The program is imported from src/ next to this directory; nothing is
built or installed.  Scratch files live under .bench_work/ and are removed
at the end of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import _program

SPEC_PATH = _program.ROOT / "BENCHMARK.json"
WORK_ROOT = _program.ROOT / ".bench_work"
# Set-up is timed between the job's rounds, not only before them: on a
# shared host the CPU's speed drifts over tens of seconds, and set-ups
# spread over the run see the same conditions as the rounds do.  Before
# each untraced round the run sets up once, and again while set-up has
# taken less than SETUP_SHARE of the rounds' time, at most SETUPS_PER_ROUND
# times.
SETUP_SHARE, SETUPS_PER_ROUND = 0.1, 20
# The host's CPU speed also swings by a quarter or more within seconds and
# drifts over minutes, so a wall time says as much about the host as about
# the program.  The fixed loop of reference.py runs right before and right
# after every round, and a time at reference speed is a time scaled by
# REF_LOOP_S over the mean loop time of the run (the loop's time on a 2-CPU
# x86-64 cloud VM that is not slowed down is about REF_LOOP_S).  The loops
# sample the host's speed across the whole run, so the job's time is the
# whole run's too: wall_ref_s is the mean round at reference speed, and
# setup_s the median set-up at reference speed.  wall_s and setup_wall_s
# are the plain wall-time medians.
REF_LOOP_S = 0.06

# End-to-end metrics printed and recorded beside the BENCHMARK.json ones.
# They apply to some workloads only, so the result line (last line of a run)
# omits them.
EXTRA_UNITS = {
    "wall_s": ("s", "lower"),
    "setup_wall_s": ("s", "lower"),
    "codewords_per_s": ("1/s", "higher"),
    "flow_decode_ms_p50": ("ms", "lower"),
    "flow_decode_ms_p99": ("ms", "lower"),
    "hrs_candidates_per_s": ("1/s", "higher"),
    "qps_s": ("s", "lower"),
    "fail_rate": ("ratio", "lower"),
}


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest_dir(d: Path) -> dict[str, str]:
    """SHA-256 of every output file; manifests carry a timestamp and are skipped."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.iterdir())
            if p.is_file() and not p.name.endswith(".manifest.json")}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def git_sha() -> str | None:
    head = _program.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        return (_program.ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return None


def measure(wl, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, time and check one workload; return its run record."""
    from reference import reference_loop
    from tracing import Tracer, layer_metrics

    setup_tracer, job_tracer = Tracer(), Tracer()
    setup_times, setup_digests = [], []

    def set_up(tracer=None) -> Path:
        d = work / f"setup{len(setup_times)}"
        d.mkdir(parents=True)
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            wl.setup(d)
            setup_times.append(time.perf_counter() - t0)
        setup_digests.append(digest_dir(d))
        return d

    d = set_up(setup_tracer if trace else None)  # the job reads this set-up's files
    wl.prepare(d)
    out = work / "job"
    out.mkdir()

    plain, traced = [], []
    t_begin = time.perf_counter()

    def repeat(rounds, until, tracer):
        while not rounds or time.perf_counter() - t_begin < until:
            for _ in range(0 if trace else SETUPS_PER_ROUND):
                shutil.rmtree(set_up())
                if sum(setup_times) >= SETUP_SHARE * sum(r.wall_s for r in rounds):
                    break
            before = reference_loop()
            with tracer.installed() if tracer else contextlib.nullcontext():
                wall, raw = wl.run_round(d, out)
            after = reference_loop()
            r = wl.check_round(wall, raw)
            r.loop_s = (before + after) / 2
            r.digests.update(digest_dir(out))
            rounds.append(r)

    repeat(plain, seconds / 2 if trace else seconds, None)
    if trace:
        repeat(traced, seconds, job_tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = plain + traced

    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    notes = {}
    first = rounds[0]
    notes["setups_identical"] = all(s == setup_digests[0] for s in setup_digests)
    notes["rounds_identical"] = True
    for r in rounds[1:]:
        if r.digests != first.digests or r.cw_per_decode != first.cw_per_decode:
            notes["rounds_identical"] = False
            failed += r.ops - r.failed
    a, f, verify_notes = wl.verify(d, out)
    attempted += a
    failed += f
    notes.update(verify_notes)

    def speed_factor(rounds) -> float:
        return REF_LOOP_S / statistics.mean(r.loop_s for r in rounds)

    walls = [r.wall_s for r in plain]
    metrics = {
        "setup_s": statistics.median(setup_times) * speed_factor(plain),
        "wall_ref_s": statistics.mean(walls) * speed_factor(plain),
        "setup_wall_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
        "cw_per_decode_mean": first.cw_per_decode,
        "fail_rate": failed / max(attempted, 1),
    }
    samples = {"setup_s": len(setup_times), "wall_ref_s": len(plain),
               "setup_wall_s": len(setup_times), "wall_s": len(walls)}
    if first.codewords:
        metrics["codewords_per_s"] = first.codewords / metrics["wall_s"]
    if "flow_s" in first.extra:
        flow_ms = [1000.0 * t for r in plain for t in r.extra["flow_s"]]
        metrics["flow_decode_ms_p50"] = percentile(flow_ms, 50)
        metrics["flow_decode_ms_p99"] = percentile(flow_ms, 99)
        samples["flow_decode_ms_p50"] = samples["flow_decode_ms_p99"] = len(flow_ms)
    if "hrs_s" in first.extra:
        metrics["hrs_candidates_per_s"] = first.extra["hrs_candidates"] / statistics.median(
            r.extra["hrs_s"] for r in plain)
        metrics["qps_s"] = statistics.median(r.extra["qps_s"] for r in plain)
        samples["hrs_candidates_per_s"] = samples["qps_s"] = len(plain)
    if trace:
        metrics.update(layer_metrics(
            job_tracer, len(traced), setup_tracer, len(setup_times),
            consumed=sum(r.codewords for r in traced),
            qps_iterations=sum(r.extra.get("qps_iterations", 0) for r in traced)))
        metrics["trace.overhead_ratio"] = (statistics.mean(r.wall_s for r in traced)
                                           * speed_factor(traced) / metrics["wall_ref_s"])
        metrics["trace.rounds"] = len(traced)
    correct = failed == 0 and notes["setups_identical"] and notes["rounds_identical"]
    return {
        "workload": wl.name, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "samples": samples, "round_wall_s": walls,
        "round_loop_s": [r.loop_s for r in plain],
        "config": wl.config(), "notes": notes,
        "digests": {"setup": setup_digests[0], "job": first.digests},
    }


def units(spec: dict) -> dict[str, tuple[str, str]]:
    table = dict(EXTRA_UNITS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        table[m["name"]] = (m["unit"], m["better"])
    return table


def run_one(args, spec: dict) -> int:
    import workloads

    wl = workloads.make(args.workload, args.seed)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        record = measure(wl, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    import numpy

    record.update({
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "argv": sys.argv, "python": platform.python_version(),
        "numpy": numpy.__version__, "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    })
    table = units(spec)
    record["metrics"] = {name: {"value": v, "unit": table[name][0], "better": table[name][1]}
                         for name, v in record["metrics"].items()}

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, m in record["metrics"].items():
        n = record["samples"].get(name)
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}" + (f"  (n={n})" if n else ""))
    print(f"  checks: {record['attempted']} attempted, {record['failed']} failed; "
          + ", ".join(f"{k}={v}" for k, v in record["notes"].items()))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"],
              "metrics": {m["name"]: {"value": record["metrics"][m["name"]]["value"],
                                      "unit": m["unit"]} for m in listed}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    import workloads

    status = 0
    for name in workloads.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--out", args.out] if args.out else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        *summary, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(summary), flush=True)
        try:
            correct = proc.returncode == 0 and json.loads(last)["correct"]
        except ValueError:
            correct = False
        status |= not correct
    return status


# ---------------------------------------------------------------------------
# Diff mode.


def _spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (inf below 2 runs)."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(base: list[float], change: list[float], better: str, bound: float | None):
    """(relative change, label); the change is positive when `change` is worse."""
    mb, mc = statistics.median(base), statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (mc - mb) / abs(mb) if mb else 0.0
    if bound is None:
        return worse_by, "no bound"
    if max(_spread(base), _spread(change)) > bound:
        beats = all(sign * (c - b) < 0 for b in base for c in change)
        return worse_by, "improved" if beats else "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if worse_by < -bound:
        return worse_by, "improved"
    return worse_by, "unchanged"


def load_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def run_diff(base_path: str, change_path: str, spec: dict) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base, change = load_records(base_path), load_records(change_path)
    worse = False
    print(f"{'workload':12s} {'metric':34s} {'base':>12s} {'change':>12s} "
          f"{'worse_by':>9s}  verdict (runs)")
    for wl in sorted({r["workload"] for r in base} & {r["workload"] for r in change}):
        a = [r for r in base if r["workload"] == wl]
        b = [r for r in change if r["workload"] == wl]
        names = [n for n in a[0]["metrics"] if all(n in r["metrics"] for r in a + b)]
        for name in names:
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            worse_by, label = verdict(va, vb, a[0]["metrics"][name]["better"], bounds.get(name))
            worse |= label == "worse"
            print(f"{wl:12s} {name:34s} {statistics.median(va):12.6g} "
                  f"{statistics.median(vb):12.6g} {worse_by:+9.2%}  {label} ({len(va)}/{len(vb)})")
        for ra in a:
            for rb in b:
                if ra["seed"] == rb["seed"] and ra["digests"] != rb["digests"]:
                    print(f"{wl:12s} outputs differ at seed {ra['seed']}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append the run record to this JSON-lines file")
    parser.add_argument("--diff", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args(argv)
    try:
        _program.load()
        spec = load_spec()
    except (ImportError, OSError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    if args.diff:
        return run_diff(*args.diff, spec)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)} or all")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
