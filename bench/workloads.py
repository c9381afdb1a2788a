"""The benchmark's workloads.

Each drives the program from outside, closed loop, one caller in one
process: the next program call starts when the previous one returns.  CLI
workloads go through `recipe.cli.main([...])` in-process with --threads 1;
the decode workload calls the public `replay_xor_mask` and `decode_stream`.
Module attributes are looked up at call time so the tracer's wrappers apply.

A workload has four steps, of which only `run_round` is timed as the job:
  setup(d)          program set-up into directory d (timed as setup_s)
  prepare(d)        the benchmark's own inputs, untimed
  run_round(d, out) the job; returns (wall seconds, raw result)
  check_round(raw)  output checks, untimed; returns a Round
and `verify(d, out)` runs the untimed oracle once after timing.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from recipe import cli, decoder
from recipe.decoder import PintMode, ReceivedCodeword, RecipeDMode, RecipeTMode
from recipe.distributions import PintParams, shifted_soliton
from recipe.errors import RecipeError
from recipe.evaluation import PintScheme, RecipeDScheme, RecipeTScheme
from recipe.feasibility import check_feasible, read_apa
from recipe.protocol import GlobalHash, read_avst
from recipe.search import mean_field_objective
from recipe.xdd import read_sequence

import oracle

TABLE_ROWS = 30000
PINT_ALPHA = 0.3  # criterion 11's PINT: alpha = 0.3, p = 2/K


def pint_p(K: int) -> float:
    return 2.0 / K


@dataclass
class Round:
    """What one timed round did, read from its outputs."""

    wall_s: float
    ops: int  # trials, flows or search calls attempted
    failed: int
    codewords: int  # codewords the decoder consumed (0 when not visible)
    cw_per_decode: float  # mean codewords per decoded path over the round's points
    loop_s: float = 0.0  # mean reference loop time beside the round, set by the runner
    digests: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> int:
    """One CLI command in-process; its chatter on stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def run_setup_cli(calls) -> None:
    for argv in calls:
        rc = run_cli(argv)
        if rc != 0:
            raise RuntimeError(f"set-up command {argv} exited {rc}")


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class EvalWorkload:
    """`recipe evaluate` over a degree-based (`recipe-d`), table-based
    (`recipe-t`) or PINT (`pint`) scheme; one CLI call per scheme."""

    def __init__(self, name: str, seed: int, K: int, ks, schemes, trials: int,
                 oracle_points: int, oracle_trials: int, threads_check: bool):
        self.name, self.seed, self.K = name, seed, K
        self.ks = list(ks)
        self.full_curve = self.ks == list(range(1, K + 1))
        self.schemes, self.trials = list(schemes), trials
        self.oracle_points, self.oracle_trials = oracle_points, oracle_trials
        self.threads_check = threads_check

    def config(self) -> dict:
        config = {"K": self.K, "ks": [self.ks[0], self.ks[-1]], "schemes": self.schemes,
                  "trials": self.trials, "oracle_points": self.oracle_points,
                  "oracle_trials": self.oracle_trials, "threads_check": self.threads_check}
        if "recipe-t" in self.schemes:
            config["table_rows"] = TABLE_ROWS
        if "pint" in self.schemes:
            config["pint"] = {"alpha": PINT_ALPHA, "p": pint_p(self.K)}
        return config

    def setup(self, d: Path) -> None:
        calls = [["dist", "shifted-soliton", "--K", self.K, "-o", d / "seq.json"],
                 ["derive-apa", d / "seq.json", "-o", d / "apa.json"]]
        if "recipe-t" in self.schemes:
            calls.append(["gen-avst", "--apa", d / "apa.json", "--L", TABLE_ROWS,
                          "--seed", self.seed, "-o", d / "table.avst"])
        run_setup_cli(calls)

    def prepare(self, d: Path) -> None:
        pass

    def _argv(self, scheme: str, d: Path, out: Path, threads: int = 1) -> list:
        flags = {"recipe-d": ["--apa", d / "apa.json"],
                 "recipe-t": ["--avst", d / "table.avst"],
                 "pint": ["--pint-alpha", PINT_ALPHA, "--pint-p", repr(pint_p(self.K))]}
        argv = ["evaluate", *flags[scheme], "--K", self.K, "--trials", self.trials,
                "--seed", self.seed, "--threads", threads, "-o", out]
        if not self.full_curve:
            argv += ["--ks", ",".join(map(str, self.ks))]
        return argv

    def run_round(self, d: Path, out: Path):
        rcs = {}
        t0 = time.perf_counter()
        for scheme in self.schemes:
            rcs[scheme] = run_cli(self._argv(scheme, d, out / f"{scheme}.csv"))
        return time.perf_counter() - t0, (out, rcs)

    def check_round(self, wall_s: float, raw) -> Round:
        out, rcs = raw
        r = Round(wall_s, 0, 0, 0, 0.0)
        means = []
        for scheme in self.schemes:
            r.ops += self.trials * len(self.ks)
            rows = read_csv(out / f"{scheme}.csv") if rcs[scheme] == 0 else []
            if [(int(x["K"]), int(x["k"]), int(x["trials"])) for x in rows] != \
                    [(self.K, k, self.trials) for k in self.ks]:
                r.failed += self.trials * len(self.ks)
                continue
            for x in rows:
                used = float(x["mean"]) * self.trials
                r.codewords += round(used)
                r.failed += round(float(x["incomplete_rate"]) * self.trials)
                means.append(float(x["mean"]))
        r.cw_per_decode = float(np.mean(means)) if means else 0.0
        return r

    def _scheme(self, name: str, d: Path):
        if name == "recipe-d":
            return RecipeDScheme(apa=read_apa(d / "apa.json"), seed=self.seed)
        if name == "recipe-t":
            return RecipeTScheme(read_avst(d / "table.avst"), seed=self.seed)
        return PintScheme(PintParams(PINT_ALPHA, pint_p(self.K)), seed=self.seed, K=self.K)

    def verify(self, d: Path, out: Path) -> tuple[int, int, dict]:
        """Oracle on a seeded sample of points and trials, plus (when asked)
        the --threads 2 rerun that must reproduce the CSV bytes."""
        rng = np.random.default_rng([self.seed, 0x0AC1E])
        attempted = failed = 0
        notes = {}
        for name in self.schemes:
            path = out / f"{name}.csv"
            rows = {int(x["k"]): x for x in read_csv(path)} if path.exists() else {}
            scheme = self._scheme(name, d)
            for k in rng.choice(self.ks, size=min(self.oracle_points, len(self.ks)), replace=False):
                k = int(k)
                sample = rng.choice(self.trials, size=min(self.oracle_trials, self.trials),
                                    replace=False)
                if k not in rows:
                    attempted += 1 + len(sample)
                    failed += 1 + len(sample)
                    continue
                a, f = oracle.check_point(scheme, k, self.trials, self.seed,
                                          rows[k]["mean"], [int(t) for t in sample])
                attempted += a
                failed += f
        if self.threads_check:
            name = self.schemes[0]
            rerun = out / f"{name}.threads2.csv"
            rc = run_cli(self._argv(name, d, rerun, threads=2))
            same = rc == 0 and rerun.read_bytes() == (out / f"{name}.csv").read_bytes()
            rerun.unlink(missing_ok=True)
            notes["threads2_identical"] = same
            attempted += 1
            failed += 0 if same else 1
        return attempted, failed, notes


class SearchWorkload:
    """`recipe search hrs` at a small K, then `recipe search qps` for each
    (K, restarts) in qps_runs.  HRS is bound by its scoring bank's peeling;
    QPS does no peeling at all."""

    def __init__(self, name: str, seed: int, hrs_K: int, candidates: int, trials: int,
                 qps_runs):
        self.name, self.seed = name, seed
        self.hrs_K, self.candidates, self.trials = hrs_K, candidates, trials
        self.qps_runs = list(qps_runs)  # (K, restarts)

    def config(self) -> dict:
        return {"hrs": {"K": self.hrs_K, "candidates": self.candidates, "trials": self.trials},
                "qps": [{"K": K, "restarts": r} for K, r in self.qps_runs]}

    def setup(self, d: Path) -> None:
        run_setup_cli([["dist", "robust-soliton", "--K", self.hrs_K, "-o", d / "start.json"]])

    def prepare(self, d: Path) -> None:
        pass

    def run_round(self, d: Path, out: Path):
        common = ["--seed", self.seed, "--threads", 1]
        t0 = time.perf_counter()
        rc_hrs = run_cli(["search", "hrs", "--K", self.hrs_K, "--candidates", self.candidates,
                          "--trials", self.trials, "--start", d / "start.json", *common,
                          "-o", out / "hrs.json", "--trace", out / "hrs.csv"])
        t1 = time.perf_counter()
        rc_qps = [run_cli(["search", "qps", "--K", K, "--restarts", restarts, *common,
                           "-o", out / f"qps{K}.json", "--trace", out / f"qps{K}.csv"])
                  for K, restarts in self.qps_runs]
        t2 = time.perf_counter()
        return t2 - t0, (out, rc_hrs, rc_qps, t1 - t0, t2 - t1)

    def _sequence_ok(self, path: Path, K: int) -> bool:
        try:
            seq = read_sequence(path)
        except (OSError, RecipeError, ValueError):
            return False
        return seq.K == K and check_feasible(seq).feasible

    def check_round(self, wall_s: float, raw) -> Round:
        out, rc_hrs, rc_qps, hrs_s, qps_s = raw
        r = Round(wall_s, 1 + len(self.qps_runs), 0, 0, 0.0)
        hrs_rows = read_csv(out / "hrs.csv") if rc_hrs == 0 else []
        expected = list(range(self.hrs_K - 1, 1, -1))
        if (not self._sequence_ok(out / "hrs.json", self.hrs_K)
                or [int(x["path_length"]) for x in hrs_rows] != expected):
            r.failed += 1
        else:
            r.cw_per_decode = float(np.mean([float(x["best_score"]) for x in hrs_rows]))
        iterations = 0
        for (K, _), rc in zip(self.qps_runs, rc_qps):
            ok = rc == 0 and self._sequence_ok(out / f"qps{K}.json", K)
            if ok:
                # QPS keeps the Shifted Soliton start, so it is never worse.
                found, _ = mean_field_objective(read_sequence(out / f"qps{K}.json").xdd(K))
                ok = found <= mean_field_objective(shifted_soliton(K))[0] + 1e-9
                iterations += len(read_csv(out / f"qps{K}.csv"))
            r.failed += 0 if ok else 1
        r.extra = {"hrs_s": hrs_s, "qps_s": qps_s, "qps_iterations": iterations,
                   "hrs_candidates": (self.hrs_K - 2) * self.candidates}
        return r

    def verify(self, d: Path, out: Path) -> tuple[int, int, dict]:
        return 0, 0, {}


class DecodeWorkload:
    """The destination path: flows over recipe-d, recipe-t and PINT at
    every k in 1..K, each replayed and peeled packet by packet."""

    SCHEMES = ("recipe-d", "recipe-t", "pint")

    def __init__(self, name: str, seed: int, K: int, flows_per_point: int):
        self.name, self.seed, self.K = name, seed, K
        self.flows_per_point = flows_per_point
        self.modes: dict = {}
        self.flows: list[oracle.Flow] = []
        self.mismatches = 0

    def config(self) -> dict:
        return {"K": self.K, "ks": [1, self.K], "schemes": list(self.SCHEMES),
                "flows_per_point": self.flows_per_point, "table_rows": TABLE_ROWS,
                "pint": {"alpha": PINT_ALPHA, "p": pint_p(self.K)}}

    def setup(self, d: Path) -> None:
        run_setup_cli([["dist", "shifted-soliton", "--K", self.K, "-o", d / "seq.json"],
                       ["derive-apa", d / "seq.json", "-o", d / "apa.json"],
                       ["gen-avst", "--apa", d / "apa.json", "--L", TABLE_ROWS,
                        "--seed", self.seed, "-o", d / "table.avst"]])
        gh = GlobalHash(self.seed)
        self.modes = {"recipe-d": RecipeDMode(read_apa(d / "apa.json"), gh),
                      "recipe-t": RecipeTMode(read_avst(d / "table.avst"), gh),
                      "pint": PintMode(PintParams(PINT_ALPHA, pint_p(self.K)), gh)}

    def prepare(self, d: Path) -> None:
        """Pre-generate every flow's (packet id, codeword) stream."""
        schemes = {"recipe-d": RecipeDScheme(apa=self.modes["recipe-d"].apa, seed=self.seed),
                   "recipe-t": RecipeTScheme(self.modes["recipe-t"].avst, seed=self.seed),
                   "pint": PintScheme(self.modes["pint"].params, seed=self.seed, K=self.K)}
        rng = np.random.default_rng([self.seed, 0xDEC0DE])
        self.flows = [oracle.make_flow(name, schemes[name], self.modes[name], k, rng)
                      for name in self.SCHEMES
                      for k in range(1, self.K + 1)
                      for _ in range(self.flows_per_point)]
        self.mismatches = sum(f.mismatches > 0 for f in self.flows)

    def run_round(self, d: Path, out: Path):
        results = []
        t_start = time.perf_counter()
        for flow in self.flows:
            mode, k = self.modes[flow.scheme], flow.k
            t0 = time.perf_counter()
            try:
                res = decoder.decode_stream(
                    (ReceivedCodeword(pid, k, cw, decoder.replay_xor_mask(pid, k, mode))
                     for pid, cw in flow.packets), k)
            except RecipeError:
                res = None
            results.append((res, time.perf_counter() - t0))
        return time.perf_counter() - t_start, results

    def check_round(self, wall_s: float, raw) -> Round:
        r = Round(wall_s, len(self.flows), 0, 0, 0.0)
        decoded = []
        used = []
        for i, (flow, (res, _)) in enumerate(zip(self.flows, raw)):
            ok = (res is not None and res.complete and res.used == len(flow.packets)
                  and oracle.resolved_ok(res.resolved, flow.ids, True))
            r.failed += 0 if ok else 1
            if res is not None:
                used.append(res.used)
                decoded.append([i, sorted(res.resolved.items())])
        r.codewords = sum(used)
        r.cw_per_decode = float(np.mean(used)) if used else 0.0
        blob = json.dumps(decoded, separators=(",", ":")).encode()
        r.digests = {"decoded_ids": hashlib.sha256(blob).hexdigest()}
        r.extra = {"flow_s": [dt for _, dt in raw]}
        return r

    def verify(self, d: Path, out: Path) -> tuple[int, int, dict]:
        # Stream generation already checked every packet's scalar codeword
        # against the vectorized one; a flow with any mismatch fails here.
        return len(self.flows), self.mismatches, {}


def make(name: str, seed: int):
    """The workload `name` at benchmark size."""
    if name == "eval-narrow":
        return EvalWorkload(name, seed, K=59, ks=range(1, 60), schemes=["recipe-d"],
                            trials=30, oracle_points=3, oracle_trials=4, threads_check=True)
    if name == "eval-wide":
        return EvalWorkload(name, seed, K=118, ks=range(65, 119),
                            schemes=["recipe-t", "pint"], trials=6,
                            oracle_points=2, oracle_trials=3, threads_check=False)
    if name == "search":
        return SearchWorkload(name, seed, hrs_K=30, candidates=4, trials=64,
                              qps_runs=[(59, 8), (236, 2)])
    if name == "decode":
        return DecodeWorkload(name, seed, K=59, flows_per_point=3)
    raise KeyError(name)


NAMES = ("eval-narrow", "eval-wide", "search", "decode")
