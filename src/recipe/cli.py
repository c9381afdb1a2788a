"""Single entry-point command line: reproducible experiments end to end.

Subcommands: dist, check, derive-apa, gen-avst, simulate, decode,
search {hrs,qps}, evaluate, compare.  Structured artifacts are JSON, curves
are CSV, only the action table is binary.  Every output file gets a sidecar
<name>.manifest.json recording the exact command, seeds, input digests,
tool version, and timestamp; the outputs themselves are deterministic under
--seed so reruns are byte-identical.

Exit codes: 0 success, 1 usage error, 2 validation/feasibility error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .decoder import ReceivedCodeword, decode_stream, replay_xor_mask, replay_xor_set
from .distributions import (
    PintParams,
    expand_invariant,
    ideal_soliton_sequence,
    pint_sequence,
    robust_soliton,
    shifted_soliton_sequence,
)
from .errors import (
    ConfigurationError,
    InfeasibleSequenceError,
    RangeError,
    RecipeError,
    SequenceValidationError,
)
from .evaluation import (
    PintScheme,
    RecipeDScheme,
    RecipeTScheme,
    _draw_switch_ids,
    curves_to_csv,
    default_threads,
    efficiency_curve,
    read_curves_csv,
)
from .feasibility import check_feasible, derive_apa, read_apa, write_apa
from .protocol import (
    ACTION_NAMES,
    ADD,
    REPLACE,
    _apply_action,
    generate_avst,
    hash_uniform,
    read_avst,
    row_select,
    write_avst,
)
from .search import SearchConfig, hrs_search, qps_search
from .xdd import (
    Xdd,
    _atomic_write_text,
    read_sequence,
    write_sequence,
)

EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_RUNTIME = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 instead of 2 (2 means validation)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _default_seed() -> int:
    env = os.environ.get("RECIPE_SEED")
    return int(env) if env else 0


def _write_manifest(out_path: str, args, inputs: list[str]) -> None:
    digests = {}
    for p in inputs:
        h = hashlib.sha256()
        with open(p, "rb") as fh:
            h.update(fh.read())
        digests[p] = h.hexdigest()
    manifest = {
        "command": args.argv,
        "seed": getattr(args, "seed", None),
        "inputs": digests,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    _atomic_write_text(out_path + ".manifest.json", json.dumps(manifest, indent=2) + "\n")


def _scheme_from_args(args, K: int):
    """Build the scheme named by --apa/--seq/--avst/--pint-* flags."""
    chosen = {"recipe-d": bool(getattr(args, "apa", None) or getattr(args, "seq", None)),
              "recipe-t": bool(getattr(args, "avst", None)),
              "pint": getattr(args, "pint_alpha", None) is not None}
    if sum(chosen.values()) != 1:
        raise RangeError("exactly one of --seq/--apa, --avst, or --pint-alpha/--pint-p required")
    kind = next(name for name, given in chosen.items() if given)
    mode = getattr(args, "mode", None)
    if mode and mode != kind:
        raise ConfigurationError(f"--mode {mode} does not match the {kind} artifacts given")
    if kind == "recipe-t":
        return RecipeTScheme(read_avst(args.avst), seed=args.seed)
    if kind == "pint":
        if getattr(args, "pint_p", None) is None:
            raise RangeError("--pint-alpha needs --pint-p")
        params = PintParams(args.pint_alpha, args.pint_p)
        return PintScheme(params, seed=args.seed, K=K)
    apa = read_apa(args.apa) if getattr(args, "apa", None) else derive_apa(read_sequence(args.seq))
    return RecipeDScheme(apa=apa, seed=args.seed)


# ---------------------------------------------------------------------------
# Subcommand implementations.


def _cmd_dist(args) -> int:
    kind = args.kind
    if kind == "shifted-soliton":
        seq = shifted_soliton_sequence(args.K)
    elif kind == "ideal-soliton":
        seq = ideal_soliton_sequence(args.K)
    elif kind == "pint":
        seq = pint_sequence(args.K, PintParams(args.alpha, args.p))
    elif kind == "robust-soliton":
        xdd = robust_soliton(args.K, args.c, args.delta)
        doc = {"k": xdd.k, "mu": [float(v) for v in xdd.mass]}
        text = json.dumps(doc) + "\n"
        if args.output:
            _atomic_write_text(args.output, text)
            _write_manifest(args.output, args, [])
        else:
            sys.stdout.write(text)
        return EXIT_OK
    elif kind == "invariant":
        if not args.source:
            raise RangeError("`dist invariant` needs --from <single-xdd.json>")
        with open(args.source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        seq = expand_invariant(Xdd(int(doc["k"]), doc["mu"]))
    else:  # pragma: no cover - argparse restricts choices
        raise RangeError(f"unknown distribution {kind}")
    if args.output:
        write_sequence(seq, args.output)
        _write_manifest(args.output, args, [args.source] if kind == "invariant" else [])
    else:
        from .xdd import sequence_to_json
        sys.stdout.write(sequence_to_json(seq))
    return EXIT_OK


def _cmd_check(args) -> int:
    seq = read_sequence(args.sequence)
    report = check_feasible(seq)
    if report.feasible:
        print(f"feasible: K={seq.K}, all {seq.K * (seq.K - 1) // 2} constraints hold")
        return EXIT_OK
    print(f"infeasible: {len(report.violations)} violated constraint(s)")
    for v in report.violations:
        print(f"  i={v.i} d={v.d}: q_(i-1)(d)={v.lhs:.12g} < q_i(d)+q_i(d+1)={v.rhs:.12g}")
    return EXIT_VALIDATION


def _cmd_derive_apa(args) -> int:
    seq = read_sequence(args.sequence)
    apa = derive_apa(seq)
    write_apa(apa, args.output)
    _write_manifest(args.output, args, [args.sequence])
    print(f"wrote APA for K={apa.K} (digest {apa.digest()[:16]}...)")
    return EXIT_OK


def _cmd_gen_avst(args) -> int:
    apa = read_apa(args.apa)
    avst = generate_avst(apa, args.L, args.seed)
    write_avst(avst, args.output)
    _write_manifest(args.output, args, [args.apa])
    print(f"wrote table: L={avst.L} K={avst.K} seed={avst.seed}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    scheme = _scheme_from_args(args, args.k)
    rng = np.random.default_rng(args.seed)
    switch_ids = [int(v) for v in _draw_switch_ids(rng, args.k)]
    print(f"switch IDs: {[hex(v) for v in switch_ids]}")
    # A table-based packet's actions are decided by its row; the other
    # protocols draw nu = h(hop, packet) at every hop.
    table = getattr(scheme, "avst", None)
    for n in range(args.packets):
        pid = int(rng.integers(0, 2**64, dtype=np.uint64))
        row = f" row={row_select(scheme.gh, pid, table.L)}" if table is not None else ""
        print(f"packet {n}: id={pid:#018x}{row}")
        actions = scheme.actions(args.k, np.array([pid], dtype=np.uint64))[0]
        codeword, degree = 0, 0
        for i, (action, switch_id) in enumerate(zip(actions.tolist(), switch_ids), start=1):
            codeword = _apply_action(action, codeword, switch_id)
            degree = degree + 1 if action == ADD else (1 if action == REPLACE else degree)
            nu = "" if table is not None else f"nu={hash_uniform(scheme.gh, i, pid):.6f} "
            print(f"  hop {i}: {nu}action={ACTION_NAMES[action]} "
                  f"codeword={codeword:#x} d={degree}")
        replayed = sorted(replay_xor_set(pid, args.k, scheme))
        print(f"  delivered codeword={codeword:#x}; replayed XOR-set={replayed}")
    return EXIT_OK


def _cmd_decode(args) -> int:
    scheme = _scheme_from_args(args, args.k)

    def stream():
        with open(args.input, "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                doc = json.loads(line)
                pid = int(doc["packet_id"])
                yield ReceivedCodeword(pid, args.k, int(doc["codeword"]),
                                       replay_xor_mask(pid, args.k, scheme))

    result = decode_stream(stream(), args.k)
    out = {
        "k": args.k,
        "used": result.used,
        "complete": result.complete,
        "resolved": {str(h): v for h, v in sorted(result.resolved.items())},
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK if result.complete else EXIT_RUNTIME


def _cmd_search(args) -> int:
    config = SearchConfig(
        candidates_per_hop=args.candidates,
        trials_per_candidate=args.trials,
        restarts=args.restarts,
        seed=args.seed,
        second_order=args.second_order,
    )
    trace: list = []
    if args.algorithm == "qps":
        seq = qps_search(args.K, config, trace=trace, threads=args.threads)
        trace_rows = ["start,iteration,objective"] + [
            f"{a},{b},{c:.17g}" for a, b, c in trace]
    else:
        mu_K = None
        if args.start:
            with open(args.start, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            mu_K = Xdd(int(doc["k"]), doc["mu"])
        seq = hrs_search(args.K, config, mu_K=mu_K, trace=trace)
        trace_rows = ["path_length,best_score"] + [f"{a},{b:.17g}" for a, b in trace]
    write_sequence(seq, args.output)
    _write_manifest(args.output, args, [args.start] if getattr(args, "start", None) else [])
    if args.trace:
        _atomic_write_text(args.trace, "\n".join(trace_rows) + "\n")
    print(f"wrote {args.algorithm} sequence for K={seq.K} to {args.output}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    scheme = _scheme_from_args(args, args.K)
    if args.label:
        scheme = dataclasses.replace(scheme, label=args.label)
    ks = None
    if args.ks:
        ks = sorted({int(x) for x in args.ks.split(",")})
    curve = efficiency_curve(scheme, args.K, args.trials, args.seed,
                             ks=ks, threads=args.threads)
    csv_text = curves_to_csv([curve])
    if args.output:
        _atomic_write_text(args.output, csv_text)
        inputs = [p for p in (args.seq, args.apa, args.avst) if p]
        _write_manifest(args.output, args, inputs)
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _cmd_compare(args) -> int:
    curves = []
    for path in args.curves:
        curves.extend(read_curves_csv(path))
    ks = sorted({p.k for c in curves for p in c.points})
    header = "k," + ",".join(f"{c.label}:mean,{c.label}:q99" for c in curves)
    rows = [header]
    for k in ks:
        cells = [str(k)]
        for c in curves:
            try:
                p = c.point(k)
                cells.append(f"{p.mean:.17g}")
                cells.append(f"{p.q99:.17g}")
            except RangeError:
                cells.extend(["", ""])
        rows.append(",".join(cells))
    text = "\n".join(rows) + "\n"
    if args.output:
        _atomic_write_text(args.output, text)
        _write_manifest(args.output, args, list(args.curves))
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="recipe", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, threads=False):
        p.add_argument("--seed", type=int, default=_default_seed(),
                       help="master seed (default: $RECIPE_SEED or 0)")
        if threads:
            p.add_argument("--threads", type=int, default=default_threads())

    p = sub.add_parser("dist", help="emit a named distribution or sequence")
    p.add_argument("kind", choices=["shifted-soliton", "ideal-soliton", "pint",
                                    "robust-soliton", "invariant"])
    p.add_argument("--K", type=int, default=8, help="diameter / block size")
    p.add_argument("--alpha", type=float, default=0.5, help="pint mixture weight")
    p.add_argument("--p", type=float, default=0.1, help="pint per-hop XOR probability")
    p.add_argument("--c", type=float, default=0.1, help="robust soliton shape")
    p.add_argument("--delta", type=float, default=0.5, help="robust soliton failure bound")
    p.add_argument("--from", dest="source", help="single-XDD JSON for `invariant`")
    p.add_argument("-o", "--output")
    add_common(p)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("check", help="feasibility-check a sequence file")
    p.add_argument("sequence")
    add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("derive-apa", help="derive action probabilities from a sequence")
    p.add_argument("sequence")
    p.add_argument("-o", "--output", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_derive_apa)

    p = sub.add_parser("gen-avst", help="sample an action vector table from an APA")
    p.add_argument("--apa", required=True)
    p.add_argument("--L", type=int, default=30000)
    p.add_argument("-o", "--output", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_gen_avst)

    def add_scheme_flags(p):
        p.add_argument("--seq", help="sequence JSON (degree-based mode)")
        p.add_argument("--apa", help="APA JSON (degree-based mode)")
        p.add_argument("--avst", help="action table (table-based mode)")
        p.add_argument("--pint-alpha", type=float, help="PINT mixture weight")
        p.add_argument("--pint-p", type=float, help="PINT per-hop probability")

    p = sub.add_parser("simulate", help="verbose single-instance trace")
    add_scheme_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--packets", type=int, default=5)
    add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("decode", help="decode a JSONL codeword stream")
    add_scheme_flags(p)
    p.add_argument("--mode", choices=["recipe-d", "recipe-t", "pint"],
                   help="the protocol the artifacts must be for; a mismatch decodes nothing")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="input", required=True,
                   help="one {\"packet_id\":..,\"codeword\":..} per line")
    add_common(p)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("search", help="search for a high-efficiency code")
    p.add_argument("algorithm", choices=["hrs", "qps"])
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--candidates", type=int, default=1000)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--second-order", action="store_true")
    p.add_argument("--start", help="single-XDD JSON to seed hrs")
    p.add_argument("--trace", help="objective trace CSV side file")
    p.add_argument("-o", "--output", required=True)
    add_common(p, threads=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("evaluate", help="efficiency curve for one scheme")
    add_scheme_flags(p)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--ks", help="comma-separated path lengths (default 1..K)")
    p.add_argument("--label")
    p.add_argument("-o", "--output")
    add_common(p, threads=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="join curve CSVs on k for plotting")
    p.add_argument("curves", nargs="+")
    p.add_argument("-o", "--output")
    add_common(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    args.argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return args.func(args)
    except (InfeasibleSequenceError, SequenceValidationError) as exc:
        if isinstance(exc, InfeasibleSequenceError):
            print("infeasible sequence:")
            for v in exc.report.violations:
                print(f"  i={v.i} d={v.d}: {v.lhs:.12g} < {v.rhs:.12g}")
        else:
            print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RecipeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
