"""Single entry-point command line: reproducible experiments end to end.

Subcommands: dist <code>, check, derive-apa, gen-avst, simulate, decode,
search {hrs,qps}, evaluate, compare.  Structured artifacts are JSON, curves
are CSV, only the action table is binary.  Every `-o` output gets a sidecar
<name>.manifest.json recording the exact command, seeds, input digests,
tool version, and timestamp; the outputs themselves are deterministic under
--seed so reruns are byte-identical.

Exit codes: 0 success, 1 usage error, 2 validation/feasibility error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .decoder import ReceivedCodeword, decode_stream, replay_xor_mask
from .distributions import (
    PintParams,
    expand_invariant,
    ideal_soliton_sequence,
    pint_sequence,
    robust_soliton,
    shifted_soliton_sequence,
)
from .errors import (
    InfeasibleSequenceError,
    RangeError,
    RecipeError,
    SequenceValidationError,
)
from .evaluation import (
    _draw_switch_ids,
    curves_to_csv,
    default_threads,
    efficiency_curve,
    read_curves_csv,
)
from .feasibility import check_feasible, derive_apa, read_apa, write_apa
from .protocol import (
    ACTION_NAMES,
    PintScheme,
    RecipeDScheme,
    RecipeTScheme,
    _apply_action,
    generate_avst,
    hash_uniform,
    read_avst,
    row_select,
    write_avst,
)
from .search import hrs_search, qps_search
from .xdd import (
    _atomic_write_bytes,
    malformed,
    read_sequence,
    read_xdd,
    sequence_to_json,
    write_sequence,
    xdd_to_json,
)

EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_RUNTIME = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 instead of 2 (2 means validation)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


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
    _atomic_write_bytes(out_path + ".manifest.json",
                        (json.dumps(manifest, indent=2) + "\n").encode("utf-8"))


def _scheme_from_args(args, K: int):
    """Build the scheme named by --seq, --apa, --avst or the --pint-* pair."""
    pint = args.pint_alpha is not None
    if (sum(map(bool, (args.seq, args.apa, args.avst, pint))) != 1
            or pint != (args.pint_p is not None)):
        raise RangeError("exactly one of --seq, --apa, --avst, or --pint-alpha with "
                         "--pint-p required")
    if args.avst:
        return RecipeTScheme(read_avst(args.avst), seed=args.seed)
    if pint:
        return PintScheme(PintParams(args.pint_alpha, args.pint_p), seed=args.seed, K=K)
    apa = read_apa(args.apa) if args.apa else derive_apa(read_sequence(args.seq))
    return RecipeDScheme(apa=apa, seed=args.seed)


def _emit(args, text: str, inputs: list[str]) -> None:
    """Write an output to -o atomically, with its manifest, or else to stdout."""
    if args.output:
        _atomic_write_bytes(args.output, text.encode("utf-8"))
        _write_manifest(args.output, args, inputs)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand implementations.


# Each `dist` code: how it makes its text, and the float flags it reads
# besides --K (flag, default, help).
_DIST = {
    "shifted-soliton": (lambda a: sequence_to_json(shifted_soliton_sequence(a.K)), ()),
    "ideal-soliton": (lambda a: sequence_to_json(ideal_soliton_sequence(a.K)), ()),
    "pint": (lambda a: sequence_to_json(pint_sequence(a.K, PintParams(a.alpha, a.p))),
             (("--alpha", 0.5, "mixture weight"), ("--p", 0.1, "per-hop XOR probability"))),
    "robust-soliton": (lambda a: xdd_to_json(robust_soliton(a.K, a.c, a.delta)),
                       (("--c", 0.1, "shape"), ("--delta", 0.5, "failure bound"))),
    "invariant": (lambda a: sequence_to_json(expand_invariant(read_xdd(a.source))), ()),
}


def _cmd_dist(args) -> int:
    source = getattr(args, "source", None)
    _emit(args, _DIST[args.kind][0](args), [source] if source else [])
    return EXIT_OK


def _cmd_check(args) -> int:
    seq = read_sequence(args.sequence)
    report = check_feasible(seq)
    if not report.feasible:
        raise InfeasibleSequenceError(report)
    print(f"feasible: K={seq.K}, all {seq.K * (seq.K - 1) // 2} constraints hold")
    return EXIT_OK


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
    if args.packets < 0:
        raise RangeError(f"packet count must be >= 0, got {args.packets}")
    scheme = _scheme_from_args(args, args.k)
    scheme._check_length(args.k)
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
            codeword, degree = _apply_action(action, codeword, degree, switch_id)
            nu = "" if table is not None else f"nu={hash_uniform(scheme.gh, i, pid):.6f} "
            print(f"  hop {i}: {nu}action={ACTION_NAMES[action]} "
                  f"codeword={codeword:#x} d={degree}")
        mask = replay_xor_mask(pid, args.k, scheme)
        replayed = [h + 1 for h in range(args.k) if mask >> h & 1]
        print(f"  delivered codeword={codeword:#x}; replayed XOR-set={replayed}")
    return EXIT_OK


def _cmd_decode(args) -> int:
    scheme = _scheme_from_args(args, args.k)
    scheme._check_length(args.k)

    def lines():
        # The guard covers reading and parsing; the replay of each line's
        # codeword runs in the consumer, outside it.
        with open(args.input, "r", encoding="utf-8") as fh, malformed("codeword line"):
            for line in fh:
                if line.strip():
                    doc = json.loads(line)
                    pid, value = doc["packet_id"], doc["codeword"]
                    if type(pid) is not int or type(value) is not int:  # bool is an int
                        raise TypeError("packet_id and codeword must be JSON integers, "
                                        f"got {pid!r} and {value!r}")
                    if value < 0:  # an XOR of switch IDs, which are nonnegative
                        raise ValueError(f"codeword must be nonnegative, got {value}")
                    if not 0 <= pid < 2**64:  # replay reads ids mod 2^64: -1 is 2^64-1
                        raise ValueError(f"packet_id must be in [0, 2^64), got {pid}")
                    yield pid, value

    stream = (ReceivedCodeword(pid, args.k, value, replay_xor_mask(pid, args.k, scheme))
              for pid, value in lines())
    result = decode_stream(stream, args.k)
    out = {
        "k": args.k,
        "used": result.used,
        "complete": result.complete,
        "resolved": {str(h): v for h, v in sorted(result.resolved.items())},
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK if result.complete else EXIT_RUNTIME


def _cmd_search_hrs(args) -> int:
    mu_K = read_xdd(args.start) if args.start else None
    trace: list = []
    seq = hrs_search(args.K, args.candidates, args.trials, args.seed, mu_K=mu_K, trace=trace)
    rows = ["path_length,best_score"] + [f"{a},{b:.17g}" for a, b in trace]
    return _write_search(args, seq, rows, [args.start] if args.start else [])


def _cmd_search_qps(args) -> int:
    trace: list = []
    seq = qps_search(args.K, args.restarts, args.seed, args.second_order,
                     trace=trace, threads=args.threads)
    rows = ["start,iteration,objective"] + [f"{a},{b},{c:.17g}" for a, b, c in trace]
    return _write_search(args, seq, rows, [])


def _write_search(args, seq, trace_rows: list[str], inputs: list[str]) -> int:
    write_sequence(seq, args.output)
    _write_manifest(args.output, args, inputs)
    if args.trace:
        _atomic_write_bytes(args.trace, ("\n".join(trace_rows) + "\n").encode("utf-8"))
    print(f"wrote {args.algorithm} sequence for K={seq.K} to {args.output}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    scheme = _scheme_from_args(args, args.K)
    if args.label is not None:
        scheme = dataclasses.replace(scheme, label=args.label)
    curve = efficiency_curve(scheme, args.K, args.trials, args.seed,
                             ks=args.ks, threads=args.threads)
    _emit(args, curves_to_csv([curve]), [p for p in (args.seq, args.apa, args.avst) if p])
    return EXIT_OK


def _cmd_compare(args) -> int:
    curves = []
    for path in args.curves:
        curves.extend(read_curves_csv(path))
    points = [{p.k: p for p in c.points} for c in curves]
    header = "k," + ",".join(f"{c.label}:mean,{c.label}:q99" for c in curves)
    rows = [header]
    for k in sorted({k for by_k in points for k in by_k}):
        cells = [str(k)]
        for by_k in points:
            p = by_k.get(k)
            cells += [f"{p.mean:.17g}", f"{p.q99:.17g}"] if p else ["", ""]
        rows.append(",".join(cells))
    _emit(args, "\n".join(rows) + "\n", list(args.curves))
    return EXIT_OK


# ---------------------------------------------------------------------------


def _path_lengths(text: str) -> list[int]:
    """--ks: comma-separated path lengths, sorted, each once."""
    try:
        return sorted({int(x) for x in text.split(",")})
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from None


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: building it costs a few ms, as
    much as a small command's own work.  Parsing leaves it unchanged, so
    nothing read at run time, such as $RECIPE_SEED, may be baked into it."""
    parser = _Parser(prog="recipe", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, threads_help=None):
        p.add_argument("--seed", type=int, help="master seed (default: $RECIPE_SEED or 0)")
        if threads_help:
            p.add_argument("--threads", type=int, default=default_threads(),
                           help=threads_help + " (default: CPU count)")

    p = sub.add_parser("dist", help="emit a named distribution or sequence")
    codes = p.add_subparsers(dest="kind", required=True)
    for kind, (_, floats) in _DIST.items():
        c = codes.add_parser(kind)
        if kind == "invariant":
            c.add_argument("--from", dest="source", required=True, help="single-XDD JSON")
        else:
            c.add_argument("--K", type=int, default=8, help="diameter / block size")
        for flag, default, help_ in floats:
            c.add_argument(flag, type=float, default=default, help=help_)
        c.add_argument("-o", "--output")
        c.set_defaults(func=_cmd_dist, parser=c)

    p = sub.add_parser("check", help="feasibility-check a sequence file")
    p.add_argument("sequence")
    p.set_defaults(func=_cmd_check, parser=p)

    p = sub.add_parser("derive-apa", help="derive action probabilities from a sequence")
    p.add_argument("sequence")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_derive_apa, parser=p)

    p = sub.add_parser("gen-avst", help="sample an action vector table from an APA")
    p.add_argument("--apa", required=True)
    p.add_argument("--L", type=int, default=30000)
    p.add_argument("-o", "--output", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_gen_avst, parser=p)

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
    p.set_defaults(func=_cmd_simulate, parser=p)

    p = sub.add_parser("decode", help="decode a JSONL codeword stream")
    add_scheme_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="input", required=True,
                   help="one {\"packet_id\":..,\"codeword\":..} per line")
    add_common(p)
    p.set_defaults(func=_cmd_decode, parser=p)

    p = sub.add_parser("search", help="search for a high-efficiency code")
    algorithms = p.add_subparsers(dest="algorithm", required=True)
    hrs = algorithms.add_parser("hrs", help="backward greedy search, scored by simulation")
    hrs.add_argument("--candidates", type=int, default=1000, help="candidates scored per hop")
    hrs.add_argument("--trials", type=int, default=2000, help="simulated trials per candidate")
    hrs.add_argument("--start", help="single-XDD JSON of the final hop (default: Robust Soliton)")
    hrs.set_defaults(func=_cmd_search_hrs, parser=hrs)
    qps = algorithms.add_parser("qps", help="multi-start descent on the mean-field objective")
    qps.add_argument("--restarts", type=int, default=8,
                     help="random starts besides the fixed four")
    qps.add_argument("--second-order", action="store_true",
                     help="correct the objective for release collisions")
    qps.set_defaults(func=_cmd_search_qps, parser=qps)
    for p, threads_help in ((hrs, "ignored: hrs runs in one process"),
                            (qps, "worker processes for the starts")):
        p.add_argument("--K", type=int, required=True)
        p.add_argument("--trace", help="objective trace CSV side file")
        p.add_argument("-o", "--output", required=True)
        add_common(p, threads_help=threads_help)

    p = sub.add_parser("evaluate", help="efficiency curve for one scheme")
    add_scheme_flags(p)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--ks", type=_path_lengths,
                   help="comma-separated path lengths (default 1..K)")
    p.add_argument("--label")
    p.add_argument("-o", "--output")
    add_common(p, threads_help="worker processes, each running one path length")
    p.set_defaults(func=_cmd_evaluate, parser=p)

    p = sub.add_parser("compare", help="join curve CSVs on k for plotting")
    p.add_argument("curves", nargs="+")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_compare, parser=p)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        # Leftover arguments are reported by the sub-command's own parser,
        # so its usage line, not the root's, shows what it takes.
        args, extras = parser.parse_known_args(argv)
        if extras:
            args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    args.argv = sys.argv[1:] if argv is None else list(argv)
    if "seed" in vars(args):
        if args.seed is None:
            env = os.environ.get("RECIPE_SEED")
            try:
                args.seed = int(env) if env else 0
            except ValueError:
                print(f"error: RECIPE_SEED must be an integer, got {env!r}", file=sys.stderr)
                return EXIT_USAGE
        args.seed %= 2**64  # as the keyed hash reads it; numpy's generators need it
    try:
        return args.func(args)
    except InfeasibleSequenceError as exc:
        print(f"infeasible: {len(exc.report.violations)} violated constraint(s)")
        for v in exc.report.violations:
            print(f"  i={v.i} d={v.d}: q_(i-1)(d)={v.lhs:.12g} < q_i(d)+q_i(d+1)={v.rhs:.12g}")
        return EXIT_VALIDATION
    except SequenceValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RecipeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
