"""End-to-end path simulation and the coding-efficiency harness.

Coding efficiency of a scheme at path length k is the number of delivered
codewords the destination must consume before peeling recovers all k switch
IDs.  The harness runs randomized instances (fresh switch IDs, fresh packet
ids), streams codewords through exactly the per-hop protocol machinery, and
aggregates mean / standard error / 99%-quantile curves over k.

Per-hop encoding is vectorized across packets (the hash is a pure function
of (key, hop, packet id), so whole blocks hash at once); peeling stays a
tight per-trial loop.  Everything is reproducible bit-exactly from
(scheme, K, trials, seed): every trial draws from its own counter-derived
PRNG stream, so results do not depend on batching or thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .decoder import PeelingState
from .distributions import PintParams
from .errors import InternalConsistencyError, RangeError, SequenceValidationError
from .feasibility import derive_apa
from .protocol import PintScheme, RecipeDScheme, RecipeTScheme, generate_avst
from .protocol import _mix64, masks_from_members, xor_members
# Unused here, but bench/tracing.py patches these names on this module.
from .protocol import hash_uniform_array, row_select_array  # noqa: F401
from .xdd import XddSequence, _atomic_write_bytes, malformed, read_text

# Packets consumed before a trial is declared incomplete; incomplete trials
# contribute exactly this value to the mean (pessimistic).
CAP_FACTOR = 200

# Cells (codewords x hops) built per kernel call by peel_trials and
# degree_histogram: large enough to amortize the per-hop numpy calls,
# small enough that 1e5-trial curves and HRS banks at K=236 stay within
# a few tens of MB of temporaries.
_CHUNK_CELLS = 1 << 21

_SEED_C1 = 0xFF51AFD7ED558CCD
_SEED_C2 = 0xC4CEB9FE1A85EC53
_U64 = np.uint64


def derive_seed(master: int, a: int, b: int = 0) -> int:
    """Counter-derived 64-bit seed; independent of evaluation order."""
    return _mix64((master ^ (a * _SEED_C1) ^ (b * _SEED_C2)) & (2**64 - 1))


def _draw_switch_ids(rng, k: int) -> np.ndarray:
    """k distinct nonzero 32-bit switch IDs."""
    ids = rng.integers(1, 2**32, size=k, dtype=_U64)
    while len(set(ids.tolist())) < k:
        ids = rng.integers(1, 2**32, size=k, dtype=_U64)
    return ids


def _codeword_values(members: np.ndarray, switch_ids: np.ndarray) -> np.ndarray:
    """XOR-sum of the IDs each membership row names (one instance's ids)."""
    return np.bitwise_xor.reduce(np.where(members, switch_ids, _U64(0)), axis=1)


def peel_trials(states, k: int, cap: int, block):
    """Peel each trial (an index into `states`) by PeelingState.absorb
    until it completes or reaches `cap`; yield (trial, codewords used) as
    each stops.  `block(ts, lo, hi)` returns codewords lo..hi-1 of trials
    `ts`: their (len(ts), hi - lo, k) XOR-set memberships, and per trial
    an iterable of values.  Blocks are 2k codewords (8 to cap), built for
    at most _CHUNK_CELLS cells at a time; a trial's stop reads only its
    own codewords, so neither changes a result."""
    width = min(cap, max(2 * k, 8))
    group = max(1, _CHUNK_CELLS // (width * k))
    active = list(range(len(states)))
    lo = 0
    while active:
        hi = min(lo + width, cap)
        still = []
        for g in range(0, len(active), group):
            ts = active[g:g + group]
            members, values = block(ts, lo, hi)
            masks = masks_from_members(members.reshape(-1, k))
            for j, (t, vals) in enumerate(zip(ts, values)):
                state = states[t]
                used = lo + state.absorb(zip(masks[j * (hi - lo):(j + 1) * (hi - lo)], vals))
                if state.complete or hi == cap:
                    yield t, used
                else:
                    still.append(t)
        active = still
        lo = hi


def run_trials(scheme, k: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Run one instance per seed; return (used, completed) arrays.

    Each instance draws its packet ids from its own stream and is checked
    against its ground-truth IDs when peel_trials stops it."""
    B = len(seeds)
    # PeelingState checks k, so it comes before the draws that need k >= 0.
    states = [PeelingState(k) for _ in range(B)]
    rngs = [np.random.default_rng(s) for s in seeds]
    switch_ids = [_draw_switch_ids(rng, k) for rng in rngs]
    used = np.zeros(B, dtype=np.int64)
    completed = np.zeros(B, dtype=bool)

    def block(ts, lo, hi):
        # Raw 64-bit draws: the same values as integers(0, 2**64, dtype=uint64).
        pids = np.concatenate([rngs[t].bit_generator.random_raw(hi - lo) for t in ts])
        members = xor_members(scheme.actions(k, pids)).reshape(len(ts), hi - lo, k)
        return members, (_codeword_values(m, switch_ids[t]).tolist()
                         for m, t in zip(members, ts))

    for t, n in peel_trials(states, k, CAP_FACTOR * k, block):
        used[t] = n
        completed[t] = states[t].complete
        _verify_resolution(states[t], switch_ids[t])
    return used, completed


def _verify_resolution(state: PeelingState, switch_ids: np.ndarray) -> None:
    for hop, value in state.resolved.items():
        if value != int(switch_ids[hop - 1]):
            raise InternalConsistencyError(
                f"hop {hop} decoded to {value}, ground truth {int(switch_ids[hop - 1])}")


@dataclass(frozen=True)
class CurvePoint:
    k: int
    trials: int
    mean: float
    stderr: float
    q99: float
    incomplete_rate: float


@dataclass(frozen=True)
class EfficiencyCurve:
    label: str
    K: int
    points: tuple[CurvePoint, ...]

    def point(self, k: int) -> CurvePoint:
        for p in self.points:
            if p.k == k:
                return p
        raise RangeError(f"curve has no point at k={k}")


def _curve_point(scheme, k: int, trials: int, master_seed: int) -> CurvePoint:
    seeds = [derive_seed(master_seed, k, t) for t in range(trials)]
    used, completed = run_trials(scheme, k, seeds)
    mean = float(used.mean())
    stderr = float(used.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    q99 = float(np.sort(used)[math.ceil(0.99 * trials) - 1])
    return CurvePoint(k, trials, mean, stderr, q99, 1.0 - float(completed.mean()))


def efficiency_curve(scheme, K: int, trials: int, seed: int,
                     ks=None, threads: int = 1) -> EfficiencyCurve:
    """Mean/stderr/99%-quantile consumed-codeword statistics for each k.

    Deterministic given (scheme, K, trials, seed) regardless of `threads`:
    every trial's randomness is derived from (seed, k, trial index).
    """
    if K < 1:
        raise RangeError(f"diameter must be positive, got K={K}")
    if trials < 1:
        raise RangeError("at least one trial per point is required")
    # One nonempty CSV field on one line, which read_curves_csv's line strip keeps whole.
    if not scheme.label or scheme.label != scheme.label.strip() or any(
            c in scheme.label for c in ",\r\n"):
        raise RangeError("a curve label must be nonempty, with no ',', CR or LF and no "
                         f"leading or trailing whitespace, got {scheme.label!r}")
    ks = list(ks) if ks is not None else list(range(1, K + 1))
    for k in ks:  # refuse a bad k before any trial runs
        scheme._check_length(k)
        if k > K:
            raise RangeError(f"path length {k} beyond the curve's diameter K={K}")
    points = map_jobs(_curve_point, [(scheme, k, trials, seed) for k in ks], threads)
    return EfficiencyCurve(scheme.label, K, tuple(points))


def compare_t_vs_d(seq: XddSequence, L_values, trials: int, seed: int,
                   threads: int = 1) -> dict[str, EfficiencyCurve]:
    """Table-based approximation quality study: one curve per table size
    against the exact degree-based protocol, from one derived APA."""
    apa = derive_apa(seq)
    curves = {}
    d_scheme = RecipeDScheme(apa=apa, seed=seed, label="recipe-d")
    curves["recipe-d"] = efficiency_curve(d_scheme, seq.K, trials, seed, threads=threads)
    for L in L_values:
        avst = generate_avst(apa, L, derive_seed(seed, 1_000_000 + L))
        t_scheme = RecipeTScheme(avst, seed=seed)
        curves[t_scheme.label] = efficiency_curve(t_scheme, seq.K, trials, seed, threads=threads)
    return curves


def mean_curve_gap(curve_a: EfficiencyCurve, curve_b: EfficiencyCurve) -> float:
    """Mean absolute per-k difference of two mean-efficiency curves."""
    means_b = {p.k: p.mean for p in curve_b.points}
    gaps = [abs(p.mean - means_b[p.k]) for p in curve_a.points if p.k in means_b]
    return float(np.mean(gaps))


def tune_pint(K: int, trials: int = 400, seed: int = 0):
    """Grid-tune the PINT baseline's (alpha, p) for a network of diameter K.

    The grid is alpha in {0, 0.05, .., 1} and p in {1/K, .., 10/K} (below
    1); the objective is the mean consumed codewords at path length K/2,
    with common random numbers across grid points.  K/2 is the
    deployment's estimated typical path length: the baseline protocol
    fixes (alpha, p) network-wide, so it is tuned for typical paths and
    pays for the mismatch elsewhere.  (Tuning at k = K itself would make
    the baseline nearly optimal at exactly that one length: measured
    against it, even a centralized Robust Soliton code gains ~1% there.)

    Returns (best PintParams, list of (alpha, p, mean) grid results).
    """
    tune_k = max(1, K // 2)
    alphas = [round(0.05 * j, 2) for j in range(21)]
    ps = [j / K for j in range(1, min(K, 11))]
    if not ps:
        raise RangeError(f"the PINT p grid j/K < 1 (j = 1..10) is empty at K={K}")
    if trials < 1:
        raise RangeError("at least one trial per point is required")
    results = [(alpha, p, _curve_point(PintScheme(PintParams(alpha, p), seed=seed),
                                       tune_k, trials, seed).mean)
               for alpha in alphas for p in ps]
    best = min(results, key=lambda r: r[2])
    return PintParams(best[0], best[1]), results


def degree_histogram(scheme, k: int, n_packets: int, seed: int) -> np.ndarray:
    """Empirical delivered-XOR-degree counts (index d-1 = degree d), from
    n_packets fresh packet ids.  Degree-0 deliveries (PINT binomial branch)
    are excluded; the caller compares against the conditioned XDD."""
    rng = np.random.default_rng(seed)
    counts = np.zeros(k, dtype=np.int64)
    step = max(1, _CHUNK_CELLS // k)
    for lo in range(0, n_packets, step):
        pids = rng.integers(0, 2**64, size=min(step, n_packets - lo), dtype=_U64)
        members = xor_members(scheme.actions(k, pids))
        counts += np.bincount(members.sum(axis=1), minlength=k + 1)[1:]
    return counts


# ---------------------------------------------------------------------------
# Curve CSV: one row per (scheme, k).

CSV_HEADER = "scheme,K,k,trials,mean,stderr,q99,incomplete_rate"


def curves_to_csv(curves) -> str:
    lines = [CSV_HEADER]
    for curve in curves:
        for p in curve.points:
            lines.append(
                f"{curve.label},{curve.K},{p.k},{p.trials},"
                f"{p.mean:.17g},{p.stderr:.17g},{p.q99:.17g},{p.incomplete_rate:.17g}")
    return "\n".join(lines) + "\n"


def write_curves_csv(path, curves) -> None:
    _atomic_write_bytes(path, curves_to_csv(curves).encode("utf-8"))


def read_curves_csv(path) -> list[EfficiencyCurve]:
    text = read_text(path, f"curve CSV {path}")
    lines = [ln.strip() for ln in text.split("\n") if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise SequenceValidationError(f"malformed curve CSV {path}: wrong header")
    grouped: dict[tuple, list[CurvePoint]] = {}
    for ln in lines[1:]:
        with malformed(f"curve row in {path}"):
            label, K, k, trials, mean, stderr, q99, inc = ln.split(",")
            grouped.setdefault((label, int(K)), []).append(CurvePoint(
                int(k), int(trials), float(mean), float(stderr), float(q99), float(inc)))
    return [EfficiencyCurve(label, K, tuple(pts)) for (label, K), pts in grouped.items()]


def default_threads() -> int:
    return os.cpu_count() or 1


def map_jobs(fn, jobs, threads: int) -> list:
    """[fn(*job) for job in jobs], in order; in `threads` worker processes
    when threads > 1 and there is more than one job.  `fn` and the jobs
    must pickle."""
    if threads < 1:
        raise RangeError(f"threads must be >= 1, got {threads}")
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, *zip(*jobs)))
    return [fn(*job) for job in jobs]
