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
from .errors import InternalConsistencyError, RangeError
from .feasibility import derive_apa
from .protocol import PintScheme, RecipeDScheme, RecipeTScheme
from .protocol import _mix64, masks_from_members, xor_members
# Unused here, but bench/tracing.py patches these names on this module.
from .protocol import hash_uniform_array, row_select_array  # noqa: F401
from .xdd import XddSequence, _atomic_write_bytes, malformed, read_text

# Packets consumed before a trial is declared incomplete; incomplete trials
# contribute exactly this value to the mean (pessimistic).
CAP_FACTOR = 200

# Action-matrix cells (packets x hops) generated per kernel call in
# run_trials: large enough to amortize the per-hop numpy calls, small
# enough that 1e5-trial curves stay within a few tens of MB.
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


def run_trials(scheme, k: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Run one instance per seed; return (used, completed) arrays.

    Codeword generation is batched across the still-active instances per
    round, at most _CHUNK_CELLS action-matrix cells per kernel call; each
    instance consumes its own stream in order through the peeling decoder
    and is verified against its ground-truth IDs.
    """
    B = len(seeds)
    cap = CAP_FACTOR * k
    # PeelingState checks k, so it comes before the draws that need k >= 0.
    states = [PeelingState(k) for _ in range(B)]
    rngs = [np.random.default_rng(s) for s in seeds]
    switch_ids = [_draw_switch_ids(rng, k) for rng in rngs]
    used = np.zeros(B, dtype=np.int64)
    completed = np.zeros(B, dtype=bool)
    block = min(cap, max(2 * k, 8))
    chunk = max(1, _CHUNK_CELLS // (block * k))
    active = list(range(B))
    while active:
        still = []
        for c0 in range(0, len(active), chunk):
            batch = active[c0:c0 + chunk]
            # Raw 64-bit draws: the same values as integers(0, 2**64, dtype=uint64).
            pids = np.concatenate([rngs[t].bit_generator.random_raw(block) for t in batch])
            members = xor_members(scheme.actions(k, pids))
            masks = masks_from_members(members)
            for row, t in enumerate(batch):
                lo = row * block
                vals = _codeword_values(members[lo:lo + block], switch_ids[t]).tolist()
                state = states[t]
                take = min(block, cap - int(used[t]))
                used[t] += state.absorb(zip(masks[lo:lo + take], vals))
                if state.complete or used[t] == cap:
                    completed[t] = state.complete
                    _verify_resolution(state, switch_ids[t])
                else:
                    still.append(t)
        active = still
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

    def means(self) -> dict[int, float]:
        return {p.k: p.mean for p in self.points}


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
    ks = list(ks) if ks is not None else list(range(1, K + 1))
    for k in ks:  # refuse a bad k before any trial runs
        scheme._check_length(k)
    points = map_jobs(_curve_point, [(scheme, k, trials, seed) for k in ks], threads)
    return EfficiencyCurve(scheme.label, K, tuple(points))


def compare_t_vs_d(seq: XddSequence, L_values, trials: int, seed: int,
                   ks=None, threads: int = 1) -> dict[str, EfficiencyCurve]:
    """Table-based approximation quality study: one curve per table size
    against the exact degree-based protocol, from one derived APA."""
    from .protocol import generate_avst

    apa = derive_apa(seq)
    curves = {}
    d_scheme = RecipeDScheme(apa=apa, seed=seed, label="recipe-d")
    curves["recipe-d"] = efficiency_curve(d_scheme, seq.K, trials, seed, ks=ks, threads=threads)
    for L in L_values:
        avst = generate_avst(apa, L, derive_seed(seed, 1_000_000 + L))
        t_scheme = RecipeTScheme(avst, seed=seed)
        curves[t_scheme.label] = efficiency_curve(
            t_scheme, seq.K, trials, seed, ks=ks, threads=threads)
    return curves


def mean_curve_gap(curve_a: EfficiencyCurve, curve_b: EfficiencyCurve) -> float:
    """Mean absolute per-k difference of two mean-efficiency curves."""
    means_b = curve_b.means()
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
    seeds = [derive_seed(seed, tune_k, t) for t in range(trials)]
    results = []
    best = None
    for alpha in alphas:
        for p in ps:
            scheme = PintScheme(PintParams(alpha, p), seed=seed)
            used, _ = run_trials(scheme, tune_k, seeds)
            mean = float(used.mean())
            results.append((alpha, p, mean))
            if best is None or mean < best[2]:
                best = (alpha, p, mean)
    return PintParams(best[0], best[1]), results


def degree_histogram(scheme, k: int, n_packets: int, seed: int) -> np.ndarray:
    """Empirical delivered-XOR-degree counts (index d-1 = degree d), from
    n_packets fresh packet ids.  Degree-0 deliveries (PINT binomial branch)
    are excluded; the caller compares against the conditioned XDD."""
    rng = np.random.default_rng(seed)
    counts = np.zeros(k, dtype=np.int64)
    chunk = 1 << 16
    remaining = n_packets
    while remaining > 0:
        n = min(chunk, remaining)
        members = xor_members(scheme.actions(k, rng.integers(0, 2**64, size=n, dtype=_U64)))
        counts += np.bincount(members.sum(axis=1), minlength=k + 1)[1:]
        remaining -= n
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
    text = read_text(path, f"curve CSV {path}", RangeError)
    lines = [ln.strip() for ln in text.split("\n") if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise RangeError(f"{path} is not a curve CSV")
    grouped: dict[tuple, list[CurvePoint]] = {}
    for ln in lines[1:]:
        with malformed(f"curve row in {path}", RangeError):
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
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, *zip(*jobs)))
    return [fn(*job) for job in jobs]
