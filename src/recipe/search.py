"""Code discovery: greedy reversed search and quadratic-objective search.

Two searchers, two polytopes:

* hrs_search walks the full feasible polytope hop by hop, backward from a
  final-hop XDD (Robust Soliton by default).  Feasible predecessors of
  mu_i are parameterized exactly by scaled slacks gamma_d >= 0 with
  sum(gamma) = q_i(1) = mu_i(1)/i, so candidates are Dirichlet draws on
  that simplex, scored by simulated mean decode cost.

* qps_search minimizes a mean-field approximation of the expected decode
  cost over the K-dimensional polytope of invariant sequences (simplex
  intersected with the chain mu(d) >= (d+1)/d * mu(d+1)).  The original
  formulation is a nonconvex QP; here it is solved by multi-start
  projected gradient descent, with the projection computed by Dykstra's
  alternating scheme (simplex projection + isotonic regression on
  nu(d) = d*mu(d), in which the chain is plain monotonicity).

The mean-field model: messages decode in some order j = 1..K; message j
either was already released by earlier decoding (probability roughly
S_j * Prel_j with S_j the codewords consumed so far) or waits for a
geometric number of fresh codewords with success probability Psuc_j:

    t_j = max(0, 1 - S_j * Prel_j) / Psuc_j,      S_j = t_1 + .. + t_{j-1},
    Prel_j = sum_d (K-j+1) C(j-2,d-2) mu(d) / C(K,d),
    Psuc_j = sum_d (K-j+1) C(j-1,d-1) mu(d) / C(K,d).

The optional second-order toggle replaces S_j*Prel_j with
S_j*Prel_j - (S_j*Prel_j)^2 / (2(K-j+1)), compensating for release
collisions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .decoder import PeelingState
from .distributions import robust_soliton, expand_invariant, shifted_soliton
from .errors import InternalConsistencyError, RangeError
from .evaluation import map_jobs, peel_trials
from .feasibility import check_feasible, _rhs_mu
from .xdd import Xdd, XddSequence, binomial_log, sequence_from_masses

# QPS keeps a floor under mu(1): the first decode requires Psuc_1 = mu(1),
# and peeling needs degree-1 mass anyway.
MU1_FLOOR = 1e-6

# Dykstra rounds per projection, and QPS descent steps per start.
_DYKSTRA_ITERS = 60
_QPS_MAX_ITERS = 2000

# Codewords per hop that one HRS scoring trial may consume (at least 12).
_BANK_CAP_FACTOR = 6


@dataclass(frozen=True)
class MeanFieldTerms:
    """Per-decode-rank pieces of the mean-field objective."""

    K: int
    p_rel: np.ndarray
    p_suc: np.ndarray
    t: np.ndarray
    s: np.ndarray


@functools.cache
def _mean_field_coeffs(K: int):
    """Rel[j-1,d-1] and Suc[j-1,d-1] coefficient matrices, log-space built."""
    rel = np.zeros((K, K))
    suc = np.zeros((K, K))
    for j in range(1, K + 1):
        base = math.log(K - j + 1)
        for d in range(1, j + 1):
            lkd = binomial_log(K, d)
            if d >= 2:
                rel[j - 1, d - 1] = math.exp(base + binomial_log(j - 2, d - 2) - lkd)
            suc[j - 1, d - 1] = math.exp(base + binomial_log(j - 1, d - 1) - lkd)
    return rel, suc


def _mean_field_values(mass: np.ndarray, K: int, second_order: bool):
    """The value pass: the t-recursion alone, on Python floats.  Returns
    (total, MeanFieldTerms, ranks), where total is the running sum of t in
    rank order and ranks lists (j, factor, num) for every unclamped rank j:
    what the gradient pass reads besides the terms, factor being
    d released / d rel_j under the second-order toggle (None without)."""
    rel_m, suc_m = _mean_field_coeffs(K)
    p_rel = rel_m @ mass
    p_suc = suc_m @ mass
    if p_suc[0] <= 0.0:
        raise RangeError("mu(1) = 0: the first message can never be decoded")
    t = [0.0] * K
    s = [0.0] * K
    ranks = []
    running = 0.0
    factor = None
    for j, (rel, suc) in enumerate(zip(p_rel.tolist(), p_suc.tolist())):
        s[j] = running
        rel_j = running * rel
        if second_order:
            released = rel_j - 0.5 * rel_j * rel_j / (K - j)
            factor = 1.0 - rel_j / (K - j)
        else:
            released = rel_j
        num = 1.0 - released
        if num > 0.0:
            t[j] = num / suc
            ranks.append((j, factor, num))
        running += t[j]
    # total is a numpy scalar: the descent's trace rows carry it, and their
    # repr is pinned output.
    terms = MeanFieldTerms(K, p_rel, p_suc, np.array(t), np.array(s))
    return np.float64(running), terms, ranks


def _mean_field_grad(terms: MeanFieldTerms, ranks: list) -> np.ndarray:
    """The gradient pass: forward accumulation over the unclamped ranks of
    a value pass (clamped terms contribute zero gradient).  Per rank,
        d_t_j = (-d_released * Psuc_j - num * Suc[j]) / Psuc_j ** 2,
    with d_released = factor * (d_S_j * Prel_j + S_j * Rel[j]), computed
    in place with the operands and order of that formula (-x * p is
    written x * -p, the same IEEE product).  The gradient and d_S
    accumulate the same d_t_j in the same order, so one buffer is both."""
    rel_m, suc_m = _mean_field_coeffs(terms.K)
    idx, factors, nums = zip(*ranks)
    idx = list(idx)
    s_rel = rel_m[idx] * terms.s[idx, None]
    num_suc = suc_m[idx] * np.array(nums)[:, None]
    p_suc = terms.p_suc[idx]
    # Numpy scalar ** 2 is libm pow, which differs from x * x and from
    # array ** 2 in the last bit on about 0.1% of inputs: keep it.
    p_suc_sq = [p ** 2 for p in p_suc]
    d_running = np.zeros(terms.K)
    d_t = np.empty(terms.K)
    for p_rel_j, factor, neg_suc_j, sq_j, s_rel_j, num_suc_j in zip(
            terms.p_rel[idx].tolist(), factors, (-p_suc).tolist(), p_suc_sq, s_rel, num_suc):
        np.multiply(d_running, p_rel_j, out=d_t)
        np.add(d_t, s_rel_j, out=d_t)
        if factor is not None:
            np.multiply(d_t, factor, out=d_t)
        np.multiply(d_t, neg_suc_j, out=d_t)
        np.subtract(d_t, num_suc_j, out=d_t)
        np.divide(d_t, sq_j, out=d_t)
        np.add(d_running, d_t, out=d_running)
    return d_running


def _objective_and_grad(mass: np.ndarray, K: int, second_order: bool):
    """The objective, its exact gradient and the per-rank terms: a value
    pass, then a gradient pass over its ranks.  Returns (total, grad,
    MeanFieldTerms), where total is the running sum of t in rank order."""
    total, terms, ranks = _mean_field_values(mass, K, second_order)
    return total, _mean_field_grad(terms, ranks), terms


def mean_field_objective(mu: Xdd, second_order: bool = False):
    """Approximate expected codewords to decode all K messages.

    Returns (total, MeanFieldTerms).  Deterministic: identical input gives
    bit-identical output.  Raises RangeError when mu(1) = 0 or when the
    total overflows, as the second-order correction can on XDDs far from
    the invariant polytope.
    """
    _, terms, _ = _mean_field_values(np.asarray(mu.mass), mu.k, second_order)
    if (terms.p_rel > 1.0 + 1e-9).any() or (terms.p_suc > 1.0 + 1e-9).any():
        raise InternalConsistencyError("mean-field probability above 1")
    total = float(terms.t.sum())
    if not math.isfinite(total):
        raise RangeError(f"mean-field objective is not finite ({total}) for this XDD")
    return total, terms


# ---------------------------------------------------------------------------
# Projection onto {simplex} n {chain mu(d) >= (d+1)/d mu(d+1), d <= K-2}.


def _project_weighted_simplex(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, w . x = 1} (w > 0)."""
    b = y / w
    order = np.argsort(b)[::-1]
    cy = np.cumsum((y * w)[order])
    cw = np.cumsum((w * w)[order])
    theta = (cy - 1.0) / cw
    valid = np.nonzero(b[order] - theta > 0)[0]
    if valid.size == 0:
        x = np.zeros_like(y)
        x[np.argmax(y / w)] = 1.0 / w[np.argmax(y / w)]
        return x
    t = theta[valid[-1]]
    return np.maximum(y - t * w, 0.0)


def _isotonic_nonincreasing(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted least-squares fit of a nonincreasing vector (PAVA): each
    new block pools with the blocks before it that it exceeds, then is
    pushed."""
    vals = []
    wts = []
    counts = []
    for v2, w2 in zip(y.tolist(), w.tolist()):
        c2 = 1
        while vals and vals[-1] < v2:
            v1, w1 = vals.pop(), wts.pop()
            c2 += counts.pop()
            wt = w1 + w2
            v2, w2 = (v1 * w1 + v2 * w2) / wt, wt
        vals.append(v2)
        wts.append(w2)
        counts.append(c2)
    return np.repeat(vals, counts)


def _project_chain_cone(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {mu >= 0, d*mu(d) nonincreasing for
    d <= K-1}.  In nu = d*mu coordinates the chain is monotonicity, and
    the mu-space metric becomes weights 1/d^2."""
    K = v.size
    d = np.arange(1, K + 1, dtype=float)
    nu = v * d
    w = 1.0 / d**2
    head = _isotonic_nonincreasing(nu[:K - 1], w[:K - 1])
    out = np.empty(K)
    out[:K - 1] = np.maximum(head, 0.0) / d[:K - 1]
    out[K - 1] = max(v[K - 1], 0.0)
    return out


def project_invariant_polytope(v: np.ndarray) -> np.ndarray:
    """Dykstra's alternating projection onto the invariant-feasible set,
    finishing with an exact restoration pass (cone projection, positivity,
    normalization) so the output always satisfies every constraint."""
    x = np.asarray(v, dtype=float).copy()
    ones = np.ones_like(x)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    # No movement-based early exit: Dykstra's iterate can stall for a few
    # rounds while the correction vectors still evolve.
    for _ in range(_DYKSTRA_ITERS):
        y = _project_chain_cone(x + p)
        p = x + p - y
        x = _project_weighted_simplex(y + q, ones)
        q = y + q - x
    x = _project_chain_cone(x)
    x = np.maximum(x, 0.0)
    x[0] = max(x[0], MU1_FLOOR)
    x /= x.sum()
    if x[0] < MU1_FLOOR:
        x[0] = MU1_FLOOR
        x /= x.sum()
    return x


# The descent runs in difference coordinates of nu(d) = d*mu(d): with
# delta_e = nu(e) - nu(e+1) (e <= K-2), delta_{K-1} = nu(K-1) and
# delta_K = nu(K), the chain becomes plain nonnegativity and the simplex
# becomes the weighted simplex {delta >= 0, w . delta = 1} with
# w_e = H_e (harmonic number) for e <= K-1 and w_K = 1/K.  Facets are
# coordinate planes there, so gradient steps do not zigzag against the
# chain the way they do in mu-space.


def _delta_weights(K: int) -> np.ndarray:
    w = np.cumsum(1.0 / np.arange(1, K + 1))
    w[K - 1] = 1.0 / K
    return w


def _mass_from_delta(delta: np.ndarray) -> np.ndarray:
    K = delta.size
    nu = np.empty(K)
    nu[:K - 1] = np.cumsum(delta[K - 2::-1])[::-1]
    nu[K - 1] = delta[K - 1]
    return nu / np.arange(1, K + 1)


def _delta_from_mass(mass: np.ndarray) -> np.ndarray:
    K = mass.size
    nu = mass * np.arange(1, K + 1)
    delta = np.empty(K)
    delta[:K - 2] = nu[:K - 2] - nu[1:K - 1]
    delta[K - 2] = nu[K - 2]
    delta[K - 1] = nu[K - 1]
    return np.maximum(delta, 0.0)


def _grad_to_delta(g_mu: np.ndarray) -> np.ndarray:
    K = g_mu.size
    g_nu = g_mu / np.arange(1, K + 1)
    g_delta = np.empty(K)
    g_delta[:K - 1] = np.cumsum(g_nu[:K - 1])
    g_delta[K - 1] = g_nu[K - 1]
    return g_delta


def _qps_descend(mass: np.ndarray, K: int, second_order: bool, tag: int):
    """Projected gradient descent with backtracking from one start point.
    Returns (x, f, trace rows (tag, iteration, f))."""
    w = _delta_weights(K)
    delta = _project_weighted_simplex(_delta_from_mass(project_invariant_polytope(mass)), w)
    x = _mass_from_delta(delta)
    f, g, _ = _objective_and_grad(x, K, second_order)
    gd = _grad_to_delta(g)
    lr = 0.25 / max(np.abs(gd).max(), 1e-12)
    trace = []
    for it in range(_QPS_MAX_ITERS):
        improved = False
        while lr > 1e-16:
            dy = _project_weighted_simplex(delta - lr * gd, w)
            y = _mass_from_delta(dy)
            fy, terms, ranks = _mean_field_values(y, K, second_order)
            if fy < f - 1e-13:
                # Trial steps are scored by value; the gradient is taken
                # only where the descent moves, from that step's value pass.
                delta, x, f = dy, y, fy
                gd = _grad_to_delta(_mean_field_grad(terms, ranks))
                lr *= 1.4
                improved = True
                break
            lr *= 0.5
        trace.append((tag, it, f))
        if not improved:
            break
    return x, f, trace


def qps_search(K: int, restarts: int = 8, seed: int = 0, second_order: bool = False,
               trace: list | None = None, threads: int = 1) -> XddSequence:
    """Search invariant sequences for low mean-field decode cost.

    Multi-start: the Shifted Soliton final-hop XDD (always kept as the
    incumbent, so the result is never worse than that seed), uniform and
    geometric shapes, plus `restarts` random Dirichlet starts; starts
    descend independently (in `threads` processes when asked, with
    identical results either way).  Returns the full expanded sequence,
    which is feasible by construction and checked.
    """
    if K < 1:
        raise RangeError(f"diameter must be positive, got K={K}")
    if restarts < 1:
        raise RangeError(f"restarts must be >= 1, got {restarts}")
    if threads < 1:  # refused here too, since K=1 never reaches map_jobs
        raise RangeError(f"threads must be >= 1, got {threads}")
    if K == 1:
        return sequence_from_masses([[1.0]])
    rng = np.random.default_rng(seed)
    d = np.arange(1, K + 1, dtype=float)
    starts = [
        np.asarray(shifted_soliton(K).mass, dtype=float),
        np.full(K, 1.0 / K),
        0.5 ** d,
        0.8 ** d,
    ]
    for _ in range(restarts):
        starts.append(rng.dirichlet(np.ones(K)))
    jobs = [(np.asarray(start, dtype=float), K, second_order, tag)
            for tag, start in enumerate(starts)]
    results = map_jobs(_qps_descend, jobs, threads)
    best_x, best_f = None, math.inf
    for x, f, job_trace in results:
        if trace is not None:
            trace.extend(job_trace)
        if f < best_f:
            best_x, best_f = x, f
    ss_f, _ = mean_field_objective(shifted_soliton(K), second_order)
    if best_f > ss_f + 1e-9:
        raise InternalConsistencyError("search ended worse than its seed")
    seq = expand_invariant(Xdd(K, best_x))
    report = check_feasible(seq)
    if not report.feasible:
        raise InternalConsistencyError("search returned an infeasible sequence")
    return seq


# ---------------------------------------------------------------------------
# HRS: backward greedy search over the full feasible polytope.


def slack_budget(mu_i: Xdd) -> float:
    """Total scaled slack available to any feasible predecessor of mu_i;
    equals q_i(1) = mu_i(1)/i (`slack_budget_exact` in tests/oracles.py
    checks that identity in exact rationals)."""
    return mu_i.mu(1) / mu_i.k


def sample_feasible_predecessors(mu_i: Xdd, n: int, rng) -> np.ndarray:
    """n mass vectors for path length i-1, uniformly slack-sampled.

    Every row is base + gamma, with base the zero-slack predecessor and
    gamma Dirichlet-uniform on the scaled slack simplex of total q_i(1);
    every row is a valid distribution and satisfies the hop-(i)
    feasibility constraints by construction.
    """
    i = mu_i.k
    base = _rhs_mu(np.asarray(mu_i.mass), i)
    budget = slack_budget(mu_i)
    if i - 1 == 1:
        gammas = np.full((n, 1), budget)
    else:
        gammas = rng.dirichlet(np.ones(i - 1), size=n) * budget
    return base[None, :] + gammas


def _walk_back(mu_K: Xdd, pick) -> XddSequence:
    """The backward walk both searches share: from mu_K down to path
    length 1, pick(mu_i) gives a feasible predecessor's mass vector,
    which is normalized to become mu_(i-1)."""
    masses = [np.asarray(mu_K.mass)]
    cur = mu_K
    for i in range(mu_K.k, 1, -1):
        mass = pick(cur)
        cur = Xdd(i - 1, mass / mass.sum())
        masses.append(np.asarray(cur.mass))
    return sequence_from_masses(list(reversed(masses)))


def random_feasible_sequence(K: int, rng) -> XddSequence:
    """A random feasible sequence: random final-hop XDD, then one uniformly
    slack-sampled predecessor per hop, backward."""
    if K < 1:
        raise RangeError(f"diameter must be positive, got K={K}")
    mu_K = Xdd(K, rng.dirichlet(np.ones(K)))
    return _walk_back(mu_K, lambda cur: sample_feasible_predecessors(cur, 1, rng)[0])


class _ScoringBank:
    """Common random numbers for candidate scoring at one path length.

    Per (trial, codeword): one uniform (degree draw through a candidate's
    CDF) and one random hop order (the degree-d XOR-set is the order's
    first d hops, so candidates differing only in degree share sets).
    Incomplete trials score at the bank's cap, pessimistically.

    Every candidate reads the same orders, so two candidates whose degrees
    on a trial agree up to where one of them stopped peeling also stop
    there together.  The bank records, per trial, the degree prefix of each
    distinct stream it peeled, up to its stop; a trial whose degrees start
    with a recorded prefix scores its length without peeling.  No recorded
    prefix starts another (the shorter one's stream would have stopped the
    longer one first), so at most one matches.
    """

    def __init__(self, m: int, trials: int, rng):
        self.m = m
        self.trials = trials
        self.cap = max(_BANK_CAP_FACTOR * m, 12)
        # The trials x cap uniforms, kept in increasing order with where
        # each sits (flat index): a candidate's degrees are then runs in
        # that order (see score).
        u = rng.random((trials, self.cap))
        self.order = np.argsort(u, axis=None)
        self.sorted_u = u.reshape(-1)[self.order]
        # ranks[t, c, h]: position of hop h in the order, so the degree-d
        # XOR-set is the hops ranked below d: each order's inverse, set by
        # one scatter.  Built one trial at a time, so only one trial's
        # orders exist at once; permuting row blocks in turn draws what one
        # call on all rows would, in any dtype, so ranks take the smallest
        # that holds m - 1 (uint8 up to m = 256).
        base = np.tile(np.arange(m, dtype=np.min_scalar_type(m - 1)), (self.cap, 1))
        rows = np.arange(self.cap)[:, None]
        self.ranks = np.empty((trials, self.cap, m), dtype=base.dtype)
        for t in range(trials):
            self.ranks[t, rows, rng.permuted(base, axis=1)] = base
        # Per trial, the recorded prefixes: int16 degree bytes.
        self.prefixes = [[] for _ in range(trials)]

    def score(self, mass: np.ndarray) -> float:
        # A uniform's degree is 1 + the number of CDF values at or below
        # it (the last, 1, is above them all): in sorted order, a run of 1s,
        # then of 2s, and so on, scattered back to the uniforms' places.
        runs = np.diff(np.searchsorted(self.sorted_u, np.cumsum(mass)[:-1]),
                       prepend=0, append=self.sorted_u.size)
        degrees = np.empty((self.trials, self.cap), dtype=np.int16)
        degrees.reshape(-1)[self.order] = np.repeat(
            np.arange(1, self.m + 1, dtype=np.int16), runs)
        # The degree-d set is the hops ranked at or below d - 1, a bound
        # that fits the ranks' dtype (comparing within it is the fast path).
        tops = (degrees - 1).astype(self.ranks.dtype)
        stride = 2 * self.cap  # bytes of one trial's degrees
        streams = degrees.tobytes()
        total = 0
        peeling = []
        for t, prefixes in enumerate(self.prefixes):
            for prefix in prefixes:
                if streams.startswith(prefix, t * stride):
                    total += len(prefix) // 2
                    break
            else:
                peeling.append(t)
        peeling = np.array(peeling, dtype=np.intp)

        def block(js, lo, hi):
            ts = peeling[js]
            return self.ranks[ts, lo:hi] <= tops[ts, lo:hi, None], repeat(repeat(0))

        for j, used in peel_trials([PeelingState(self.m) for _ in peeling], self.m,
                                   self.cap, block):
            t = peeling[j]
            total += used
            self.prefixes[t].append(streams[t * stride:t * stride + 2 * used])
        return total / self.trials


def hrs_search(K: int, candidates_per_hop: int = 1000, trials_per_candidate: int = 2000,
               seed: int = 0, mu_K: Xdd | None = None,
               trace: list | None = None) -> XddSequence:
    """Backward greedy search from a final-hop XDD (Robust Soliton default).

    At each hop the feasible predecessors are slack-sampled and scored by
    simulated mean decode cost under common random numbers; the best
    candidate becomes the previous hop's XDD.  The result is feasible by
    construction and checked before returning.
    """
    if K < 1:
        raise RangeError(f"diameter must be positive, got K={K}")
    if min(candidates_per_hop, trials_per_candidate) < 1:
        raise RangeError("candidates_per_hop and trials_per_candidate must be >= 1")
    if mu_K is None:
        mu_K = robust_soliton(K)
    if mu_K.k != K:
        raise RangeError(f"starting XDD has block size {mu_K.k}, expected {K}")
    if K == 1:
        return sequence_from_masses([[1.0]])
    rng = np.random.default_rng(seed)

    def pick(cur: Xdd) -> np.ndarray:
        i = cur.k
        cands = sample_feasible_predecessors(cur, candidates_per_hop, rng)
        if i - 1 == 1:
            return cands[0]
        bank = _ScoringBank(i - 1, trials_per_candidate,
                            np.random.default_rng(seed ^ (i << 20)))
        scores = [bank.score(c) for c in cands]
        if trace is not None:
            trace.append((i - 1, float(min(scores))))
        return cands[int(np.argmin(scores))]

    seq = _walk_back(mu_K, pick)
    report = check_feasible(seq)
    if not report.feasible:
        raise InternalConsistencyError("search returned an infeasible sequence")
    return seq
