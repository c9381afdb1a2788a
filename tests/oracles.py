"""Independent oracles the tests check the library against.

Everything here recomputes expected values from first principles (exact
rational arithmetic, exhaustive enumeration, closed forms), sharing no code
path with the implementations under test.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def exact_q(mass, i, d):
    """q_i(d) = mu_i(d) / C(i, d) as an exact rational."""
    return Fraction(float(mass[d - 1])) / math.comb(i, d)


def feasibility_violations_exact(seq):
    """All (i, d) where q_{i-1}(d) < q_i(d) + q_i(d+1), exactly."""
    out = []
    for i in range(2, seq.K + 1):
        prev = seq.xdds[i - 2].mass
        cur = seq.xdds[i - 1].mass
        for d in range(1, i):
            lhs = exact_q(prev, i - 1, d)
            rhs = exact_q(cur, i, d) + exact_q(cur, i, d + 1)
            if lhs < rhs:
                out.append((i, d, lhs, rhs))
    return out


def invariant_chain_violations_exact(mass):
    """All d in 1..K-2 where d mu(d) < (d+1) mu(d+1), exactly.

    The invariant sequence of a final-hop XDD mu has mu_i(d) = mu(d) for
    d < i and the tail t_i = 1 - sum_{d<i} mu(d) at d = i.  In mu-space the
    constraint at (i, d) reads mu_{i-1}(d) >= mu_i(d) (i-d)/i +
    mu_i(d+1) (d+1)/i.  For d <= i-2 that is d mu(d) >= (d+1) mu(d+1),
    which binds for every i >= d+2, so for d = 1..K-2.  For d = i-1 it is
    t_i + mu(i-1) >= mu(i-1)/i + t_i, always true.  So the sequence is
    feasible iff the list is empty.
    """
    mu = [Fraction(float(m)) for m in mass]
    return [d for d in range(1, len(mu) - 1) if d * mu[d - 1] < (d + 1) * mu[d]]


def apa_triples_exact(seq):
    """Exact-rational action probabilities for every reachable (i, d)."""
    triples = {(1, 0): (Fraction(0), Fraction(0), Fraction(1))}
    for i in range(2, seq.K + 1):
        prev = seq.xdds[i - 2].mass
        cur = seq.xdds[i - 1].mass
        for d in range(1, i):
            denom = exact_q(prev, i - 1, d)
            if denom == 0:
                continue
            p_add = exact_q(cur, i, d + 1) / denom
            p_skip = exact_q(cur, i, d) / denom
            triples[(i, d)] = (p_add, p_skip, 1 - p_add - p_skip)
    return triples


def induced_xdds_by_action_vectors(apa_triples, K):
    """Enumerate whole action vectors (not sets) with exact probabilities.

    A deliberately different enumeration strategy from the library's
    per-hop set walk: iterate every (act_2..act_K) in {A,S,R}^(K-1),
    multiply entry probabilities along the degree trajectory, and
    accumulate XOR-set masses per hop.
    """
    per_hop = [dict() for _ in range(K + 1)]  # hop -> {frozenset: prob}
    per_hop[1] = {frozenset([1]): Fraction(1)}
    for acts in itertools.product("ASR", repeat=K - 1):
        prob = Fraction(1)
        xset = frozenset([1])
        trail = [xset]
        for hop_idx, act in enumerate(acts, start=2):
            d = len(xset)
            entry = apa_triples.get((hop_idx, d))
            if entry is None:
                prob = Fraction(0)
                break
            p_add, p_skip, p_rep = entry
            if act == "A":
                prob *= p_add
                xset = xset | {hop_idx}
            elif act == "S":
                prob *= p_skip
            else:
                prob *= p_rep
                xset = frozenset([hop_idx])
            if prob == 0:
                break
            trail.append(xset)
        if prob == 0:
            continue
        for hop, s in enumerate(trail[1:], start=2):
            per_hop[hop][s] = per_hop[hop].get(s, Fraction(0)) + prob
    masses = [np.array([1.0])]
    for i in range(2, K + 1):
        mass = [Fraction(0)] * i
        for s, p in per_hop[i].items():
            mass[len(s) - 1] += p
        masses.append(np.array([float(v) for v in mass]))
    return masses


def slack_budget_exact(masses):
    """1 - sum_d C(i-1,d) (q_i(d) + q_i(d+1)) for the masses of mu_i,
    in big-integer rationals.

    The identity budget = q_i(1) is an algebraic fact about distributions
    that sum to exactly 1, so exactness tests feed exact rationals; float
    masses carry their representation error into the result.
    """
    masses = [Fraction(v) for v in masses]
    i = len(masses)
    if i == 1:
        return Fraction(0)
    q = [Fraction(0)] * (i + 2)
    for d in range(1, i + 1):
        q[d] = masses[d - 1] / math.comb(i, d)
    total = Fraction(0)
    for d in range(1, i):
        total += math.comb(i - 1, d) * (q[d] + q[d + 1])
    return 1 - total


def coupon_collector_mean(k):
    """Expected draws to collect k uniform coupons: k * H_k."""
    return k * sum(Fraction(1, j) for j in range(1, k + 1))


def two_hop_expected_used(mu1, mu2):
    """Exact expected codewords to decode a 2-hop path by peeling.

    States: fresh; P = only the pair codeword pending; R1 = one hop
    resolved.  From fresh, a degree-1 codeword (prob mu1) resolves one hop;
    the pair (prob mu2) parks.  From P any singleton finishes (cascade).
    From R1 the other singleton (mu1/2) or the pair (mu2) finishes.
    """
    mu1, mu2 = Fraction(mu1), Fraction(mu2)
    e_p = 1 / mu1
    e_r1 = 1 / (mu1 / 2 + mu2)
    return 1 + mu1 * e_r1 + mu2 * e_p


def robust_soliton_table(k, c, delta):
    """Independent rendering of the Robust Soliton construction."""
    rho = [Fraction(0)] * (k + 1)
    rho[1] = Fraction(1, k)
    for d in range(2, k + 1):
        rho[d] = Fraction(1, d * (d - 1))
    R = c * math.log(k / delta) * math.sqrt(k)
    tau = [0.0] * (k + 1)
    spike = min(max(int(k / R), 1), k)
    for d in range(1, spike):
        tau[d] = R / (d * k)
    tau[spike] = max(R * math.log(R / delta) / k, 0.0)
    raw = np.array([float(rho[d]) + tau[d] for d in range(1, k + 1)])
    return raw / raw.sum()


def binomial_conditioned_xdd(k, p):
    """Binomial(k, p) conditioned on >= 1 success, exactly."""
    p = Fraction(p)
    pmf = [math.comb(k, d) * p**d * (1 - p) ** (k - d) for d in range(k + 1)]
    z = 1 - pmf[0]
    return [v / z for v in pmf[1:]]


def make_violated_sequence(rng, K):
    """A valid sequence that provably fails one feasibility constraint.

    Starts from a random feasible sequence, picks a constraint with a
    clearly positive right-hand side, and moves mass within mu_{i-1} so its
    left-hand side drops to half the bound.  Returns (sequence, i, d).
    Needs K >= 3: mu_1 = (1) is forced, so hop-2 constraints cannot break.
    """
    from recipe.search import random_feasible_sequence
    from recipe.xdd import Xdd, XddSequence

    assert K >= 3
    while True:
        seq = random_feasible_sequence(K, rng)
        spots = []
        for i in range(3, K + 1):
            cur = seq.xdds[i - 1].mass
            for d in range(1, i):
                rhs = cur[d - 1] * (i - d) / i + cur[d] * (d + 1) / i
                if rhs > 1e-4:
                    spots.append((i, d, rhs))
        if spots:
            break
    i, d, rhs = spots[rng.integers(0, len(spots))]
    mass = np.array(seq.xdds[i - 2].mass)
    # Feasibility guarantees mass[d-1] >= rhs, so halving the bound leaves
    # a decisive violation margin of rhs/2 > 5e-5.
    target = rhs * 0.5
    excess = mass[d - 1] - target
    mass[d - 1] = target
    j = int(np.argmax([m if idx != d - 1 else -1 for idx, m in enumerate(mass)]))
    mass[j] += excess
    xdds = list(seq.xdds)
    xdds[i - 2] = Xdd(i - 1, mass)
    return XddSequence(K, tuple(xdds)), i, d
