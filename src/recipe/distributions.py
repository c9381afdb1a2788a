"""Constructors for the named degree distributions and baseline sequences.

Covers the Shifted Soliton sequence (feasible for every diameter), the
classic Ideal/Robust Soliton distributions, the PINT baseline (a mixture of
reservoir sampling and a per-hop-XOR binomial code), and the expansion of a
single final-hop XDD into a full invariant sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RangeError
from .xdd import Xdd, XddSequence, binomial_log, sequence_from_masses


@lru_cache(maxsize=4096)
def shifted_soliton(k: int) -> Xdd:
    """Shifted Soliton XDD: mu(d) = 1/(d(d+1)) for d < k, mu(k) = 1/k.

    The masses telescope to exactly 1.  A cyclic shift of the truncated
    Ideal Soliton; unlike it, the concatenation over k = 1..K is realizable
    by stateless per-hop actions for every K.  Cached: Xdd values are
    immutable and safely shared.
    """
    if k < 1:
        raise RangeError(f"block size must be positive, got k={k}")
    d = np.arange(1.0, k)
    mass = np.empty(k)
    mass[: k - 1] = 1.0 / (d * (d + 1.0))
    mass[k - 1] = 1.0 / k
    return Xdd(k, mass)


def shifted_soliton_sequence(K: int) -> XddSequence:
    """The Shifted Soliton XDD for every path length 1..K."""
    return XddSequence(K, tuple(shifted_soliton(k) for k in range(1, K + 1)))


def ideal_soliton(k: int) -> Xdd:
    """Ideal Soliton: rho(1) = 1/k, rho(d) = 1/(d(d-1)) for 2 <= d <= k."""
    if k < 1:
        raise RangeError(f"block size must be positive, got k={k}")
    d = np.arange(2.0, k + 1)
    mass = np.empty(k)
    mass[0] = 1.0 / k
    mass[1:] = 1.0 / (d * (d - 1.0))
    return Xdd(k, mass)


def ideal_soliton_sequence(K: int) -> XddSequence:
    """Truncated Ideal Solitons concatenated into a sequence.

    Provided as the canonical counterexample: this sequence fails the
    per-hop realizability condition for every K >= 3.
    """
    return XddSequence(K, tuple(ideal_soliton(k) for k in range(1, K + 1)))


def robust_soliton(k: int, c: float = 0.1, delta: float = 0.5) -> Xdd:
    """Robust Soliton: normalize rho(d) + tau(d) with the spike at d = k/R.

    R = c * ln(k/delta) * sqrt(k);  tau(d) = R/(dk) for d below the spike,
    tau(spike) = R * ln(R/delta) / k, zero beyond.  Negative tau values
    (possible for tiny k where R < delta) are clamped to zero before
    normalizing, so the result is always a valid distribution.
    """
    if k < 1:
        raise RangeError(f"block size must be positive, got k={k}")
    if not 0.0 < c < math.inf:  # also refuses NaN
        raise RangeError(f"shape parameter must be positive and finite, got c={c}")
    if not 0.0 < delta < 1.0:
        raise RangeError(f"failure probability must be in (0,1), got delta={delta}")
    if k == 1:
        return Xdd(1, [1.0])
    rho = ideal_soliton(k).mass.copy()
    R = c * math.log(k / delta) * math.sqrt(k)
    tau = np.zeros(k)
    spike = min(max(int(k / R), 1), k)
    for d in range(1, spike):
        tau[d - 1] = R / (d * k)
    tau[spike - 1] = R * math.log(R / delta) / k
    tau = np.maximum(tau, 0.0)
    mass = rho + tau
    return Xdd(k, mass / mass.sum())


@dataclass(frozen=True)
class PintParams:
    """Mixture weight and per-hop XOR probability of the PINT baseline.

    With probability alpha a packet carries the reservoir-sampled single
    switch ID; otherwise every switch XORs its ID in with probability p,
    which makes the degree at path length k Binomial(k, p).
    """

    alpha: float
    p: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise RangeError(f"alpha must be in [0,1], got {self.alpha}")
        if not 0.0 < self.p < 1.0:
            raise RangeError(f"p must be in (0,1), got {self.p}")


def _binomial_pmf_log(k: int, p: float) -> np.ndarray:
    """Binomial(k, p) pmf over 0..k, computed in log space."""
    d = np.arange(k + 1)
    logc = np.array([binomial_log(k, int(x)) for x in d])
    return np.exp(logc + d * math.log(p) + (k - d) * math.log1p(-p))


def pint_xdd(k: int, params: PintParams) -> Xdd:
    """PINT XDD at path length k, with the empty-codeword mass folded away.

    The raw mixture is alpha on degree 1 (reservoir sampling) plus
    (1-alpha) Binomial(k, p), which places mass on degree 0 (no switch
    XORed).  An empty codeword carries no information and the decoder
    discards it, so the reported XDD is the mixture conditioned on d >= 1;
    this is exactly the degree distribution of the nonempty deliveries.
    """
    pmf = _binomial_pmf_log(k, params.p)
    mass = (1.0 - params.alpha) * pmf[1:]
    mass[0] += params.alpha
    return Xdd(k, mass / mass.sum())


def pint_sequence(K: int, params: PintParams) -> XddSequence:
    """The PINT baseline XDD for every path length 1..K."""
    return XddSequence(K, tuple(pint_xdd(k, params) for k in range(1, K + 1)))


def expand_invariant(mu_K: Xdd) -> XddSequence:
    """Expand a final-hop XDD into the invariant sequence it determines.

    An invariant sequence keeps mu_i(d) equal to mu_K(d) for every d < i
    and puts the remaining tail mass on the top degree:
    mu_i(i) = 1 - sum_{d<i} mu_K(d).  A negative tail is clamped to 0, so
    a head summing past 1 fails the row's own Xdd check.
    """
    K = mu_K.k
    masses = []
    for i in range(1, K + 1):
        if i == K:
            masses.append(np.array(mu_K.mass))
            continue
        head = np.array(mu_K.mass[: i - 1])
        tail = 1.0 - float(np.sum(head))
        masses.append(np.append(head, max(tail, 0.0)))
    return sequence_from_masses(masses)
