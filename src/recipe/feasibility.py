"""Realizability of XDD sequences and the action probability array (APA).

An XDD sequence mu_1..mu_K can be produced by stateless per-hop
Add/Skip/Replace actions iff, for all 2 <= i <= K and 1 <= d <= i-1,

    q_{i-1}(d) >= q_i(d) + q_i(d+1).                                  (*)

All checks run in mu-space through the exact rearrangement

    mu_{i-1}(d) >= mu_i(d) (i-d)/i + mu_i(d+1) (d+1)/i,

which uses C(i-1,d)/C(i,d) = (i-d)/i and C(i-1,d)/C(i,d+1) = (d+1)/i and
therefore never materializes a C(236, d)-sized binomial.  The same
identities give the action probabilities

    p_A(i,d) = q_i(d+1)/q_{i-1}(d) = mu_i(d+1)/mu_{i-1}(d) * (d+1)/i
    p_S(i,d) = q_i(d)  /q_{i-1}(d) = mu_i(d)  /mu_{i-1}(d) * (i-d)/i
    p_R(i,d) = 1 - p_A - p_S

with the fixed hop-1 triple (0, 0, 1): the first switch always replaces.

`exact_induced_sequence` is the independent oracle for all of the above:
it enumerates every XOR-set a packet can carry, hop by hop, with its exact
probability under an APA, and checks the uniformity condition directly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleSequenceError,
    ProtocolError,
    RangeError,
    SequenceValidationError,
    UniformityError,
)
from .xdd import (
    SUM_TOL_FILE,
    XddSequence,
    _atomic_write_bytes,
    malformed,
    q_from_mu,
    read_text,
    sequence_from_masses,
)

# A constraint is only counted as violated when its mu-space slack is more
# negative than this; search outputs sit exactly on facets and accumulate
# rounding of this order.
SLACK_TOL = 1e-12

UNIFORMITY_TOL = 1e-10

# Exhaustive enumeration walks all XOR-sets over [K]; beyond this the walk
# is pointless as an oracle.
ENUMERATION_LIMIT = 12


@dataclass(frozen=True)
class Violation:
    """One violated constraint, reported in q-space: lhs >= rhs failed."""

    i: int
    d: int
    lhs: float
    rhs: float


@dataclass(frozen=True)
class FeasibilityReport:
    violations: tuple[Violation, ...] = ()

    @property
    def feasible(self) -> bool:
        return not self.violations


def _rhs_mu(mass_i: np.ndarray, i: int) -> np.ndarray:
    """mu-space right-hand side of (*) for d = 1..i-1 given mu_i."""
    d = np.arange(1, i)
    return mass_i[: i - 1] * (i - d) / i + mass_i[1:i] * (d + 1) / i


def check_feasible(seq: XddSequence) -> FeasibilityReport:
    """Check every constraint of (*); report violations in q-space."""
    if not isinstance(seq, XddSequence):
        raise SequenceValidationError("check_feasible expects an XddSequence")
    violations = []
    for i in range(2, seq.K + 1):
        lhs = seq.xdds[i - 2].mass
        rhs = _rhs_mu(seq.xdds[i - 1].mass, i)
        bad = np.nonzero(lhs - rhs < -SLACK_TOL)[0]
        for idx in bad:
            d = int(idx) + 1
            violations.append(Violation(i, d, float(q_from_mu(lhs[idx], i - 1, d)),
                                        float(q_from_mu(rhs[idx], i - 1, d))))
    return FeasibilityReport(tuple(violations))


@dataclass(frozen=True)
class Apa:
    """Action probability array: (p_add, p_skip, p_replace) per (hop, degree).

    triples[0] is the fixed hop-1 row [(0, 0, 1)] (incoming degree 0);
    triples[i-1] holds rows for incoming degrees 1..i-1 at hop i.  Rows of
    NaN mark unreachable states (mu_{i-1}(d) = 0): no packet can arrive
    there, and encoders assert they never consult one.  Every other row is
    a probability vector (finite, nonnegative, summing to 1 within
    SUM_TOL_FILE); anything else is a SequenceValidationError.
    """

    K: int
    triples: tuple[np.ndarray, ...]

    def __post_init__(self):
        frozen = []
        for arr in self.triples:
            arr = np.asarray(arr, dtype=float)
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "triples", tuple(frozen))
        shapes = [arr.shape for arr in self.triples]
        if self.K < 1 or shapes != [(max(i - 1, 1), 3) for i in range(1, self.K + 1)]:
            raise SequenceValidationError(
                f"an APA for K={self.K} >= 1 has K hops, hop i with max(i - 1, 1) rows of 3")
        # The encoders' fast paths hard-code Replace at hop 1.
        if not np.array_equal(self.triples[0], [[0.0, 0.0, 1.0]]):
            raise SequenceValidationError(
                f"hop 1 has row {self.triples[0][0].tolist()}, not the fixed (0, 0, 1)")
        rows = np.concatenate(self.triples)
        ok = np.isnan(rows).all(axis=1) | (
            np.isfinite(rows).all(axis=1) & (rows >= 0.0).all(axis=1)
            & (np.abs(rows.sum(axis=1) - 1.0) <= SUM_TOL_FILE))
        if not ok.all():
            hops = np.repeat(np.arange(1, self.K + 1), [len(arr) for arr in self.triples])
            raise SequenceValidationError(
                f"hop {hops[np.argmin(ok)]} has a row that is neither all NaN (null) "
                "nor a probability vector")

    def entry(self, i: int, d: int) -> tuple[float, float, float]:
        """The (p_add, p_skip, p_replace) triple for incoming degree d at hop i."""
        row = self._row(i, d)
        if np.isnan(row[0]):
            raise ProtocolError(f"unreachable APA entry consulted at (i={i}, d={d})")
        return float(row[0]), float(row[1]), float(row[2])

    def _row(self, i: int, d: int) -> np.ndarray:
        if not 1 <= i <= self.K:
            raise RangeError(f"hop {i} outside 1..{self.K}")
        lo = 0 if i == 1 else 1
        if not lo <= d <= i - 1:
            raise RangeError(f"degree {d} invalid for hop {i}")
        return self.triples[i - 1][d - lo]

    def digest(self) -> str:
        """Content hash binding precomputed tables to their source APA."""
        h = hashlib.sha256()
        h.update(b"APA\x00" + self.K.to_bytes(4, "little"))
        for arr in self.triples:
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        return h.hexdigest()


def derive_apa(seq: XddSequence) -> Apa:
    """Derive the APA realizing a feasible sequence.

    check_feasible is the only gate, and every sequence it accepts
    derives.  One that fails (*) raises InfeasibleSequenceError (with the
    report): per the necessity proof no APA can realize it.
    """
    report = check_feasible(seq)
    if not report.feasible:
        raise InfeasibleSequenceError(report)
    triples = [np.array([[0.0, 0.0, 1.0]])]
    for i in range(2, seq.K + 1):
        prev = seq.xdds[i - 2].mass
        cur = seq.xdds[i - 1].mass
        reach = prev != 0.0  # unreachable states keep the NaN sentinel row
        prev = prev[reach]
        d = np.arange(1, i)[reach]
        p_add = cur[1:][reach] / prev * (d + 1) / i
        p_skip = cur[:-1][reach] / prev * (i - d) / i
        p_rep = 1.0 - p_add - p_skip
        # The check forgives mu-space slack down to -SLACK_TOL, which leaves
        # p_rep as low as -SLACK_TOL / mu_{i-1}(d): put such rows on their facet.
        total = np.where(p_rep < 0.0, p_add + p_skip, 1.0)
        p_add /= total
        p_skip /= total
        p_rep = np.maximum(p_rep, 0.0)
        rows = np.full((i - 1, 3), np.nan)
        rows[reach] = np.column_stack((p_add, p_skip, p_rep))
        triples.append(rows)
    return Apa(seq.K, tuple(triples))


def exact_induced_sequence(apa: Apa) -> XddSequence:
    """Brute-force oracle: the XDD sequence an APA actually induces.

    Tracks the exact probability of every XOR-set (as a bitmask over hops)
    through all hops, purely from the APA and the Add/Skip/Replace set
    mechanics.  Verifies the uniformity condition at every hop and returns
    the induced sequence.  Independent of the mu-ratio algebra above, which
    is the point: round-tripping derive_apa through this function is the
    main correctness check of the whole theory.
    """
    K = apa.K
    if K > ENUMERATION_LIMIT:
        raise RangeError(f"exact enumeration limited to K <= {ENUMERATION_LIMIT}")

    # Hop 1: the fixed triple always replaces the empty codeword.
    states: dict[int, float] = {1: 1.0}  # bitmask (bit h-1 = hop h) -> probability
    masses = [_collect_mass(states, 1)]
    for i in range(2, K + 1):
        nxt: dict[int, float] = {}
        my_bit = 1 << (i - 1)
        for mask, prob in states.items():
            if prob == 0.0:
                continue
            d = mask.bit_count()
            p_add, p_skip, p_rep = apa.entry(i, d)
            if p_add:
                nxt[mask | my_bit] = nxt.get(mask | my_bit, 0.0) + prob * p_add
            if p_skip:
                nxt[mask] = nxt.get(mask, 0.0) + prob * p_skip
            if p_rep:
                nxt[my_bit] = nxt.get(my_bit, 0.0) + prob * p_rep
        states = nxt
        masses.append(_collect_mass(states, i))
    return sequence_from_masses(masses)


def _collect_mass(states: dict[int, float], i: int) -> np.ndarray:
    """Aggregate set probabilities into an XDD, checking uniformity."""
    by_degree: dict[int, list[float]] = {}
    for mask, prob in states.items():
        by_degree.setdefault(mask.bit_count(), []).append(prob)
    mass = np.zeros(i)
    for d in range(1, i + 1):
        probs = by_degree.get(d, [])
        n_sets = math.comb(i, d)
        total = math.fsum(probs)
        if probs:
            lo, hi = min(probs), max(probs)
            if hi - lo > UNIFORMITY_TOL:
                raise UniformityError(
                    f"size-{d} sets at hop {i} span probabilities [{lo}, {hi}]")
            # Sets never generated carry probability 0; they count too.
            if len(probs) < n_sets and hi > UNIFORMITY_TOL:
                raise UniformityError(
                    f"only {len(probs)}/{n_sets} size-{d} sets reachable at hop {i} "
                    f"with probability {hi}")
        mass[d - 1] = total
    return mass


# ---------------------------------------------------------------------------
# APA file format: {"K": int, "p": [[[pA,pS,pR], ...], ...]} where p[i-1]
# lists the triples for hop i (hop 1 has the single degree-0 triple) and
# unreachable entries are null.

def apa_to_json(apa: Apa) -> str:
    hops = []
    for arr in apa.triples:
        rows = ["null" if math.isnan(p_add) else
                "[%.17g, %.17g, %.17g]" % (p_add, p_skip, p_rep)
                for p_add, p_skip, p_rep in arr.tolist()]
        hops.append("[" + ", ".join(rows) + "]")
    body = ",\n    ".join(hops)
    return '{\n  "K": %d,\n  "p": [\n    %s\n  ]\n}\n' % (apa.K, body)


def apa_from_json(text: str) -> Apa:
    with malformed("APA document"):
        doc = json.loads(text)
        K = int(doc["K"])
        triples = tuple(np.array([[math.nan] * 3 if row is None else row for row in hop],
                                 dtype=float) for hop in doc["p"])
    return Apa(K, triples)


def write_apa(apa: Apa, path) -> None:
    _atomic_write_bytes(path, apa_to_json(apa).encode("utf-8"))


def read_apa(path) -> Apa:
    return apa_from_json(read_text(path, "APA document"))
