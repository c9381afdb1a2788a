"""XOR degree distributions (XDDs), XDD sequences, and stable combinatorics.

An LT codeword is the XOR of a uniformly random size-d subset of the first
i message blocks; the distribution of d is the XDD mu_i.  Under that
uniformity, the probability of any one specific size-d subset is

    q_i(d) = mu_i(d) / C(i, d),

which is the quantity all the feasibility algebra is written in.  Because
C(i, d) is astronomically large for network-diameter-sized i, probabilities
are stored in mu-space and q-values are only ever formed through exact
ratio identities or log-space binomials.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import RangeError, RecipeError, SequenceValidationError

# Normalization tolerances: constructed distributions must sum to 1 much
# more tightly than ones re-read from decimal text.
SUM_TOL = 1e-12
SUM_TOL_FILE = 1e-9

# Largest binomial that fits a double exactly; below this mu/C is computed
# by direct division, above it in log space.
_EXACT_COMB_LIMIT = 2**53


def binomial_log(n: int, r: int) -> float:
    """Return ln C(n, r) via log-gamma.

    Stays finite for n in the hundreds where C(n, r) itself overflows any
    fixed-width integer.  Exact to ~1e-15 relative when exponentiated.
    """
    if r < 0 or n < 0 or r > n:
        raise RangeError(f"binomial_log requires 0 <= r <= n, got n={n}, r={r}")
    return math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)


@dataclass(frozen=True)
class Xdd:
    """XOR degree distribution over degrees 1..k for one path length.

    mass[d-1] is the probability of XOR degree d.  Degrees are 1-based
    everywhere; degree 0 never appears here (the binomial baseline handles
    its own empty-codeword mass before constructing an Xdd).
    """

    k: int
    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=float)
        mass.flags.writeable = False
        object.__setattr__(self, "mass", mass)
        if self.k < 1:
            raise RangeError(f"block size must be positive, got k={self.k}")
        issues = validate_xdd((self.k, self.mass))
        if issues:
            raise SequenceValidationError(f"invalid XDD (k={self.k}): " + "; ".join(issues))

    def mu(self, d: int) -> float:
        if not 1 <= d <= self.k:
            raise RangeError(f"degree {d} outside 1..{self.k}")
        return float(self.mass[d - 1])


def validate_xdd(pair, tol: float = SUM_TOL) -> list[str]:
    """Report every invariant violation of a raw (k, mass) pair; empty list
    iff valid, so candidate vectors can be checked before construction."""
    k, mass = pair
    mass = np.asarray(mass, dtype=float)
    issues = []
    if len(mass) != k:
        issues.append(f"mass has {len(mass)} entries, expected k={k}")
        return issues
    finite = np.isfinite(mass)
    for idx in np.nonzero(~finite)[0]:
        issues.append(f"non-finite mass at d={idx + 1}")
    for idx in np.nonzero(finite & (mass < 0.0))[0]:
        issues.append(f"negativity violation at d={idx + 1} (mass={mass[idx]!r})")
    for idx in np.nonzero(finite & (mass > 1.0 + tol))[0]:
        issues.append(f"mass above 1 at d={idx + 1} (mass={mass[idx]!r})")
    total = float(np.sum(mass))
    if abs(total - 1.0) > tol:
        issues.append(f"sum violation at {total!r}")
    return issues


def q_from_mu(m: float, n: int, d: int) -> float:
    """m / C(n, d): exact integer division while C(n, d) fits a double
    exactly, a log-space binomial beyond that, so no intermediate overflows."""
    c = math.comb(n, d)
    if c <= _EXACT_COMB_LIMIT:
        return m / c
    return m * math.exp(-binomial_log(n, d))


@dataclass(frozen=True)
class XddSequence:
    """One XDD per possible path length 1..K; the object defining a code.

    xdds[i-1] has block size i.  mu_1 is always the point mass on degree 1
    because the first switch always replaces the empty codeword.
    """

    K: int
    xdds: tuple[Xdd, ...]

    def __post_init__(self):
        object.__setattr__(self, "xdds", tuple(self.xdds))
        if self.K < 1:
            raise RangeError(f"diameter must be positive, got K={self.K}")
        if len(self.xdds) != self.K:
            raise SequenceValidationError(
                f"sequence has {len(self.xdds)} XDDs, expected K={self.K}")
        for i, xdd in enumerate(self.xdds, start=1):
            if xdd.k != i:
                raise SequenceValidationError(
                    f"xdds[{i}] has block size {xdd.k}, expected {i}")

    def xdd(self, i: int) -> Xdd:
        """The XDD for path length i (1-based)."""
        if not 1 <= i <= self.K:
            raise RangeError(f"path length {i} outside 1..{self.K}")
        return self.xdds[i - 1]


def sequence_from_masses(masses) -> XddSequence:
    """Build a sequence from raw per-hop mass vectors (masses[i-1] has length i)."""
    xdds = tuple(Xdd(i, m) for i, m in enumerate(masses, start=1))
    return XddSequence(len(xdds), xdds)


@contextmanager
def malformed(what: str):
    """Guard the parsing of a text input artifact: any failure to read its
    structure (not JSON, a missing key, a value of the wrong type or
    shape) is raised as a SequenceValidationError naming `what`, so the
    CLI reports it with exit 2 instead of a traceback.  A RecipeError
    passes through unchanged."""
    try:
        yield
    except RecipeError:
        raise
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        raise SequenceValidationError(f"malformed {what}: {exc}") from exc


def read_text(path, what: str) -> str:
    """The text of the input artifact at `path`; bytes that are not UTF-8
    make it a malformed `what` (see `malformed`)."""
    with open(path, "r", encoding="utf-8") as fh, malformed(what):
        return fh.read()


# ---------------------------------------------------------------------------
# Sequence file format: {"K": int, "mu": [[...], ...]} where mu[i-1] is the
# length-i mass vector for path length i.  Writers emit 17 significant
# digits so that decimal text round-trips every double exactly.

def sequence_to_json(seq: XddSequence) -> str:
    rows = []
    for xdd in seq.xdds:
        rows.append("[" + ", ".join(format(v, ".17g") for v in xdd.mass.tolist()) + "]")
    body = ",\n    ".join(rows)
    return '{\n  "K": %d,\n  "mu": [\n    %s\n  ]\n}\n' % (seq.K, body)


def sequence_from_json(text: str) -> XddSequence:
    with malformed("sequence document"):
        doc = json.loads(text)
        K = int(doc["K"])
        mu = doc["mu"]
        if len(mu) != K:
            raise SequenceValidationError(f"document K={K} but {len(mu)} mass vectors")
        xdds = []
        for i, row in enumerate(mu, start=1):
            issues = validate_xdd((i, row), tol=SUM_TOL_FILE)
            if issues:
                raise SequenceValidationError(f"mu[{i}]: " + "; ".join(issues))
            # Renormalize text-roundtrip drift so downstream code sees the
            # constructed-distribution tolerance again.
            mass = np.asarray(row, dtype=float)
            xdds.append(Xdd(i, mass / mass.sum()))
    return XddSequence(K, tuple(xdds))


# ---------------------------------------------------------------------------
# Single-XDD file format: {"k": int, "mu": [...]}, one length-k mass vector
# (a final-hop XDD to expand, or to start a search from).  The reader
# accepts what the sequence reader accepts, but renormalizes only a sum
# outside the constructed-distribution tolerance, so a file that already
# meets it is read back bit for bit.

def xdd_to_json(xdd: Xdd) -> str:
    return json.dumps({"k": xdd.k, "mu": [float(v) for v in xdd.mass]}) + "\n"


def xdd_from_json(text: str) -> Xdd:
    with malformed("single-XDD document"):
        doc = json.loads(text)
        k = int(doc["k"])
        mu = doc["mu"]
        issues = validate_xdd((k, mu), tol=SUM_TOL_FILE)
        if issues:
            raise SequenceValidationError(f"invalid XDD (k={k}): " + "; ".join(issues))
        mass = np.asarray(mu, dtype=float)
    total = mass.sum()
    return Xdd(k, mass if abs(total - 1.0) <= SUM_TOL else mass / total)


def read_xdd(path) -> Xdd:
    return xdd_from_json(read_text(path, "single-XDD document"))


def write_sequence(seq: XddSequence, path) -> None:
    _atomic_write_bytes(path, sequence_to_json(seq).encode("utf-8"))


def read_sequence(path) -> XddSequence:
    return sequence_from_json(read_text(path, "sequence document"))


def _atomic_write_bytes(path, blob: bytes) -> None:
    """Write-then-rename so readers never observe a partial file."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)
