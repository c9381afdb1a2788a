"""Destination-side decoding: hash replay and incremental peeling.

The destination never receives XOR-set descriptions; it reconstructs them.
For every packet it recomputes the same keyed hash values the switches
used, replays their Add/Skip/Replace decisions, and thereby learns exactly
which hop indices are XORed into the delivered codeword.  Codewords then
feed an incremental peeling decoder: any codeword reduced to a single
unknown member resolves that hop and cascades.

XOR-sets are carried as integer bitmasks (bit h-1 set means hop h is in
the set); helpers convert to and from explicit hop sets at the API edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .distributions import PintParams
from .errors import ConfigurationError, DataCorruptionError, RangeError
from .feasibility import Apa
from .protocol import (
    ADD,
    REPLACE,
    Avst,
    GlobalHash,
    _choose_action,
    hash_uniform,
    row_select,
)

# Hash domain layout: hop 0 carries per-packet branch decisions (PINT
# mixture), hops >= 1 carry per-switch decisions.
PINT_BRANCH_HOP = 0


@dataclass(frozen=True)
class RecipeDMode:
    """Decode context for degree-based encoding: the APA and shared key."""

    apa: Apa
    gh: GlobalHash


@dataclass(frozen=True)
class RecipeTMode:
    """Decode context for table-based encoding: the table and shared key."""

    avst: Avst
    gh: GlobalHash

    def require_matches(self, apa: Apa) -> None:
        self.avst.verify_digest(apa)


@dataclass(frozen=True)
class PintMode:
    """Decode context for the PINT baseline: mixture parameters and key."""

    params: PintParams
    gh: GlobalHash


def mask_from_hops(hops) -> int:
    mask = 0
    for h in hops:
        mask |= 1 << (h - 1)
    return mask


def hops_from_mask(mask: int) -> frozenset[int]:
    hops = []
    while mask:
        low = mask & -mask
        hops.append(low.bit_length())
        mask ^= low
    return frozenset(hops)


def replay_xor_mask(packet_id: int, k: int, mode) -> int:
    """Reconstruct the XOR-set (as a bitmask) of one delivered codeword."""
    if isinstance(mode, RecipeDMode):
        if k > mode.apa.K:
            raise RangeError(f"path length {k} beyond diameter {mode.apa.K}")
        mask, d = 0, 0
        for i in range(1, k + 1):
            triple = (0.0, 0.0, 1.0) if i == 1 else mode.apa.entry(i, d)
            nu = hash_uniform(mode.gh, i, packet_id)
            action = _choose_action(triple, nu)
            if action == ADD:
                mask |= 1 << (i - 1)
                d += 1
            elif action == REPLACE:
                mask = 1 << (i - 1)
                d = 1
        return mask
    if isinstance(mode, RecipeTMode):
        if k > mode.avst.K:
            raise RangeError(f"path length {k} beyond diameter {mode.avst.K}")
        row = mode.avst.rows[row_select(mode.gh, packet_id, mode.avst.L)]
        mask = 0
        for i in range(1, k + 1):
            action = int(row[i - 1])
            if action == ADD:
                mask |= 1 << (i - 1)
            elif action == REPLACE:
                mask = 1 << (i - 1)
        return mask
    if isinstance(mode, PintMode):
        branch = hash_uniform(mode.gh, PINT_BRANCH_HOP, packet_id)
        if branch < mode.params.alpha:
            # Reservoir sampling: hop i overwrites with probability 1/i.
            keep = 1
            for i in range(2, k + 1):
                if hash_uniform(mode.gh, i, packet_id) < 1.0 / i:
                    keep = i
            return 1 << (keep - 1)
        mask = 0
        for i in range(1, k + 1):
            if hash_uniform(mode.gh, i, packet_id) < mode.params.p:
                mask |= 1 << (i - 1)
        return mask  # may be empty: no switch flipped its coin
    raise ConfigurationError(f"unknown decode mode {mode!r}")


def replay_xor_set(packet_id: int, k: int, mode) -> frozenset[int]:
    """The hop indices XORed into the codeword of one delivered packet."""
    return hops_from_mask(replay_xor_mask(packet_id, k, mode))


@dataclass(frozen=True)
class ReceivedCodeword:
    """One delivered codeword with its reconstructed XOR-set.

    xor_set may be given as an int bitmask or any iterable of hop indices.
    """

    packet_id: int
    path_length: int
    codeword: int
    xor_set: object

    def mask(self) -> int:
        xs = self.xor_set
        return xs if isinstance(xs, int) else mask_from_hops(xs)


class PeelingState:
    """Incremental peeling over one coding instance of path length k.

    Pending codewords always store their value with already-resolved
    members subtracted out.  Resolution never un-happens; inconsistent
    re-resolution raises, because in a correct pipeline it cannot occur.

    Each pending codeword is a shared [mask, value] entry listed under
    every one of its unknown bits.  A bit's list is consumed when the bit
    resolves; an entry that drops to one unknown member is retired by
    zeroing its mask, so the lists of its other bits skip it later.
    """

    def __init__(self, k: int):
        if k < 1:
            raise RangeError(f"path length must be positive, got k={k}")
        self.k = k
        self.resolved: dict[int, int] = {}  # hop -> value
        self._resolved_mask = 0
        self._value_by_bit: dict[int, int] = {}
        self._by_bit: dict[int, list] = {}  # bit -> pending [mask, value] entries
        self._n_pending = 0

    @property
    def complete(self) -> bool:
        return len(self.resolved) == self.k

    def pending_count(self) -> int:
        return self._n_pending

    def insert(self, mask: int, value: int) -> list[int]:
        """Absorb one codeword; return hops newly resolved (cascades included)."""
        known = mask & self._resolved_mask
        if known:
            mask ^= known
            while known:
                low = known & -known
                value ^= self._value_by_bit[low]
                known ^= low
        if mask == 0:
            if value != 0:
                raise DataCorruptionError(
                    "codeword reduced to the empty set with nonzero value")
            return []
        if mask & (mask - 1):  # more than one unknown member: park it
            entry = [mask, value]
            self._n_pending += 1
            by_bit = self._by_bit
            while mask:
                low = mask & -mask
                entries = by_bit.get(low)
                if entries is None:
                    by_bit[low] = [entry]
                else:
                    entries.append(entry)
                mask ^= low
            return []
        return self._resolve_cascade(mask, value)

    def _resolve_cascade(self, bit: int, value: int) -> list[int]:
        newly = []
        queue = [(bit, value)]
        while queue:
            bit, value = queue.pop()
            if bit & self._resolved_mask:
                if value != self._value_by_bit[bit]:
                    raise DataCorruptionError(
                        f"hop {bit.bit_length()} resolved to two different values")
                continue
            self._resolved_mask |= bit
            self._value_by_bit[bit] = value
            hop = bit.bit_length()
            self.resolved[hop] = value
            newly.append(hop)
            for entry in self._by_bit.pop(bit, ()):
                m = entry[0]
                if not m & bit:  # retired earlier
                    continue
                m ^= bit
                if m & (m - 1):
                    entry[0] = m
                    entry[1] ^= value
                    continue
                entry[0] = 0
                self._n_pending -= 1
                queue.append((m, entry[1] ^ value))
        return newly


def peel_insert(state: PeelingState, cw: ReceivedCodeword) -> list[int]:
    """Insert one received codeword; return the list of newly resolved hops."""
    if cw.path_length != state.k:
        raise RangeError(
            f"codeword for path length {cw.path_length} fed to a k={state.k} decoder")
    return state.insert(cw.mask(), cw.codeword)


@dataclass
class DecodeResult:
    """Outcome of streaming codewords into the peeler for one instance."""

    resolved: dict[int, int]
    used: int
    complete: bool
    state: PeelingState = field(repr=False, default=None)


def decode_stream(codewords, k: int, limit: int | None = None) -> DecodeResult:
    """Consume codewords in arrival order until all k hops resolve.

    `used` counts every consumed codeword, including duplicates and empty
    ones: they cost a delivered packet whether or not they help.  If the
    stream (or `limit`) is exhausted first, the partial map is returned
    with complete=False; the caller decides what to make of that.
    """
    state = PeelingState(k)
    used = 0
    for cw in codewords:
        if limit is not None and used >= limit:
            break
        peel_insert(state, cw)
        used += 1
        if state.complete:
            return DecodeResult(dict(state.resolved), used, True, state)
    return DecodeResult(dict(state.resolved), used, False, state)
