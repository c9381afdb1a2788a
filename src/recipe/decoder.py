"""Destination-side decoding: hash replay and incremental peeling.

The destination never receives XOR-set descriptions; it reconstructs them.
For every packet it recomputes the same keyed hash values the switches
used, replays their Add/Skip/Replace decisions, and thereby learns exactly
which hop indices are XORed into the delivered codeword.  Codewords then
feed an incremental peeling decoder: any codeword reduced to a single
unknown member resolves that hop and cascades.

XOR-sets are carried as integer bitmasks (bit h-1 set means hop h is in
the set) at every boundary.

The per-hop rules replayed here are those of the protocol objects in
`recipe.protocol`: `replay_xor_mask` calls one object's `replay`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

from .errors import DataCorruptionError, RangeError
# Unused here, but bench/ reads the protocol classes under these names on
# this module, and bench/tracing.py patches row_select here.
from .protocol import (  # noqa: F401
    PintScheme as PintMode,
    RecipeDScheme as RecipeDMode,
    RecipeTScheme as RecipeTMode,
    row_select,
)


def replay_xor_mask(packet_id: int, k: int, mode) -> int:
    """Reconstruct the XOR-set (as a bitmask) of one delivered codeword.

    Packet ids are taken mod 2^64, as the switches' hash takes them.
    """
    return mode.replay(packet_id, k)


class ReceivedCodeword(NamedTuple):
    """One delivered codeword with its reconstructed XOR-set as an int
    bitmask (bit h-1 = hop h).  A named tuple: one is built per delivered
    packet, at about half the cost of a frozen dataclass."""

    packet_id: int
    path_length: int
    codeword: int
    xor_set: int


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
        self._resolved_mask = 0  # bit h-1 set once hop h is in `resolved`
        self._by_bit: dict[int, list] = {}  # bit -> pending [mask, value] entries
        self._n_pending = 0

    @property
    def complete(self) -> bool:
        return self._resolved_mask == (1 << self.k) - 1

    def pending_count(self) -> int:
        return self._n_pending

    def absorb(self, codewords) -> int:
        """Insert (mask, value) pairs in order until all k hops resolve;
        return how many were consumed (all of them if decoding did not
        finish).  Every consumed codeword counts, useless ones included:
        each cost a delivered packet."""
        used = 0
        full = (1 << self.k) - 1
        for mask, value in codewords:
            self.insert(mask, value)
            used += 1
            if self._resolved_mask == full:
                break
        return used

    def insert(self, mask: int, value: int) -> list[int]:
        """Absorb one codeword; return hops newly resolved (cascades included)."""
        known = mask & self._resolved_mask
        if known:
            mask ^= known
            while known:
                low = known & -known
                value ^= self.resolved[low.bit_length()]
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
            hop = bit.bit_length()
            if bit & self._resolved_mask:
                if value != self.resolved[hop]:
                    raise DataCorruptionError(f"hop {hop} resolved to two different values")
                continue
            self._resolved_mask |= bit
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


def _masks_and_values(codewords, k: int):
    """(xor_set, codeword) of each codeword, refusing one of another path
    length than k or whose XOR-set names a hop outside 1..k."""
    for cw in codewords:
        if cw.path_length != k:
            raise RangeError(
                f"codeword for path length {cw.path_length} fed to a k={k} decoder")
        if cw.xor_set >> k:  # also true of every negative mask
            raise RangeError(f"XOR-set {cw.xor_set} names a hop outside 1..{k}")
        yield cw.xor_set, cw.codeword


def peel_insert(state: PeelingState, cw: ReceivedCodeword) -> list[int]:
    """Insert one received codeword; return the list of newly resolved hops."""
    [(mask, value)] = _masks_and_values((cw,), state.k)
    return state.insert(mask, value)


@dataclass
class DecodeResult:
    """Outcome of streaming codewords into the peeler for one instance."""

    resolved: dict[int, int]
    used: int
    complete: bool


def decode_stream(codewords, k: int, limit: int | None = None) -> DecodeResult:
    """Consume codewords in arrival order until all k hops resolve.

    `used` counts every consumed codeword, including duplicates and empty
    ones: they cost a delivered packet whether or not they help.  At most
    `limit` codewords are taken from the stream.  If the stream (or
    `limit`) is exhausted first, the partial map is returned with
    complete=False; the caller decides what to make of that.
    """
    state = PeelingState(k)
    used = state.absorb(_masks_and_values(islice(codewords, limit), k))
    return DecodeResult(state.resolved, used, state.complete)
