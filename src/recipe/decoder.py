"""Destination-side decoding: hash replay and incremental peeling.

The destination never receives XOR-set descriptions; it reconstructs them.
For every packet it recomputes the same keyed hash values the switches
used, replays their Add/Skip/Replace decisions, and thereby learns exactly
which hop indices are XORed into the delivered codeword.  Codewords then
feed an incremental peeling decoder: any codeword reduced to a single
unknown member resolves that hop and cascades.

XOR-sets are carried as integer bitmasks (bit h-1 set means hop h is in
the set); `hops_from_mask` turns one into hop indices for display.

The protocol classes live here too, one per protocol: the destination's
replay and the evaluation's batch encoder are two methods of one object,
so both always apply the same artifact under the same key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .distributions import PintParams
from .errors import ConfigurationError, DataCorruptionError, ProtocolError, RangeError
from .feasibility import Apa
from .protocol import (
    _MASK64,
    ADD,
    REPLACE,
    Avst,
    GlobalHash,
    _top53,
    hash_uniform_array,
    hop_keys,
    masks_from_members,
    pint_actions,
    recipe_d_actions,
    recipe_d_thresholds,
    row_select,
    row_select_array,
    xor_members,
)

# ---------------------------------------------------------------------------
# Protocols: one frozen object each, holding the artifact (APA, table or
# PINT parameters), the network key `gh`, a `label` and the diameter `K`.
# `seed` takes the key as an int or a GlobalHash and is kept as the int.
# Each object gives two views of the same per-hop rule:
#   actions(k, pids) -> uint8[n, k], the Skip/Add/Replace code every hop of
#     a length-k path applies to each of many packets: the batch encoder
#     the evaluation runs, from which `xor_members` reads XOR-sets,
#     codeword values and degrees;
#   replay(packet_id, k) -> int, one packet's XOR-set as a bitmask: the
#     destination's replay.  Measured for recipe-d at K=59 (2-CPU host,
#     best of 3): one packet costs 10 us by replay at k=10 and 15 us at
#     k=59, but 0.18 and 1.1 ms by the kernel, whose numpy calls per hop
#     carry a fixed cost; on blocks of 4000 packets the kernel costs 0.12
#     and 0.75 us a packet, 80 and 20 times less than replay.


class _Protocol:
    def _set_key(self) -> None:
        gh = self.seed if isinstance(self.seed, GlobalHash) else GlobalHash(self.seed)
        object.__setattr__(self, "seed", gh.seed)
        object.__setattr__(self, "gh", gh)

    def _check_length(self, k: int) -> None:
        if k < 1:
            raise RangeError(f"path length must be positive, got k={k}")
        if k > self.K:
            raise RangeError(f"path length {k} beyond diameter {self.K}")

    def decode_mode(self):
        """The destination's view, which is the object itself."""
        return self

    def generate_masks(self, k: int, pids: np.ndarray) -> list[int]:
        """XOR-set bitmask (bit h-1 = hop h) of each packet's codeword."""
        return masks_from_members(xor_members(self.actions(k, pids)))


@dataclass(frozen=True)
class RecipeDScheme(_Protocol):
    """Degree-based protocol: every switch applies the APA entry for the
    packet's hop and current degree, drawn by nu = h(hop, packet).

    Construction builds the walk's integer threshold tables
    (`recipe_d_thresholds`) once: the batch kernel reads them as arrays,
    replay as Python ints, each hop's with its bit and hash key.
    """

    apa: Apa
    seed: int = 0
    label: str = "recipe-d"
    gh: GlobalHash = field(init=False, repr=False, compare=False)
    _tables: tuple = field(init=False, repr=False, compare=False)
    _keys: np.ndarray = field(init=False, repr=False, compare=False)
    _walk: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._set_key()
        tables = recipe_d_thresholds(self.apa)
        add, add_rep, _ = tables
        object.__setattr__(self, "_tables", tables)
        object.__setattr__(self, "_keys",
                           hop_keys(self.gh, np.arange(1, self.K + 1, dtype=np.uint64)))
        object.__setattr__(self, "_walk", [(1 << h, a.tolist(), r.tolist())
                                           for h, (a, r) in enumerate(zip(add, add_rep))])

    @property
    def K(self) -> int:
        return self.apa.K

    def actions(self, k: int, pids: np.ndarray) -> np.ndarray:
        self._check_length(k)
        return recipe_d_actions(self._tables, self.gh, k, pids)

    def replay(self, packet_id: int, k: int) -> int:
        """The degree walk of `step_recipe_d` over hops 1..k of one packet,
        with every hop's draw hashed in one pass over the hop keys."""
        self._check_length(k)
        ys = _top53(self._keys[:k] ^ np.uint64(packet_id & _MASK64)).tolist()
        mask, d = 0, 0
        for y, (bit, add, add_rep) in zip(ys, self._walk):
            threshold = add[d]
            if y < threshold:
                mask |= bit
                d += 1
            elif y < add_rep[d]:
                mask = bit
                d = 1
            elif threshold < 0:  # unreachable: both comparisons were false
                raise ProtocolError(
                    f"unreachable APA entry consulted at (i={bit.bit_length()}, d={d})")
        return mask


@dataclass(frozen=True)
class RecipeTScheme(_Protocol):
    """Table-based protocol: the same table at every switch, its row picked
    per packet by the salt-separated hash.  The table is used as given:
    nothing checks it against the APA it was sampled from."""

    avst: Avst
    seed: int = 0
    label: str | None = None
    gh: GlobalHash = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._set_key()
        if self.label is None:
            object.__setattr__(self, "label", f"recipe-t:L={self.avst.L}")

    @property
    def K(self) -> int:
        return self.avst.K

    def actions(self, k: int, pids: np.ndarray) -> np.ndarray:
        self._check_length(k)
        return self.avst.rows[row_select_array(self.gh, pids, self.avst.L), :k]

    def replay(self, packet_id: int, k: int) -> int:
        """Hops 1..k of the packet's table row: no per-hop draw."""
        self._check_length(k)
        row = self.avst.rows[row_select(self.gh, packet_id, self.avst.L), :k]
        mask = 0
        for h, action in enumerate(row.tolist()):
            if action == ADD:
                mask |= 1 << h
            elif action == REPLACE:
                mask = 1 << h
        return mask


@dataclass(frozen=True)
class PintScheme(_Protocol):
    """PINT baseline: with probability alpha the packet carries the
    reservoir-sampled single hop, otherwise every hop XORs in with
    probability p.  The binomial branch can deliver an empty codeword,
    which counts like any delivered packet: a switch really did flip a
    coin for it.  The protocol needs no diameter; K only bounds k."""

    params: PintParams
    seed: int = 0
    K: int = 2**31
    label: str | None = None
    gh: GlobalHash = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._set_key()
        if self.label is None:
            object.__setattr__(
                self, "label", f"pint:a={self.params.alpha:g};p={self.params.p:g}")

    def actions(self, k: int, pids: np.ndarray) -> np.ndarray:
        self._check_length(k)
        return pint_actions(self.params.alpha, self.params.p, self.gh, k, pids)

    def replay(self, packet_id: int, k: int) -> int:
        """Hash the branch hop 0 and hops 1..k in one call.  Reservoir
        branch: the last hop i with u_i < 1/i holds the slot (hop 1 always
        qualifies).  Binomial branch: every hop with u_i < p, possibly none."""
        self._check_length(k)
        hops = np.arange(k + 1, dtype=np.uint64)
        u = hash_uniform_array(self.gh, hops, packet_id & _MASK64)
        if u[0] < self.params.alpha:
            hits = _pack_bits(u[1:] < 1.0 / hops[1:])
            return 1 << (hits.bit_length() - 1)
        return _pack_bits(u[1:] < self.params.p)


# The destination-side names of the same classes.
RecipeDMode = RecipeDScheme
RecipeTMode = RecipeTScheme
PintMode = PintScheme


def _pack_bits(flags: np.ndarray) -> int:
    """A bool vector as an int bitmask, flags[h] -> bit h.

    The one-row case of `masks_from_members`, without its word padding and
    fold, which cost about ten times as much for a single row.
    """
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def hops_from_mask(mask: int) -> frozenset[int]:
    hops = []
    while mask:
        low = mask & -mask
        hops.append(low.bit_length())
        mask ^= low
    return frozenset(hops)


def replay_xor_mask(packet_id: int, k: int, mode) -> int:
    """Reconstruct the XOR-set (as a bitmask) of one delivered codeword.

    Packet ids are taken mod 2^64, as the switches' hash takes them.
    """
    try:
        replay = mode.replay
    except AttributeError:
        raise ConfigurationError(f"unknown decode mode {mode!r}") from None
    return replay(packet_id, k)


def replay_xor_set(packet_id: int, k: int, mode) -> frozenset[int]:
    """The hop indices XORed into the codeword of one delivered packet."""
    return hops_from_mask(replay_xor_mask(packet_id, k, mode))


@dataclass(frozen=True)
class ReceivedCodeword:
    """One delivered codeword with its reconstructed XOR-set as an int
    bitmask (bit h-1 = hop h)."""

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
        self._resolved_mask = 0
        self._value_by_bit: dict[int, int] = {}
        self._by_bit: dict[int, list] = {}  # bit -> pending [mask, value] entries
        self._n_pending = 0

    @property
    def complete(self) -> bool:
        return len(self.resolved) == self.k

    def pending_count(self) -> int:
        return self._n_pending

    def absorb(self, codewords) -> int:
        """Insert (mask, value) pairs in order until all k hops resolve;
        return how many were consumed (all of them if decoding did not
        finish).  Every consumed codeword counts, useless ones included:
        each cost a delivered packet."""
        used = 0
        for mask, value in codewords:
            self.insert(mask, value)
            used += 1
            if len(self.resolved) == self.k:
                break
        return used

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


def _checked_mask(state: PeelingState, cw: ReceivedCodeword) -> int:
    if cw.path_length != state.k:
        raise RangeError(
            f"codeword for path length {cw.path_length} fed to a k={state.k} decoder")
    return cw.xor_set


def peel_insert(state: PeelingState, cw: ReceivedCodeword) -> list[int]:
    """Insert one received codeword; return the list of newly resolved hops."""
    return state.insert(_checked_mask(state, cw), cw.codeword)


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
    used = state.absorb((_checked_mask(state, cw), cw.codeword)
                        for cw in islice(codewords, limit))
    return DecodeResult(state.resolved, used, state.complete)
