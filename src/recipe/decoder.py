"""Destination-side decoding: hash replay and incremental peeling.

The destination never receives XOR-set descriptions; it reconstructs them.
For every packet it recomputes the same keyed hash values the switches
used, replays their Add/Skip/Replace decisions, and thereby learns exactly
which hop indices are XORed into the delivered codeword.  Codewords then
feed an incremental peeling decoder: any codeword reduced to a single
unknown member resolves that hop and cascades.

XOR-sets are carried as integer bitmasks (bit h-1 set means hop h is in
the set); helpers convert to and from explicit hop sets at the API edge.

The protocol classes live here too, one per protocol: the destination's
replay and the evaluation's batch encoder are two methods of one object,
so both always apply the same artifact under the same key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    hash_uniform_array,
    masks_from_members,
    pint_actions,
    recipe_d_actions,
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
#     destination's replay.  For a single packet the batch kernel's numpy
#     calls per hop cost 10-100 times this scalar walk; for thousands of
#     packets the walk costs about 10 times the kernel.


class _Protocol:
    def _set_key(self) -> None:
        gh = self.seed if isinstance(self.seed, GlobalHash) else GlobalHash(self.seed)
        object.__setattr__(self, "seed", gh.seed)
        object.__setattr__(self, "gh", gh)

    def _check_length(self, k: int) -> None:
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

    Construction flattens the APA into per-hop Python-float thresholds for
    replay: for hop i, p_add and p_add + p_replace indexed by incoming
    degree, with hop 1's fixed (0, 0, 1) row at degree 0 and NaN where the
    APA marks a state unreachable.
    """

    apa: Apa
    seed: int = 0
    label: str = "recipe-d"
    gh: GlobalHash = field(init=False, repr=False, compare=False)
    _hops: np.ndarray = field(init=False, repr=False, compare=False)
    _bits: list = field(init=False, repr=False, compare=False)
    _p_add: list = field(init=False, repr=False, compare=False)
    _p_add_rep: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._set_key()
        K = self.apa.K
        p_add, p_add_rep = [[0.0]], [[1.0]]
        for triples in self.apa.triples[1:]:
            p_add.append([np.nan] + triples[:, 0].tolist())
            p_add_rep.append([np.nan] + (triples[:, 0] + triples[:, 2]).tolist())
        object.__setattr__(self, "_hops", np.arange(1, K + 1, dtype=np.uint64))
        object.__setattr__(self, "_bits", [1 << (i - 1) for i in range(1, K + 1)])
        object.__setattr__(self, "_p_add", p_add)
        object.__setattr__(self, "_p_add_rep", p_add_rep)

    @property
    def K(self) -> int:
        return self.apa.K

    def actions(self, k: int, pids: np.ndarray) -> np.ndarray:
        self._check_length(k)
        return recipe_d_actions(self.apa, self.gh, k, pids)

    def replay(self, packet_id: int, k: int) -> int:
        """The degree walk of `step_recipe_d` over hops 1..k of one packet,
        with every hop's draw hashed in one call."""
        self._check_length(k)
        nus = hash_uniform_array(self.gh, self._hops[:max(k, 0)], packet_id & _MASK64)
        mask, d = 0, 0
        for bit, nu, p_add, p_add_rep in zip(self._bits, nus.tolist(),
                                             self._p_add, self._p_add_rep):
            threshold = p_add[d]
            if nu < threshold:
                mask |= bit
                d += 1
            elif nu < p_add_rep[d]:
                mask = bit
                d = 1
            elif threshold != threshold:  # NaN: both comparisons were false
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
        row = self.avst.rows[row_select(self.gh, packet_id, self.avst.L), :max(k, 0)]
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
        hops = np.arange(max(k, 0) + 1, dtype=np.uint64)
        u = hash_uniform_array(self.gh, hops, packet_id & _MASK64)
        if u[0] < self.params.alpha:
            hits = _pack_bits(u[1:] < 1.0 / hops[1:])
            return 1 << max(hits.bit_length() - 1, 0)
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
