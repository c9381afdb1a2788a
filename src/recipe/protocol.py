"""The stateless per-hop encoders, the protocol objects and the shared
keyed hash.

Two encoders realize a feasible code:

* the degree-based one keeps the codeword's current XOR degree in a small
  packet field and draws its action from the APA entry (hop, degree);
* the table-based one drops the degree field entirely: every switch stores
  the same precomputed table of action-vector samples, all switches on a
  path pick the same row by hashing the packet, and each executes its own
  hop's entry.

Both are driven by a network-wide keyed hash so that the destination can
replay every decision from the packet alone.  The hash is pinned bit-exactly
(a SplitMix64-style finalizer) because decoding correctness depends on every
box computing identical values.

Each protocol's rules live here once: beside the normative per-switch
steps, one object per protocol holds its artifact and key and gives the
rule's two fast views, the batch encoder and the destination's replay.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .distributions import PintParams
from .errors import ConfigurationError, ProtocolError, RangeError
from .feasibility import Apa
from .xdd import _atomic_write_bytes

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Domain separation: the row-selection hash g is the packet hash h keyed
# with seed XOR this constant.
ROW_SELECT_SALT = 0xC2B2AE3D27D4EB4F
# The same constants as 0-d uint64 arrays, for the vectorized hash: as ufunc
# operands they cost less per call than numpy scalars (about 0.2 us less on
# a 60-element array), with the same bits.
_U64_GOLDEN, _U64_MIX1, _U64_MIX2 = (np.array(c, dtype=np.uint64)
                                     for c in (_GOLDEN, _MIX1, _MIX2))
_U64_11, _U64_27, _U64_30, _U64_31 = (np.array(c, dtype=np.uint64) for c in (11, 27, 30, 31))
# Action codes and bool bytes as binary digits, Add and Replace both "1".
_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"011")

# Action codes, also the 2-bit on-disk encoding (3 is reserved).
SKIP, ADD, REPLACE = 0, 1, 2
ACTION_NAMES = {SKIP: "skip", ADD: "add", REPLACE: "replace"}

# Hash domain layout: hop 0 carries per-packet branch decisions (PINT
# mixture), hops >= 1 carry per-switch decisions.
PINT_BRANCH_HOP = 0

# Packet x hop cells that PintScheme.actions hashes per call: enough to amortize
# numpy's per-call cost, few enough that a slab's temporaries stay in cache.
_SLAB_CELLS = 1 << 16
# Table cells that generate_avst samples per call of the batch walk: the
# walk's per-packet temporaries stay a fraction of the table itself.
_AVST_BLOCK_CELLS = 1 << 20

AVST_MAGIC = b"AVST"
AVST_VERSION = 1


@dataclass(frozen=True)
class GlobalHash:
    """A 64-bit key shared by every switch and host in the network."""

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", self.seed & _MASK64)


def _mix64(x: int, lanes: int = _MASK64) -> int:
    """The 64-bit finalizer, on one word or on many packed in one int.

    `lanes` has ones in the bits of each word: `_MASK64` for one word, or
    the mask of `_pack`ed lanes, word i in bits [128i, 128i+64).  Masking
    after every shift and multiply keeps each word in its lane: a 64-bit
    product fits its 128-bit slot, so no lane carries into the next.
    """
    x &= lanes
    x = (x ^ x >> 30) & lanes
    x = x * _MIX1 & lanes
    x = (x ^ x >> 27) & lanes
    x = x * _MIX2 & lanes
    return (x ^ x >> 31) & lanes


def _pack(words) -> int:
    """The words, each in [0, 2^128), as one int: word i in the 128-bit lane
    [128i, 128i+128)."""
    return int.from_bytes(b"".join(w.to_bytes(16, "little") for w in words), "little")


def _lane_keys(keys: list[int]) -> tuple[int, int, int]:
    """(repeater, lane mask, packed keys) for hashing one packet at the
    hops of `keys` in one `_mix64` pass: (packet_id & _MASK64) * repeater
    ^ packed keys puts the packet id, XORed with hop i's key, in lane i."""
    rep = _pack([1] * len(keys))
    return rep, rep * _MASK64, _pack(keys)


def _below(thresholds) -> int:
    """Lanes 2^64 + (t << 11) - 1 for thresholds t in [0, 2^53] (`thresholds53`):
    lane i of `_below(t) - x`, for x lanes of 64-bit words, is nonnegative and
    below 2^65, so no borrow crosses a lane, and its bit 64 (the guard bit
    128i+64) is set exactly when x_i >> 11 < t_i, the compare y < t."""
    return _pack((1 << 64) + (t << 11) - 1 for t in thresholds)


def _guards(x: int, size: int) -> bytes:
    """Byte 8 of each of the `size // 16` lanes of x: its guard bit as 0 or 1."""
    return x.to_bytes(size, "little")[8::16]


def hash_uniform(gh: GlobalHash, hop: int, packet_id: int) -> float:
    """Deterministic uniform draw in [0, 1) from (key, hop, packet).

    x = seed XOR packet_id XOR hop*golden, then the 64-bit finalizer;
    the top 53 bits scaled by 2^-53 give the float.  Bit-exact on every
    platform, which is what lets the destination replay switch decisions.
    """
    x = gh.seed ^ (packet_id & _MASK64) ^ ((hop * _GOLDEN) & _MASK64)
    return (_mix64(x) >> 11) * 2.0**-53


def hash_uniform_array(gh: GlobalHash, hop, packet_ids) -> np.ndarray:
    """Vectorized hash_uniform, broadcast over hop and packet ids.

    Three forms: an int hop against a uint64 array of packet ids (one hop
    of many packets); a uint64 array of hops against one packet id, given
    as an int in [0, 2^64) (every hop of one packet); or a uint64 array of
    k hops against a uint64 block of ids of shape (n, k), such as a column
    of n ids broadcast across k hops (every hop of many packets).  The
    operands are arrays, whose integer arithmetic wraps mod 2^64 without a
    warning.
    """
    return _top53(np.asarray(packet_ids, dtype=np.uint64) ^ hop_keys(gh, hop)) * 2.0**-53


def hop_keys(gh: GlobalHash, hop) -> np.ndarray:
    """seed XOR hop*golden, the word a packet id is XORed with at `hop`
    (an int or a uint64 array of hops) before the finalizer."""
    if isinstance(hop, np.ndarray):
        return np.uint64(gh.seed) ^ (hop * _U64_GOLDEN)
    return np.uint64(gh.seed ^ ((hop * _GOLDEN) & _MASK64))


def _top53(x: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """The 64-bit finalizer of `_mix64`, in place on the uint64 array x,
    keeping the top 53 bits: the integer y that hash_uniform scales by
    2^-53.  tmp, scratch of x's shape, saves allocating one per call."""
    if tmp is None:
        tmp = np.empty_like(x)
    for shift, mul in ((_U64_30, _U64_MIX1), (_U64_27, _U64_MIX2)):
        np.right_shift(x, shift, out=tmp)
        x ^= tmp
        x *= mul
    np.right_shift(x, _U64_31, out=tmp)
    x ^= tmp
    x >>= _U64_11
    return x


def thresholds53(p: np.ndarray) -> np.ndarray:
    """The integer form of the compare u < p for a hashed u = y * 2^-53:
    u < p exactly when y < ceil(p * 2^53), since scaling by 2^53 is exact
    and y is an integer.  int64, with -1 (below every y) where p is NaN."""
    t = np.ceil(np.asarray(p, dtype=float) * 2.0**53)
    t[np.isnan(t)] = -1
    return t.astype(np.int64)


def row_select(gh: GlobalHash, packet_id: int, L: int) -> int:
    """Row index in [0, L) that every switch on the path agrees on.

    Depends only on the packet (hop is fixed at 0), through the
    salt-separated key, so all switches sample the same row.
    """
    if L < 1:
        raise RangeError(f"table must have at least one row, got L={L}")
    return _row_index(_row_key(gh), packet_id, L)


def _row_key(gh: GlobalHash) -> GlobalHash:
    return GlobalHash(gh.seed ^ ROW_SELECT_SALT)


def _row_index(row_key: GlobalHash, packet_id: int, L: int) -> int:
    return min(int(hash_uniform(row_key, 0, packet_id) * L), L - 1)


def row_select_array(gh: GlobalHash, packet_ids: np.ndarray, L: int) -> np.ndarray:
    u = hash_uniform_array(_row_key(gh), 0, packet_ids)
    return np.minimum((u * L).astype(np.int64), L - 1)


@dataclass(frozen=True)
class Packet:
    """What a switch sees: an id standing for the packet's invariant bytes,
    the hop count, the codeword in progress, and (degree-based mode only)
    the current XOR degree, which never exceeds the hop count and so fits
    in max(6, K.bit_length()) bits."""

    packet_id: int
    hop_count: int = 0
    codeword: int = 0
    degree_field: int = 0


def _choose_action(triple: tuple[float, float, float], nu: float) -> int:
    """Branch order is normative: add on [0, pA), replace on [pA, pA+pR)."""
    p_add, _p_skip, p_rep = triple
    if nu < p_add:
        return ADD
    if nu < p_add + p_rep:
        return REPLACE
    return SKIP


def _apply_action(action: int, codeword: int, degree: int, my_id: int) -> tuple[int, int]:
    """The (codeword, degree) a packet leaves a switch with."""
    if action == ADD:
        return codeword ^ my_id, degree + 1
    if action == REPLACE:
        return my_id, 1
    return codeword, degree


def step_recipe_d(pkt: Packet, my_id: int, apa: Apa, gh: GlobalHash) -> Packet:
    """One switch traversal in degree-based mode.

    Reads (hop, degree) from the packet, draws nu = h(hop, packet), applies
    the APA-tabulated action, and writes back the updated degree, codeword,
    and hop count.  Pure: no per-flow state anywhere.
    """
    i = pkt.hop_count + 1
    if i > apa.K:
        raise RangeError(f"hop {i} beyond diameter {apa.K}")
    d = pkt.degree_field
    triple = apa.entry(i, d)  # raises ProtocolError on an unreachable entry
    nu = hash_uniform(gh, i, pkt.packet_id)
    codeword, degree = _apply_action(_choose_action(triple, nu), pkt.codeword, d, my_id)
    return replace(pkt, hop_count=i, codeword=codeword, degree_field=degree)


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
#     destination's replay: one hash pass over the packet's hops, each hop
#     a 128-bit lane of one Python int (`_mix64`), read with the kernel's
#     thresholds (recipe-t hashes once, for its row, and reads the row's
#     bytes).  Each view is the fast one where it is used; README's
#     "Protocols and decoder" gives their costs.


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

    Construction builds the walk's per-hop integer thresholds
    (`thresholds53`) once: for each hop i, p_add and p_add + p_replace by
    incoming degree 0..i-1, the same floats `step_recipe_d` compares.  Hop
    1 holds its fixed (0, 0, 1) row at degree 0; degree 0 of later hops
    and the APA's unreachable rows hold -1.  The batch kernel reads the
    tables as arrays.  Replay, on first use, reads them as Python int
    lists shifted left by 11 to compare whole 64-bit hash words, with 2^53
    (above every draw) in place of an unreachable row's add_rep so that
    its Skip test fails.
    """

    apa: Apa
    seed: int = 0
    label: str = "recipe-d"
    gh: GlobalHash = field(init=False, repr=False, compare=False)
    # (add, add_rep, the set of hops that have an unreachable row)
    _tables: tuple = field(init=False, repr=False, compare=False)
    _keys: np.ndarray = field(init=False, repr=False, compare=False)
    # path length k -> replay's lane constants for hops 1..k
    _replays: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._set_key()
        add, add_rep, gaps = [], [], set()
        for i, triples in enumerate(self.apa.triples, 1):
            # Only hop 1 is entered at degree 0; later hops get a NaN row there.
            rows = triples if i == 1 else np.vstack([np.full(3, np.nan), triples])
            add.append(thresholds53(rows[:, 0]))
            add_rep.append(thresholds53(rows[:, 0] + rows[:, 2]))
            if np.isnan(triples[:, 0]).any():
                gaps.add(i)
        object.__setattr__(self, "_tables", (add, add_rep, frozenset(gaps)))
        object.__setattr__(self, "_keys",
                           hop_keys(self.gh, np.arange(1, self.K + 1, dtype=np.uint64)))
        object.__setattr__(self, "_replays", {})

    @cached_property
    def _walk(self) -> tuple[list, list, list]:
        """(add lists, add_rep lists, hop bits), one entry per hop."""
        add, add_rep, _ = self._tables
        return ([[t << 11 for t in a.tolist()] for a in add],
                [[t << 11 for t in np.where(a < 0, 1 << 53, r).tolist()]
                 for a, r in zip(add, add_rep)],
                [1 << h for h in range(self.K)])

    @property
    def K(self) -> int:
        return self.apa.K

    def actions(self, k: int, pids: np.ndarray) -> np.ndarray:
        """The action each of hops 1..k takes on each packet id, uint8[n, k].

        The degree-based walk of `step_recipe_d`, vectorized over packets
        in the hash's integer domain: every hop draws y = h(hop, packet) *
        2^53 and compares it with the threshold tables at the packet's
        current degree.  Raises ProtocolError if a packet reaches a state
        the APA marks unreachable.
        """
        self._check_length(k)
        add_t, add_rep_t, gaps = self._tables
        pids = np.asarray(pids, dtype=np.uint64)
        n = pids.size
        actions = np.empty((k, n), dtype=np.uint8)  # hop-major, transposed on return
        actions[0] = REPLACE  # the APA's fixed hop-1 row (0, 0, 1)
        degrees = np.ones(n, dtype=np.intp)
        x, tmp = np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64)
        y = x.view(np.int64)  # y < 2^53, so the signed view has the same value
        threshold = np.empty(n, dtype=np.int64)
        add, rep = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
        # Degrees stay within 1..i-1, inside hop i's tables, so take's "wrap"
        # never wraps; it is only cheaper than the default bounds check.
        for i in range(2, k + 1):
            np.bitwise_xor(pids, self._keys[i - 1], out=x)
            _top53(x, tmp)
            np.take(add_t[i - 1], degrees, out=threshold, mode="wrap")
            if i in gaps and threshold.min() < 0:
                raise ProtocolError(f"sampled an unreachable state at hop {i}")
            np.less(y, threshold, out=add)
            np.take(add_rep_t[i - 1], degrees, out=threshold, mode="wrap")
            np.less(y, threshold, out=rep)
            # add implies rep (p_add <= p_add + p_replace), so 2 rep - add is
            # ADD, REPLACE or SKIP, and rep ^ add marks the Replace hops.
            action = actions[i - 1]
            np.add(rep, rep, out=action, dtype=np.uint8)
            action -= add
            degrees += add
            rep ^= add
            np.putmask(degrees, rep, 1)
        return np.ascontiguousarray(actions.T)

    def __getstate__(self):
        # A Struct does not pickle; a copy builds its own per-k entries.
        return {**self.__dict__, "_replays": {}}

    def _replay_table(self, k: int) -> tuple:
        """`_lane_keys` of hops 1..k and the reader of their k words, for
        path length k, checked and built on its first use.  A Struct of its
        own per k, since `struct.unpack` would recompile every format once
        more than 100 are in use."""
        table = self._replays.get(k)
        if table is None:
            self._check_length(k)
            table = self._replays[k] = (*_lane_keys(self._keys[:k].tolist()),
                                        struct.Struct("<" + "Q8x" * k).unpack)
        return table

    def replay(self, packet_id: int, k: int) -> int:
        """The degree walk of `step_recipe_d` over hops 1..k of one packet,
        with every hop's draw hashed in one pass: the packet id in every
        lane, XORed with the hop keys, through the lane-wise finalizer."""
        rep, lanes, keys, unpack = self._replay_table(k)
        xs = unpack(_mix64((packet_id & _MASK64) * rep ^ keys, lanes).to_bytes(16 * k, "little"))
        mask, d = 0, 0
        for x, add, add_rep, bit in zip(xs, *self._walk):
            if x >= add_rep[d]:  # Skip, the common case
                continue
            threshold = add[d]
            if x < threshold:
                mask |= bit
                d += 1
            elif threshold < 0:  # unreachable
                raise ProtocolError(
                    f"unreachable APA entry consulted at (i={bit.bit_length()}, d={d})")
            else:
                mask = bit
                d = 1
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
    _row_key: GlobalHash = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._set_key()
        object.__setattr__(self, "_row_key", _row_key(self.gh))
        if self.label is None:
            object.__setattr__(self, "label", f"recipe-t:L={self.avst.L}")

    @property
    def K(self) -> int:
        return self.avst.K

    def actions(self, k: int, pids: np.ndarray) -> np.ndarray:
        self._check_length(k)
        return self.avst.rows[row_select_array(self.gh, pids, self.avst.L), :k]

    def replay(self, packet_id: int, k: int) -> int:
        """Hops 1..k of the packet's table row, no per-hop draw: the hops
        that act from the last Replace on, read off the row's bytes."""
        self._check_length(k)
        row = self.avst.rows[_row_index(self._row_key, packet_id, self.avst.L), :k].tobytes()
        start = max(row.rfind(REPLACE), 0)
        return int(row[start:][::-1].translate(_DIGITS), 2) << start


@dataclass(frozen=True)
class PintScheme(_Protocol):
    """PINT baseline: with probability alpha the packet carries the
    reservoir-sampled single hop, otherwise every hop XORs in with
    probability p.  The binomial branch can deliver an empty codeword,
    which counts like any delivered packet: a switch really did flip a
    coin for it.  The protocol needs no diameter; K only bounds k.

    Both views read one integer table per path length k, built the first
    time k is used: the hash keys of PINT_BRANCH_HOP and hops 1..k, and
    the `thresholds53` rows [alpha, 1/1 .. 1/k] and [alpha, p .. p], so
    every draw is compared in the hash's integer domain.  The batch view
    reads them as uint64 arrays, replay as lanes of one int (`_pack`,
    `_below`)."""

    params: PintParams
    seed: int = 0
    K: int = 2**31
    label: str | None = None
    gh: GlobalHash = field(init=False, repr=False, compare=False)
    _tables: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._set_key()
        object.__setattr__(self, "_tables", {})
        if self.label is None:
            object.__setattr__(
                self, "label", f"pint:a={self.params.alpha:g};p={self.params.p:g}")

    def _table(self, k: int) -> tuple:
        """For hops 0..k, checked and built on the first use of k: (hop
        keys, reservoir thresholds, binomial thresholds) as arrays, then
        replay's `_lane_keys` and reservoir and binomial `_below`."""
        table = self._tables.get(k)
        if table is None:
            self._check_length(k)
            probs = np.empty((2, k + 1))
            probs[:, PINT_BRANCH_HOP] = self.params.alpha
            probs[0, 1:] = 1.0 / np.arange(1, k + 1)
            probs[1, 1:] = self.params.p
            keys = hop_keys(self.gh, np.arange(PINT_BRANCH_HOP, k + 1, dtype=np.uint64))
            inverse, p = thresholds53(probs)
            table = self._tables[k] = (
                keys, inverse.astype(np.uint64), p.astype(np.uint64),
                *_lane_keys(keys.tolist()), _below(inverse.tolist()), _below(p.tolist()))
        return table

    def actions(self, k: int, pids: np.ndarray) -> np.ndarray:
        """The actions, uint8[n, k]: with probability alpha (drawn at
        PINT_BRANCH_HOP) a packet takes the reservoir branch, where hop i
        replaces with probability 1/i; otherwise hop i adds with
        probability p.

        Hops 1..k of a slab of packets hash in one pass, about _SLAB_CELLS
        cells at a time, and each slab's actions are one compare against
        its rows' thresholds times its rows' action codes."""
        keys, inverse, p = self._table(k)[:3]
        pids = np.asarray(pids, dtype=np.uint64)
        reservoir = _top53(pids ^ keys[PINT_BRANCH_HOP]) < p[PINT_BRANCH_HOP]
        codes = np.where(reservoir, REPLACE, ADD).astype(np.uint8)
        actions = np.empty((pids.size, k), dtype=np.uint8)
        rows = max(1, _SLAB_CELLS // k)
        for lo in range(0, pids.size, rows):
            hi = min(lo + rows, pids.size)
            y = _top53(pids[lo:hi, None] ^ keys[1:])
            hit = y < np.where(reservoir[lo:hi, None], inverse[1:], p[1:])
            np.multiply(hit, codes[lo:hi, None], out=actions[lo:hi])
        return actions

    def replay(self, packet_id: int, k: int) -> int:
        """Hash PINT_BRANCH_HOP and hops 1..k in one pass, one lane each,
        and compare all of them with the binomial row, whose entry 0 is
        alpha: a hit there picks the reservoir branch, where the last hop
        i with y_i below the 1/i threshold holds the slot (hop 1 always
        qualifies); otherwise the hits on hops 1..k are the XOR-set,
        possibly empty."""
        rep, lanes, keys, below_inverse, below_p = self._table(k)[3:]
        x = _mix64((packet_id & _MASK64) * rep ^ keys, lanes)
        size = 16 * (k + 1)
        hits = _guards(below_p - x, size)
        if hits[PINT_BRANCH_HOP]:
            return 1 << (_guards(below_inverse - x, size).rfind(1) - 1)
        return int(hits[:0:-1].translate(_DIGITS), 2)  # hops k..1, most significant first


def xor_members(actions: np.ndarray) -> np.ndarray:
    """Which hops' IDs the delivered codewords carry, bool[n, k].

    A codeword holds exactly the hops that acted (Add or Replace) at or
    after its last Replace, or every acting hop if none replaced.
    """
    k = actions.shape[1]
    replaced = actions[:, ::-1] == REPLACE
    start = np.where(replaced.any(axis=1), k - 1 - replaced.argmax(axis=1), 0)
    return (actions != SKIP) & (np.arange(k) >= start[:, None])


def masks_from_members(members: np.ndarray) -> list[int]:
    """Rows of a membership matrix as int bitmasks (bit h-1 = hop h).

    Rows are packed into little-endian 64-bit words and folded from the
    top word down, one column at a time, which costs far less per row
    than building each int from its bytes.
    """
    octets = np.packbits(members, axis=1, bitorder="little")
    n, width = octets.shape
    padded = np.zeros((n, width + -width % 8), dtype=np.uint8)
    padded[:, :width] = octets
    words = padded.view("<u8")
    masks = words[:, -1].tolist()
    for j in range(words.shape[1] - 2, -1, -1):
        masks = [(m << 64) | w for m, w in zip(masks, words[:, j].tolist())]
    return masks


@dataclass(frozen=True)
class Avst:
    """Action vector sample table: L independent sampled rows of the
    per-hop action vector, plus the provenance needed to reproduce and
    verify it (generation seed and source-APA digest)."""

    L: int
    K: int
    rows: np.ndarray  # uint8, shape (L, K), entries in {SKIP, ADD, REPLACE}
    seed: int
    apa_digest: str

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.uint8)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        if self.L < 1 or self.K < 1:
            raise RangeError(f"table needs at least one row and one hop, got "
                             f"L={self.L}, K={self.K}")
        if rows.shape != (self.L, self.K):
            raise RangeError(f"rows shape {rows.shape} != (L={self.L}, K={self.K})")
        if rows.max() > REPLACE:
            raise ConfigurationError("table contains a reserved action code")


def generate_avst(apa: Apa, L: int, seed: int) -> Avst:
    """Monte-Carlo sample L action vectors from the degree-based protocol.

    Row l is the action sequence a hypothetical packet with id l would see
    on a full-diameter path under key `seed`; rows are therefore bit-exactly
    reproducible from (apa, L, seed).  Row l depends on l alone, so the
    rows are sampled in blocks into the one table array.
    """
    if L < 1:
        raise RangeError(f"table needs at least one row and one hop, got L={L}, K={apa.K}")
    scheme = RecipeDScheme(apa, seed)
    rows = np.empty((L, apa.K), dtype=np.uint8)
    step = max(1, _AVST_BLOCK_CELLS // apa.K)
    for lo in range(0, L, step):
        rows[lo:lo + step] = scheme.actions(apa.K, np.arange(lo, min(lo + step, L),
                                                             dtype=np.uint64))
    return Avst(L, apa.K, rows, scheme.seed, apa.digest())


def step_recipe_t(pkt: Packet, my_id: int, avst: Avst, gh: GlobalHash) -> Packet:
    """One switch traversal in table-based mode: execute this hop's entry
    of the packet's row.  No degree field is needed or touched."""
    i = pkt.hop_count + 1
    if i > avst.K:
        raise RangeError(f"hop {i} beyond diameter {avst.K}")
    l = row_select(gh, pkt.packet_id, avst.L)
    action = int(avst.rows[l, i - 1])
    codeword, _ = _apply_action(action, pkt.codeword, pkt.degree_field, my_id)
    return replace(pkt, hop_count=i, codeword=codeword)


# ---------------------------------------------------------------------------
# Table file format: "AVST", version, K, L, seed, source-APA digest, then
# all L*K actions packed 2 bits each in row-major order (zero-padded to a
# whole byte).  30,000 rows at K=59 come to ~443 KB.

_HEADER = struct.Struct("<4sIIIQ32s")


def write_avst(avst: Avst, path) -> None:
    flat = avst.rows.reshape(-1)
    packed = np.zeros((flat.size + 3) // 4, dtype=np.uint8)
    for j in range(4):
        chunk = flat[j::4]
        packed[: chunk.size] |= chunk << (2 * j)
    header = _HEADER.pack(
        AVST_MAGIC, AVST_VERSION, avst.K, avst.L, avst.seed,
        bytes.fromhex(avst.apa_digest),
    )
    _atomic_write_bytes(path, header + packed.tobytes())


def read_avst(path) -> Avst:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size or blob[:4] != AVST_MAGIC:
        raise ConfigurationError(f"{path} is not an action table file")
    magic, version, K, L, seed, digest = _HEADER.unpack_from(blob)
    if version != AVST_VERSION:
        raise ConfigurationError(f"unsupported table version {version}")
    packed = np.frombuffer(blob[_HEADER.size:], dtype=np.uint8)
    n = L * K
    if packed.size != (n + 3) // 4:
        raise ConfigurationError("table payload size does not match header")
    # Byte b holds entries 4b..4b+3, two bits each from the lowest up:
    # unpacked in place, entry 4b+j is fields[b, j].
    fields = np.empty((packed.size, 4), dtype=np.uint8)
    for j in range(4):
        np.right_shift(packed, 2 * j, out=fields[:, j])
    fields &= 3
    flat = fields.reshape(-1)
    if flat[n:].any():
        raise ConfigurationError("table padding after the last action is not zero")
    return Avst(L, K, flat[:n].reshape(L, K), seed, digest.hex())
