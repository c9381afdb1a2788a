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
# The same constants as numpy scalars, for the vectorized hash.
_U64_GOLDEN, _U64_MIX1, _U64_MIX2 = (np.uint64(c) for c in (_GOLDEN, _MIX1, _MIX2))
_U64_11, _U64_27, _U64_30, _U64_31 = (np.uint64(c) for c in (11, 27, 30, 31))

# Action codes, also the 2-bit on-disk encoding (3 is reserved).
SKIP, ADD, REPLACE = 0, 1, 2
ACTION_NAMES = {SKIP: "skip", ADD: "add", REPLACE: "replace"}

# Hash domain layout: hop 0 carries per-packet branch decisions (PINT
# mixture), hops >= 1 carry per-switch decisions.
PINT_BRANCH_HOP = 0

# Packet x hop cells that PintScheme.actions hashes per call: enough to amortize
# numpy's per-call cost, few enough that a slab's temporaries stay in cache.
_SLAB_CELLS = 1 << 16

AVST_MAGIC = b"AVST"
AVST_VERSION = 1


@dataclass(frozen=True)
class GlobalHash:
    """A 64-bit key shared by every switch and host in the network."""

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", self.seed & _MASK64)


def _mix64(x: int) -> int:
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    x ^= x >> 31
    return x


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
    u = hash_uniform(GlobalHash(gh.seed ^ ROW_SELECT_SALT), 0, packet_id)
    return min(int(u * L), L - 1)


def row_select_array(gh: GlobalHash, packet_ids: np.ndarray, L: int) -> np.ndarray:
    u = hash_uniform_array(GlobalHash(gh.seed ^ ROW_SELECT_SALT), 0, packet_ids)
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


def _apply_action(action: int, codeword: int, my_id: int) -> int:
    if action == ADD:
        return codeword ^ my_id
    if action == REPLACE:
        return my_id
    return codeword


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
    action = _choose_action(triple, nu)
    return replace(
        pkt,
        hop_count=i,
        codeword=_apply_action(action, pkt.codeword, my_id),
        degree_field=d + 1 if action == ADD else (1 if action == REPLACE else d),
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

    Construction builds the walk's per-hop integer thresholds
    (`thresholds53`) once: for each hop i, p_add and p_add + p_replace by
    incoming degree 0..i-1, the same floats `step_recipe_d` compares.  Hop
    1 holds its fixed (0, 0, 1) row at degree 0; degree 0 of later hops
    and the APA's unreachable rows hold -1.  The batch kernel reads the
    tables as arrays, replay as Python ints, each hop's with its bit and
    hash key.
    """

    apa: Apa
    seed: int = 0
    label: str = "recipe-d"
    gh: GlobalHash = field(init=False, repr=False, compare=False)
    # (add, add_rep, the set of hops that have an unreachable row)
    _tables: tuple = field(init=False, repr=False, compare=False)
    _keys: np.ndarray = field(init=False, repr=False, compare=False)
    _walk: list = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_walk", [(1 << h, a.tolist(), r.tolist())
                                           for h, (a, r) in enumerate(zip(add, add_rep))])

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
        """The actions, uint8[n, k]: with probability alpha (drawn at
        PINT_BRANCH_HOP) a packet takes the reservoir branch, where hop i
        replaces with probability 1/i; otherwise hop i adds with
        probability p.

        Hops 1..k of a slab of packets hash in one call, about _SLAB_CELLS
        cells at a time, and each slab's actions are one compare against
        its rows' thresholds times its rows' action codes."""
        self._check_length(k)
        reservoir = hash_uniform_array(self.gh, PINT_BRANCH_HOP, pids) < self.params.alpha
        hops = np.arange(1, k + 1, dtype=np.uint64)
        inverse = 1.0 / hops
        codes = np.where(reservoir, REPLACE, ADD).astype(np.uint8)
        actions = np.empty((pids.size, k), dtype=np.uint8)
        rows = max(1, _SLAB_CELLS // k)
        for lo in range(0, pids.size, rows):
            hi = min(lo + rows, pids.size)
            u = hash_uniform_array(self.gh, hops,
                                   np.broadcast_to(pids[lo:hi, None], (hi - lo, k)))
            hit = u < np.where(reservoir[lo:hi, None], inverse, self.params.p)
            np.multiply(hit, codes[lo:hi, None], out=actions[lo:hi])
        return actions

    def replay(self, packet_id: int, k: int) -> int:
        """Hash PINT_BRANCH_HOP and hops 1..k in one pass.  Reservoir
        branch: the last hop i with u_i < 1/i holds the slot (hop 1 always
        qualifies).  Binomial branch: every hop with u_i < p, possibly none."""
        self._check_length(k)
        hops = np.arange(PINT_BRANCH_HOP, k + 1, dtype=np.uint64)
        u = _top53(hop_keys(self.gh, hops) ^ np.uint64(packet_id & _MASK64)) * 2.0**-53
        if u[PINT_BRANCH_HOP] < self.params.alpha:
            hits = _pack_bits(u[1:] < 1.0 / hops[1:])
            return 1 << (hits.bit_length() - 1)
        return _pack_bits(u[1:] < self.params.p)


def _pack_bits(flags: np.ndarray) -> int:
    """A bool vector as an int bitmask, flags[h] -> bit h.

    The one-row case of `masks_from_members`, without its word padding and
    fold, which cost about ten times as much for a single row.
    """
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


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
        if self.L < 1:
            raise RangeError(f"table must have at least one row, got L={self.L}")
        if rows.shape != (self.L, self.K):
            raise RangeError(f"rows shape {rows.shape} != (L={self.L}, K={self.K})")
        if (rows > REPLACE).any():
            raise ConfigurationError("table contains a reserved action code")

    def verify_digest(self, apa: Apa) -> None:
        if apa.digest() != self.apa_digest:
            raise ConfigurationError("table was generated from a different APA")


def generate_avst(apa: Apa, L: int, seed: int) -> Avst:
    """Monte-Carlo sample L action vectors from the degree-based protocol.

    Row l is the action sequence a hypothetical packet with id l would see
    on a full-diameter path under key `seed`; rows are therefore bit-exactly
    reproducible from (apa, L, seed).
    """
    scheme = RecipeDScheme(apa, seed)
    rows = scheme.actions(apa.K, np.arange(L, dtype=np.uint64))
    return Avst(L, apa.K, rows, scheme.seed, apa.digest())


def step_recipe_t(pkt: Packet, my_id: int, avst: Avst, gh: GlobalHash) -> Packet:
    """One switch traversal in table-based mode: execute this hop's entry
    of the packet's row.  No degree field is needed or touched."""
    i = pkt.hop_count + 1
    if i > avst.K:
        raise RangeError(f"hop {i} beyond diameter {avst.K}")
    l = row_select(gh, pkt.packet_id, avst.L)
    action = int(avst.rows[l, i - 1])
    return replace(pkt, hop_count=i, codeword=_apply_action(action, pkt.codeword, my_id))


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
        packed[: chunk.size] |= (chunk << (2 * j)).astype(np.uint8)
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
    flat = np.empty(n, dtype=np.uint8)
    for j in range(4):
        chunk = (packed >> (2 * j)) & 0x3
        take = flat[j::4].size
        flat[j::4] = chunk[:take]
    return Avst(L, K, flat.reshape(L, K), seed, digest.hex())
