"""The stateless per-hop encoders and the shared keyed hash.

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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

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

    Either an int hop against a uint64 array of packet ids (one hop of
    many packets) or a uint64 array of hops against one packet id, given
    as an int in [0, 2^64) (every hop of one packet).  The operands are
    arrays, whose integer arithmetic wraps mod 2^64 without a warning.
    """
    if isinstance(hop, np.ndarray):
        key = np.uint64(gh.seed) ^ (hop * _U64_GOLDEN)
    else:
        key = np.uint64(gh.seed ^ ((hop * _GOLDEN) & _MASK64))
    x = np.asarray(packet_ids, dtype=np.uint64) ^ key
    x ^= x >> _U64_30
    x *= _U64_MIX1
    x ^= x >> _U64_27
    x *= _U64_MIX2
    x ^= x >> _U64_31
    return (x >> _U64_11) * 2.0**-53


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
    if L < 1:
        raise RangeError(f"table must have at least one row, got L={L}")
    u = hash_uniform_array(GlobalHash(gh.seed ^ ROW_SELECT_SALT), 0, packet_ids)
    return np.minimum((u * L).astype(np.int64), L - 1)


def degree_field_bits(K: int) -> int:
    """Packet bits budgeted for the XOR degree: 6 covers any K <= 64."""
    return max(6, (K).bit_length())


@dataclass(frozen=True)
class Packet:
    """What a switch sees: an id standing for the packet's invariant bytes,
    the hop count, the codeword in progress, and (degree-based mode only)
    the current XOR degree."""

    packet_id: int
    hop_count: int = 0
    codeword: int = 0
    degree_field: int | None = 0


def validate_switch_id(switch_id: int, width: int = 32) -> int:
    """Switch IDs are nonzero fixed-width words; zero marks the empty codeword."""
    if switch_id == 0:
        raise RangeError("switch ID 0 is reserved for the empty codeword")
    if not 0 < switch_id < (1 << width):
        raise RangeError(f"switch ID {switch_id} does not fit in {width} bits")
    return switch_id


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
    d = pkt.degree_field if pkt.degree_field is not None else 0
    if i == 1:
        triple = apa.entry(1, 0)
    else:
        triple = apa.entry(i, d)  # raises ProtocolError on an unreachable entry
    nu = hash_uniform(gh, i, pkt.packet_id)
    action = _choose_action(triple, nu)
    new_d = d + 1 if action == ADD else (1 if action == REPLACE else d)
    if new_d >= (1 << degree_field_bits(apa.K)):
        raise ProtocolError(f"degree {new_d} overflows the degree field")
    return replace(
        pkt,
        hop_count=i,
        codeword=_apply_action(action, pkt.codeword, my_id),
        degree_field=new_d,
    )


def recipe_d_actions(apa: Apa, gh: GlobalHash, k: int, pids: np.ndarray) -> np.ndarray:
    """The action each of hops 1..k takes on each packet id, uint8[n, k].

    The degree-based walk of `step_recipe_d`, vectorized over packets:
    every hop draws nu = h(hop, packet) and applies the APA entry for the
    packet's current degree.  Raises ProtocolError if a packet reaches a
    state the APA marks unreachable.  Needs k <= apa.K.
    """
    actions = np.empty((pids.size, k), dtype=np.uint8)
    actions[:, 0] = REPLACE  # the APA's fixed hop-1 row (0, 0, 1)
    degrees = np.ones(pids.size, dtype=np.int64)
    for i in range(2, k + 1):
        triples = apa.triples[i - 1]
        p_add = triples[:, 0][degrees - 1]
        if np.isnan(p_add).any():
            raise ProtocolError(f"sampled an unreachable state at hop {i}")
        nu = hash_uniform_array(gh, i, pids)
        add = nu < p_add
        rep = ~add & (nu < p_add + triples[:, 2][degrees - 1])
        actions[:, i - 1] = np.where(add, ADD, np.where(rep, REPLACE, SKIP))
        degrees = np.where(add, degrees + 1, np.where(rep, 1, degrees))
    return actions


def pint_actions(alpha: float, p: float, gh: GlobalHash, k: int,
                 pids: np.ndarray) -> np.ndarray:
    """The PINT baseline's actions, uint8[n, k]: with probability alpha
    (drawn at PINT_BRANCH_HOP) a packet takes the reservoir branch, where
    hop i replaces with probability 1/i; otherwise hop i adds with
    probability p."""
    reservoir = hash_uniform_array(gh, PINT_BRANCH_HOP, pids) < alpha
    actions = np.empty((pids.size, k), dtype=np.uint8)
    for i in range(1, k + 1):
        u = hash_uniform_array(gh, i, pids)
        actions[:, i - 1] = np.where(reservoir, np.where(u < 1.0 / i, REPLACE, SKIP),
                                     np.where(u < p, ADD, SKIP))
    return actions


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
    words = np.pad(octets, ((0, 0), (0, -octets.shape[1] % 8))).view("<u8")
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

    def verify_digest(self, apa: Apa) -> None:
        if apa.digest() != self.apa_digest:
            raise ConfigurationError("table was generated from a different APA")


def generate_avst(apa: Apa, L: int, seed: int) -> Avst:
    """Monte-Carlo sample L action vectors from the degree-based protocol.

    Row l is the action sequence a hypothetical packet with id l would see
    on a full-diameter path under key `seed`; rows are therefore bit-exactly
    reproducible from (apa, L, seed).
    """
    if L < 1:
        raise RangeError(f"table must have at least one row, got L={L}")
    rows = recipe_d_actions(apa, GlobalHash(seed), apa.K, np.arange(L, dtype=np.uint64))
    return Avst(L, apa.K, rows, seed & _MASK64, apa.digest())


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
    if (flat > REPLACE).any():
        raise ConfigurationError("table contains a reserved action code")
    return Avst(L, K, flat.reshape(L, K), seed, digest.hex())
