import math
from functools import cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from recipe import protocol
from recipe.distributions import PintParams, shifted_soliton_sequence
from recipe.errors import ConfigurationError, ProtocolError, RangeError
from recipe.feasibility import derive_apa
from recipe.protocol import (
    ADD,
    REPLACE,
    SKIP,
    Avst,
    GlobalHash,
    Packet,
    PintScheme,
    _HEADER,
    _MASK64,
    _SLAB_CELLS,
    _below,
    _choose_action,
    _guards,
    _mix64,
    _pack,
    _top53,
    generate_avst,
    hash_uniform,
    hash_uniform_array,
    read_avst,
    row_select,
    row_select_array,
    step_recipe_d,
    step_recipe_t,
    thresholds53,
    write_avst,
)


def test_hash_uniform_deterministic():
    gh = GlobalHash(123456789)
    a = hash_uniform(gh, 5, 0xDEADBEEF)
    b = hash_uniform(gh, 5, 0xDEADBEEF)
    assert a == b
    assert 0.0 <= a < 1.0


def test_hash_uniform_scalar_matches_vectorized():
    gh = GlobalHash(42)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 2**64, size=1000, dtype=np.uint64)
    for hop in (0, 1, 7, 236):
        vec = hash_uniform_array(gh, hop, ids)
        scalars = np.array([hash_uniform(gh, hop, int(i)) for i in ids])
        assert np.array_equal(vec, scalars)
    # Every hop of one packet in one call, across the uint64 range of hops.
    hops = np.array([0, 1, 7, 236, 2**40 + 3, 2**64 - 1], dtype=np.uint64)
    for pid in (0, 2**64 - 1, int(ids[0])):
        vec = hash_uniform_array(gh, hops, pid)
        assert vec.tolist() == [hash_uniform(gh, int(h), pid) for h in hops]
    # Every hop of a block of packets: a column of ids against a row of hops.
    block = hash_uniform_array(gh, hops[:4], np.broadcast_to(ids[:3, None], (3, 4)))
    assert block.tolist() == [[hash_uniform(gh, int(h), int(i)) for h in hops[:4]]
                              for i in ids[:3]]


_P_MAX = 1.0 + 2.0**-20  # past 1, where APA rows summing to 1 within tolerance reach
_MULTIPLES = st.integers(0, 2**53 + 2**33).map(lambda m: m * 2.0**-53)


@given(st.one_of(
    st.sampled_from([0.0, 1.0, _P_MAX]),
    st.floats(0.0, _P_MAX),
    _MULTIPLES,
    _MULTIPLES.map(lambda p: math.nextafter(p, math.inf)),
    _MULTIPLES.map(lambda p: math.nextafter(p, -math.inf)),
).filter(lambda p: 0.0 <= p <= _P_MAX))
def test_threshold_rule_is_exact(p):
    # A hashed draw is u = y * 2^-53 for an integer y in [0, 2^53); the
    # kernels compare y with C = thresholds53(p) instead of u with p.  The
    # two compares can only disagree next to C.
    C = int(thresholds53(np.array([p]))[0])
    for y in (C - 1, C, C + 1):
        if 0 <= y < 2**53:
            assert (y * 2.0**-53 < p) == (y < C)


def test_thresholds53_marks_nan_below_every_draw():
    assert thresholds53(np.array([np.nan, 0.0, 1.0])).tolist() == [-1, 0, 2**53]


@pytest.mark.parametrize("n", [1, 2, 65, 237])
def test_packed_finalizer_matches_the_scalar_one_in_every_lane(n):
    # Replay hashes all hops of a packet as 64-bit words in 128-bit lanes
    # of one int.  Each lane must come out as the scalar finalizer would
    # give it, with the gaps between lanes still zero: a word that leaked
    # into its neighbour's lane would show here.
    extremes = [0, 2**63, 2**64 - 1]
    drawn = np.random.default_rng(n).integers(0, 2**64, size=n, dtype=np.uint64).tolist()
    mixes = [[w] * n for w in extremes]
    mixes.append([w if i % 2 else extremes[i // 2 % 3] for i, w in enumerate(drawn)])
    lanes = _pack([1] * n) * _MASK64
    for words in mixes:
        mixed = _mix64(_pack(words), lanes)
        assert mixed & ~lanes == 0
        got = [(mixed >> (128 * i)) & _MASK64 for i in range(n)]
        assert got == [_mix64(w) for w in words]
        assert [g >> 11 for g in got] == _top53(np.array(words, dtype=np.uint64)).tolist()


def test_guard_bit_compare_is_y_below_t():
    # _below(t) - x sets the guard bit of lane i exactly when the draw
    # y = x_i >> 11 is below t_i; the cases sit on both sides of each
    # threshold, packed side by side so that a borrow between lanes would
    # flip a neighbour's guard.
    cases = [(x, t) for t in (0, 1, 2**53 - 1, 2**53)
             for x in ((t << 11) - 1, t << 11, 0, _MASK64) if 0 <= x <= _MASK64]
    xs, ts = zip(*cases)
    guards = _guards(_below(ts) - _pack(xs), 16 * len(cases))
    assert list(guards) == [int((x >> 11) < t) for x, t in cases]


_PINT_GH = GlobalHash(0x5EED)


@cache
def _pint_cells(k: int, n: int):
    """Packet ids and their per-cell scalar draws: the branch draw u0[n]
    and hop i's draw u[n, i-1]."""
    pids = np.random.default_rng(k).integers(0, 2**64, size=n, dtype=np.uint64)
    u0 = np.array([hash_uniform(_PINT_GH, 0, pid) for pid in pids.tolist()])
    u = np.array([[hash_uniform(_PINT_GH, i, pid) for i in range(1, k + 1)]
                  for pid in pids.tolist()])
    return pids, u0, u.reshape(n, k)


@pytest.mark.parametrize("k", [1, 2, 64, 65, 118, 236])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("p", [2 / 118, 1 / 3, 0.5], ids=["2/118", "1/3", "1/2"])
@pytest.mark.parametrize("packets", ["three-slabs", "one"])
def test_pint_actions_match_per_cell_reference(k, alpha, p, packets):
    # Two full slabs of packets and a ragged third one, or a single packet.
    n = 2 * (_SLAB_CELLS // k) + 7 if packets == "three-slabs" else 1
    pids, u0, u = _pint_cells(k, n)
    hop = np.arange(1, k + 1)
    want = np.where((u0 < alpha)[:, None], np.where(u < 1.0 / hop, REPLACE, SKIP),
                    np.where(u < p, ADD, SKIP))
    got = PintScheme(PintParams(alpha, p), seed=_PINT_GH, K=k).actions(k, pids)
    assert got.dtype == np.uint8 and got.shape == (n, k)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [1, 2, 64, 65, 118, 236])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("p", [2 / 118, 1 / 3, 0.5], ids=["2/118", "1/3", "1/2"])
def test_pint_replay_matches_per_cell_reference(k, alpha, p):
    # The rule in floats, cell by cell: reservoir when u0 < alpha, keeping
    # the last hop i with u_i < 1/i; otherwise every hop with u_i < p.
    pids, u0, u = _pint_cells(k, 40)
    scheme = PintScheme(PintParams(alpha, p), seed=_PINT_GH, K=k)
    for pid, branch, row in zip(pids.tolist(), u0, u):
        if branch < alpha:
            want = 1 << max(h for h in range(k) if row[h] < 1.0 / (h + 1))
        else:
            want = sum(1 << h for h in range(k) if row[h] < p)
        assert scheme.replay(pid, k) == want


def test_hash_uniform_mean():
    gh = GlobalHash(7)
    ids = np.random.default_rng(1).integers(0, 2**64, size=10**6, dtype=np.uint64)
    mean = float(hash_uniform_array(gh, 3, ids).mean())
    assert abs(mean - 0.5) < 0.002


def test_hash_uniform_hop_separation():
    gh = GlobalHash(7)
    ids = np.random.default_rng(2).integers(0, 2**64, size=10000, dtype=np.uint64)
    a = hash_uniform_array(gh, 3, ids)
    b = hash_uniform_array(gh, 4, ids)
    assert not np.any(a == b)


def test_row_select_single_row():
    gh = GlobalHash(9)
    for pid in (0, 1, 2**63, 2**64 - 1):
        assert row_select(gh, pid, 1) == 0


def test_row_select_uniformity():
    gh = GlobalHash(10)
    ids = np.random.default_rng(3).integers(0, 2**64, size=10**6, dtype=np.uint64)
    rows = row_select_array(gh, ids, 10)
    freqs = np.bincount(rows, minlength=10) / ids.size
    assert np.abs(freqs - 0.1).max() < 0.003


def test_row_select_independent_of_hop_and_matches_scalar():
    gh = GlobalHash(11)
    ids = np.random.default_rng(4).integers(0, 2**64, size=500, dtype=np.uint64)
    vec = row_select_array(gh, ids, 37)
    scalars = np.array([row_select(gh, int(i), 37) for i in ids])
    assert np.array_equal(vec, scalars)
    with pytest.raises(RangeError):
        row_select(gh, 1, 0)


def test_choose_action_branch_order():
    # add on [0, pA), replace on [pA, pA+pR), skip on the rest
    triple = (2 / 9, 2 / 3, 1 / 9)
    assert _choose_action(triple, 0.1) == ADD
    assert _choose_action(triple, 2 / 9) == REPLACE
    assert _choose_action(triple, 2 / 9 + 1 / 9 - 1e-12) == REPLACE
    assert _choose_action(triple, 0.95) == SKIP


def test_step_recipe_d_first_hop_always_replaces():
    apa = derive_apa(shifted_soliton_sequence(3))
    gh = GlobalHash(5)
    for pid in (1, 99, 2**40):
        pkt = Packet(packet_id=pid)
        out = step_recipe_d(pkt, 0xABCD, apa, gh)
        assert out.codeword == 0xABCD
        assert out.degree_field == 1
        assert out.hop_count == 1


def _find_packet_with_nu(gh, hop, lo, hi, start=0):
    pid = start
    while True:
        if lo <= hash_uniform(gh, hop, pid) < hi:
            return pid
        pid += 1


def test_step_recipe_d_threshold_actions_at_hop3():
    # At (i=3, d=1) the Shifted Soliton action probabilities are
    # (2/9, 2/3, 1/9): nu below 2/9 adds, nu in [2/9, 1/3) replaces,
    # nu at or above 1/3 skips.
    apa = derive_apa(shifted_soliton_sequence(3))
    gh = GlobalHash(77)
    cases = [
        (0.0, 2 / 9, ADD),
        (2 / 9, 1 / 3, REPLACE),
        (1 / 3, 1.0, SKIP),
    ]
    for lo, hi, want in cases:
        pid = _find_packet_with_nu(gh, 3, lo, hi)
        pkt = Packet(packet_id=pid, hop_count=2, codeword=0b01, degree_field=1)
        out = step_recipe_d(pkt, 0b100, apa, gh)
        if want == ADD:
            assert out.codeword == 0b101 and out.degree_field == 2
        elif want == REPLACE:
            assert out.codeword == 0b100 and out.degree_field == 1
        else:
            assert out.codeword == 0b01 and out.degree_field == 1
        assert out.hop_count == 3


def test_step_recipe_d_stateless_replay():
    apa = derive_apa(shifted_soliton_sequence(5))
    gh = GlobalHash(13)
    pkt = Packet(packet_id=123456)
    trace = []
    for hop in range(5):
        pkt = step_recipe_d(pkt, hop + 1, apa, gh)
        trace.append(pkt)
    pkt2 = Packet(packet_id=123456)
    for hop, want in enumerate(trace):
        pkt2 = step_recipe_d(pkt2, hop + 1, apa, gh)
        assert pkt2 == want


def test_step_recipe_d_range_and_sentinel_errors():
    apa = derive_apa(shifted_soliton_sequence(2))
    gh = GlobalHash(1)
    pkt = Packet(packet_id=5, hop_count=2, codeword=1, degree_field=1)
    with pytest.raises(RangeError):
        step_recipe_d(pkt, 2, apa, gh)
    from recipe.xdd import sequence_from_masses
    apa2 = derive_apa(sequence_from_masses([[1.0], [1.0, 0.0], [1.0, 0.0, 0.0]]))
    bad = Packet(packet_id=5, hop_count=2, codeword=3, degree_field=2)
    with pytest.raises(ProtocolError):
        step_recipe_d(bad, 7, apa2, gh)


def test_empirical_degree_distribution_recipe_d():
    # Empirical XDD at each hop under the Shifted Soliton code, 4 sigma.
    K = 8
    seq = shifted_soliton_sequence(K)
    from recipe.evaluation import RecipeDScheme, degree_histogram

    scheme = RecipeDScheme(derive_apa(seq), seed=31)
    n = 10**5
    for k in (1, 3, 8):
        counts = degree_histogram(scheme, k, n, seed=7 + k)
        target = seq.xdd(k).mass
        sigma = np.sqrt(n * target * (1 - target))
        assert np.abs(counts - n * target).max() <= 4 * np.maximum(sigma, 1.0).max()


def test_generate_avst_first_column_and_reproducibility():
    apa = derive_apa(shifted_soliton_sequence(3))
    avst1 = generate_avst(apa, 5000, seed=99)
    avst2 = generate_avst(apa, 5000, seed=99)
    assert np.array_equal(avst1.rows, avst2.rows)
    assert (avst1.rows[:, 0] == REPLACE).all()
    avst3 = generate_avst(apa, 5000, seed=100)
    assert not np.array_equal(avst1.rows, avst3.rows)


def test_generate_avst_hop3_add_fraction():
    # P(add at hop 3) = pA(3,1) P(d=1 at hop 2) + pA(3,2) P(d=2 at hop 2)
    #                 = (2/9)(1/2) + (2/3)(1/2) = 4/9.
    apa = derive_apa(shifted_soliton_sequence(3))
    L = 30000
    avst = generate_avst(apa, L, seed=42)
    frac = float((avst.rows[:, 2] == ADD).mean())
    sigma = np.sqrt((4 / 9) * (5 / 9) / L)
    assert abs(frac - 4 / 9) <= 3 * sigma


def test_avst_empirical_xdd_converges_to_target():
    # The table's row prefixes induce an empirical XDD; at L=30000 it sits
    # within 4 sigma of the exact one for every path length.
    K = 8
    seq = shifted_soliton_sequence(K)
    apa = derive_apa(seq)
    L = 30000
    avst = generate_avst(apa, L, seed=17)
    for k in (2, 5, 8):
        degrees = np.zeros(L, dtype=np.int64)
        masks = np.zeros(L, dtype=np.int64)
        for i in range(1, k + 1):
            act = avst.rows[:, i - 1]
            masks = np.where(act == REPLACE, 1 << (i - 1),
                             np.where(act == ADD, masks | (1 << (i - 1)), masks))
        for b in range(k):
            degrees += (masks >> b) & 1
        counts = np.bincount(degrees, minlength=k + 1)[1:]
        target = seq.xdd(k).mass
        sigma = np.maximum(np.sqrt(L * target * (1 - target)), 1.0)
        assert (np.abs(counts - L * target) <= 4 * sigma).all()


def test_step_recipe_t_forced_single_row():
    digest = "00" * 32
    avst = Avst(1, 3, np.array([[REPLACE, SKIP, SKIP]], dtype=np.uint8), 0, digest)
    gh = GlobalHash(3)
    ids = [0x111, 0x222, 0x333]
    pkt = Packet(packet_id=42)
    for i in range(3):
        pkt = step_recipe_t(pkt, ids[i], avst, gh)
    assert pkt.codeword == 0x111
    avst2 = Avst(1, 3, np.array([[REPLACE, ADD, ADD]], dtype=np.uint8), 0, digest)
    pkt = Packet(packet_id=42)
    for i in range(3):
        pkt = step_recipe_t(pkt, ids[i], avst2, gh)
    assert pkt.codeword == 0x111 ^ 0x222 ^ 0x333
    with pytest.raises(RangeError):
        step_recipe_t(pkt, 1, avst2, gh)


# L * K at K=5 is 1, 3, 0 and 2 mod 4: every fill of the last packed byte.
@pytest.mark.parametrize("L", [1, 3, 4, 1234])
def test_avst_file_round_trip(tmp_path, L):
    apa = derive_apa(shifted_soliton_sequence(5))
    avst = generate_avst(apa, L, seed=5)
    path = tmp_path / "table.avst"
    write_avst(avst, path)
    back = read_avst(path)
    assert back.L == avst.L and back.K == avst.K and back.seed == avst.seed
    assert back.apa_digest == avst.apa_digest
    assert np.array_equal(back.rows, avst.rows)
    # same generation inputs -> byte-identical files
    write_avst(generate_avst(apa, L, seed=5), tmp_path / "again.avst")
    assert (tmp_path / "table.avst").read_bytes() == (tmp_path / "again.avst").read_bytes()


def test_avst_rows_do_not_depend_on_the_block_size(monkeypatch):
    apa = derive_apa(shifted_soliton_sequence(5))
    whole = generate_avst(apa, 1234, seed=5)
    for cells in (1, 10, 640):  # 1 row a block (fewer cells than K); 2 rows; 128, uneven
        monkeypatch.setattr(protocol, "_AVST_BLOCK_CELLS", cells)
        assert generate_avst(apa, 1234, seed=5).rows.tobytes() == whole.rows.tobytes()


def test_avst_nonzero_padding_is_refused(tmp_path):
    path = tmp_path / "t.avst"
    write_avst(generate_avst(derive_apa(shifted_soliton_sequence(5)), 3, seed=1), path)
    read_avst(path)
    blob = bytearray(path.read_bytes())
    blob[-1] |= 0b11 << 6  # 15 actions: the last byte's fourth pair is padding
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigurationError, match="padding"):
        read_avst(path)


def test_avst_file_size_is_two_bits_per_action(tmp_path):
    apa = derive_apa(shifted_soliton_sequence(5))
    avst = generate_avst(apa, 1000, seed=1)
    path = tmp_path / "t.avst"
    write_avst(avst, path)
    header = 4 + 4 + 4 + 4 + 8 + 32
    assert path.stat().st_size == header + (1000 * 5 + 3) // 4


def test_avst_digest_binding():
    apa3 = derive_apa(shifted_soliton_sequence(3))
    apa4 = derive_apa(shifted_soliton_sequence(4))
    avst = generate_avst(apa3, 10, seed=1)
    assert avst.apa_digest == apa3.digest() != apa4.digest()


def test_avst_rows_of_another_shape_are_refused():
    with pytest.raises(RangeError, match=r"rows shape \(3, 2\) != \(L=2, K=3\)"):
        Avst(2, 3, np.zeros((3, 2), dtype=np.uint8), 0, "00" * 32)


def test_avst_reserved_action_code_is_refused(tmp_path):
    # Code 3 would split the batch view (it counts as acting) from replay.
    with pytest.raises(ConfigurationError):
        Avst(1, 4, np.array([[ADD, ADD, 3, ADD]], dtype=np.uint8), 0, "00" * 32)
    path = tmp_path / "t.avst"
    write_avst(generate_avst(derive_apa(shifted_soliton_sequence(4)), 1, seed=1), path)
    blob = bytearray(path.read_bytes())
    blob[-1] |= 0b11  # hop 1 of the only row
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigurationError):
        read_avst(path)


def test_read_avst_rejects_garbage(tmp_path):
    path = tmp_path / "bad.avst"
    path.write_bytes(b"not a table")
    with pytest.raises(ConfigurationError):
        read_avst(path)


# (header fields to change, payload edit, error) on a valid L=3, K=4 table.
@pytest.mark.parametrize("fields, payload, error", [
    pytest.param({"version": 2}, None, ConfigurationError, id="version-2"),
    pytest.param({}, lambda body: body[:-1], ConfigurationError, id="truncated-payload"),
    pytest.param({}, lambda body: body + b"\0", ConfigurationError, id="extra-byte"),
    pytest.param({"L": 0}, lambda body: b"", RangeError, id="L-0"),
    pytest.param({"K": 0}, lambda body: b"", RangeError, id="K-0"),
])
def test_read_avst_rejects_bad_header_or_payload(tmp_path, fields, payload, error):
    path = tmp_path / "t.avst"
    write_avst(generate_avst(derive_apa(shifted_soliton_sequence(4)), 3, seed=1), path)
    blob = path.read_bytes()
    header = dict(zip(("magic", "version", "K", "L", "seed", "digest"),
                      _HEADER.unpack_from(blob)))
    header.update(fields)
    body = blob[_HEADER.size:]
    path.write_bytes(_HEADER.pack(*header.values()) + (payload(body) if payload else body))
    with pytest.raises(error):
        read_avst(path)
