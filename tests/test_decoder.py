import dataclasses
import pickle

import numpy as np
import pytest

from recipe.decoder import (
    DecodeResult,
    PeelingState,
    PintMode,
    ReceivedCodeword,
    RecipeDMode,
    RecipeTMode,
    decode_stream,
    peel_insert,
    replay_xor_mask,
)
from recipe.distributions import PintParams, expand_invariant, shifted_soliton_sequence
from recipe.errors import DataCorruptionError, ProtocolError, RangeError
from recipe.evaluation import (
    PintScheme,
    RecipeDScheme,
    RecipeTScheme,
    _codeword_values,
    _draw_switch_ids,
)
from recipe.feasibility import Apa, derive_apa
from recipe.xdd import Xdd
from recipe.protocol import (
    ADD,
    REPLACE,
    SKIP,
    Avst,
    GlobalHash,
    Packet,
    generate_avst,
    row_select,
    step_recipe_d,
    step_recipe_t,
    xor_members,
)

from oracles import two_hop_expected_used


def test_replay_recipe_t_forced_rows():
    digest = "00" * 32
    row = np.array([[REPLACE, ADD, ADD]], dtype=np.uint8)
    scheme = RecipeTScheme(Avst(1, 3, row, 0, digest), seed=3)
    assert replay_xor_mask(12345, 3, scheme) == 0b111
    row2 = np.array([[REPLACE, SKIP, REPLACE]], dtype=np.uint8)
    scheme2 = RecipeTScheme(Avst(1, 3, row2, 0, digest), seed=3)
    assert replay_xor_mask(12345, 3, scheme2) == 0b100


def test_replay_recipe_t_matches_table_steps():
    # Rows that real tables (hop 1 always Replace) never hold: all Skip,
    # no Replace, Replace at the last hop, Replace followed by Adds.
    rows = np.array([[SKIP, SKIP, SKIP, SKIP, SKIP],
                     [ADD, SKIP, ADD, ADD, SKIP],
                     [ADD, ADD, SKIP, ADD, REPLACE],
                     [REPLACE, ADD, REPLACE, ADD, ADD]], dtype=np.uint8)
    avst = Avst(4, 5, rows, 0, "00" * 32)
    scheme = RecipeTScheme(avst, seed=11)
    bits = [1 << h for h in range(avst.K)]
    seen = set()
    for pid in range(64):
        seen.add(row_select(scheme.gh, pid, avst.L))
        for k in range(1, avst.K + 1):
            want = _fold(step_recipe_t, avst, scheme.gh, pid, bits[:k])
            assert replay_xor_mask(pid, k, scheme) == want, (pid, k)
    assert seen == {0, 1, 2, 3}


def test_replay_recipe_d_equals_encoder_trace():
    # Power-of-two switch IDs make the delivered codeword literally the
    # XOR-set bitmask, so encoding and replay can be compared exactly.
    k = 3
    apa = derive_apa(shifted_soliton_sequence(k))
    scheme = RecipeDScheme(apa, seed=17)
    rng = np.random.default_rng(0)
    for pid in rng.integers(0, 2**64, size=10000, dtype=np.uint64):
        pid = int(pid)
        pkt = Packet(packet_id=pid)
        for i in range(1, k + 1):
            pkt = step_recipe_d(pkt, 1 << (i - 1), apa, scheme.gh)
        assert pkt.codeword == replay_xor_mask(pid, k, scheme)
        assert pkt.degree_field == pkt.codeword.bit_count()


def _fold(step, table, gh, packet_id, switch_ids):
    pkt = Packet(packet_id=packet_id)
    for switch_id in switch_ids:
        pkt = step(pkt, switch_id, table, gh)
    return pkt.codeword


def _capped_soliton_sequence(K: int, cap: int = 12):
    """The invariant sequence of Soliton masses 1/(d(d+1)) cut off above
    degree `cap` and renormalized.  mu_{i-1}(d) is 0 for cap < d < i - 1,
    so its APA has NaN rows at every later hop, and no packet reaches one."""
    d = np.arange(1, cap + 1)
    mass = np.zeros(K)
    mass[:cap] = 1.0 / (d * (d + 1))
    return expand_invariant(Xdd(K, mass / mass.sum()))


@pytest.mark.parametrize("k, capped", [(8, False), (64, False), (65, False), (118, False),
                                       (236, False), (65, True), (118, True)],
                         ids=["8", "64", "65", "118", "236", "65-capped", "118-capped"])
def test_replay_matches_bulk_generators_all_modes(k, capped):
    # The vectorized action kernels against the normative scalar code, on
    # both sides of the 64-hop word boundary and at the fragmented-ID
    # diameter 236, and on APAs with unreachable (NaN) rows.  Folding the
    # per-switch steps with switch ID 1 << (i-1) makes the delivered
    # codeword the XOR-set mask itself; random 32-bit IDs check the
    # codeword values the evaluation derives.
    apa = derive_apa(_capped_soliton_sequence(k) if capped else shifted_soliton_sequence(k))
    assert np.isnan(apa.triples[-1][:, 0]).any() == capped
    rng = np.random.default_rng(k)
    pids = rng.integers(0, 2**64, size=max(100, 16000 // k), dtype=np.uint64)
    switch_ids = _draw_switch_ids(rng, k)
    bits = [1 << h for h in range(k)]
    avst = generate_avst(apa, 500, seed=9)
    schemes = [
        (RecipeDScheme(apa=apa, seed=23), step_recipe_d, apa),
        (RecipeTScheme(avst, seed=23), step_recipe_t, avst),
        (PintScheme(PintParams(0.3, 2 / k), seed=23, K=k), None, None),
    ]
    for scheme, step, table in schemes:
        masks = scheme.generate_masks(k, pids)
        values = _codeword_values(xor_members(scheme.actions(k, pids)), switch_ids)
        for pid, mask, value in zip(pids.tolist(), masks, values.tolist()):
            assert mask == replay_xor_mask(pid, k, scheme)
            if step is None:
                expected = 0
                for h in range(k):
                    if mask >> h & 1:
                        expected ^= int(switch_ids[h])
            else:
                assert _fold(step, table, scheme.gh, pid, bits) == mask
                expected = _fold(step, table, scheme.gh, pid, switch_ids.tolist())
            assert value == expected


def test_scheme_and_mode_names_are_one_class():
    # bench/ builds each protocol object under both names, with the key as
    # a GlobalHash or as an int.  Its oracle encodes reference codewords
    # with step_recipe_d / step_recipe_t only when decode_mode() is a
    # RecipeDMode / RecipeTMode, and otherwise falls back to the replay
    # it is meant to check.
    from recipe import evaluation

    assert RecipeDMode is evaluation.RecipeDScheme
    assert RecipeTMode is evaluation.RecipeTScheme
    assert PintMode is evaluation.PintScheme
    K, s = 12, 41
    apa = derive_apa(shifted_soliton_sequence(K))
    avst = generate_avst(apa, 64, seed=2)
    params = PintParams(0.3, 2 / K)
    pairs = [(RecipeDMode(apa, GlobalHash(s)), RecipeDScheme(apa=apa, seed=s)),
             (RecipeTMode(avst, GlobalHash(s)), RecipeTScheme(avst=avst, seed=s)),
             (PintMode(params, GlobalHash(s)), PintScheme(params=params, seed=s, K=K))]
    pids = np.random.default_rng(5).integers(0, 2**64, size=200, dtype=np.uint64).tolist()
    for mode, scheme in pairs:
        assert mode.gh == scheme.gh
        assert mode.seed == scheme.seed == s
        for k in (1, K // 2, K):
            assert ([replay_xor_mask(pid, k, mode) for pid in pids]
                    == [replay_xor_mask(pid, k, scheme) for pid in pids])
        assert scheme.decode_mode() is scheme
    assert isinstance(pairs[0][1].decode_mode(), RecipeDMode)
    assert isinstance(pairs[1][1].decode_mode(), RecipeTMode)


def test_replay_tables_belong_to_one_object_and_change_no_result():
    # PintScheme and RecipeDScheme build replay's constants per path length
    # on first use; a copy by dataclasses.replace or pickle, or a detour
    # through other lengths, replays the same masks.
    apa = derive_apa(shifted_soliton_sequence(12))
    schemes = [RecipeDScheme(apa, seed=5), RecipeTScheme(generate_avst(apa, 40, seed=2), seed=5),
               PintScheme(PintParams(0.3, 0.2), seed=5, K=12)]
    pids = range(2**64 - 50, 2**64)
    for scheme in schemes:
        def masks(s, k):
            return [s.replay(pid, k) for pid in pids]

        fresh = [masks(dataclasses.replace(scheme), k) for k in (12, 3, 12)]
        visited = [masks(scheme, k) for k in (12, 3, 12)]
        assert visited == fresh
        # A cache checks k only when it builds k's entry, so a bad k after
        # good ones is refused only if no cache ever holds one.
        for k in (0, 13):
            with pytest.raises(RangeError):
                scheme.replay(2**64 - 1, k)
            with pytest.raises(RangeError):
                scheme.actions(k, np.arange(3, dtype=np.uint64))
        relabelled = dataclasses.replace(scheme, label="other")
        assert [masks(relabelled, k) for k in (3, 12)] == fresh[1:]
        unpickled = pickle.loads(pickle.dumps(scheme))
        assert [masks(unpickled, k) for k in (3, 12, 7)] == [*fresh[1:], masks(scheme, 7)]
    recipe_d, pint = schemes[0], schemes[2]
    assert set(recipe_d._replays) == set(pint._tables) == {3, 7, 12}
    assert not dataclasses.replace(recipe_d, label="other")._replays
    assert not dataclasses.replace(pint, label="other")._tables


def test_received_codeword_contract():
    cw = ReceivedCodeword(7, 3, 0xAB, 0b101)
    assert tuple(cw) == (7, 3, 0xAB, 0b101)
    assert (cw.packet_id, cw.path_length, cw.codeword, cw.xor_set) == (7, 3, 0xAB, 0b101)
    assert ReceivedCodeword(packet_id=7, path_length=3, codeword=0xAB, xor_set=0b101) == cw
    assert repr(cw) == "ReceivedCodeword(packet_id=7, path_length=3, codeword=171, xor_set=5)"
    for name in ("packet_id", "path_length", "codeword", "xor_set"):
        with pytest.raises(AttributeError):
            setattr(cw, name, 0)


def test_replay_reservoir_branch_is_single_uniformish_hop():
    k = 5
    scheme = PintScheme(PintParams(1.0, 0.5), seed=11)
    rng = np.random.default_rng(3)
    counts = np.zeros(k)
    for pid in rng.integers(0, 2**64, size=20000, dtype=np.uint64):
        mask = replay_xor_mask(int(pid), k, scheme)
        assert mask and not mask & (mask - 1)
        counts[mask.bit_length() - 1] += 1
    freqs = counts / counts.sum()
    assert np.abs(freqs - 1 / k).max() < 4 * np.sqrt((1 / k) * (1 - 1 / k) / 20000)


def test_replay_range_errors():
    # A path length is 1..K in every scheme's replay and batch encoder.
    apa = derive_apa(shifted_soliton_sequence(3))
    schemes = [RecipeDScheme(apa), RecipeTScheme(generate_avst(apa, 20, seed=1)),
               PintScheme(PintParams(0.5, 0.2), K=3)]
    pids = np.arange(4, dtype=np.uint64)
    for scheme in schemes:
        for k in (0, -1, 4):
            with pytest.raises(RangeError):
                replay_xor_mask(7, k, scheme)
            with pytest.raises(RangeError):
                scheme.actions(k, pids)
    with pytest.raises(RangeError):
        decode_stream([], 0)


def test_replay_raises_on_unreachable_apa_entry():
    # Hop 2 always adds, so hop 3 is entered at degree 2, whose row is NaN.
    nan = float("nan")
    apa = Apa(3, ([[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]],
                  [[0.0, 1.0, 0.0], [nan, nan, nan]]))
    scheme = RecipeDScheme(apa)
    pids = np.array([0, 7, 2**64 - 1], dtype=np.uint64)
    for pid in pids.tolist():
        assert replay_xor_mask(pid, 2, scheme) == 0b11
        with pytest.raises(ProtocolError):
            replay_xor_mask(pid, 3, scheme)
    # The batch kernel checks the same states.
    assert scheme.actions(2, pids).tolist() == [[REPLACE, ADD]] * 3
    with pytest.raises(ProtocolError):
        scheme.actions(3, pids)
    with pytest.raises(ProtocolError):
        generate_avst(apa, 16, seed=5)
    # A NaN row that no packet reaches raises nothing: hop 2 always skips,
    # so hop 3 is entered at degree 1 only.
    unreached = Apa(3, ([[0.0, 0.0, 1.0]], [[0.0, 1.0, 0.0]],
                        [[0.0, 1.0, 0.0], [nan, nan, nan]]))
    scheme = RecipeDScheme(unreached)
    assert scheme.actions(3, pids).tolist() == [[REPLACE, SKIP, SKIP]] * 3
    assert generate_avst(unreached, 16, seed=5).rows.tolist() == [[REPLACE, SKIP, SKIP]] * 16
    for pid in pids.tolist():
        assert replay_xor_mask(pid, 3, scheme) == 0b1


def test_replay_takes_packet_ids_mod_2_64():
    K = 10
    apa = derive_apa(shifted_soliton_sequence(K))
    schemes = [RecipeDScheme(apa, seed=17),
               RecipeTScheme(generate_avst(apa, 50, seed=4), seed=17),
               PintScheme(PintParams(0.5, 0.3), seed=17)]
    pids = np.random.default_rng(8).integers(0, 2**64, size=50, dtype=np.uint64).tolist()
    for scheme in schemes:
        assert replay_xor_mask(-1, K, scheme) == replay_xor_mask(2**64 - 1, K, scheme)
        for pid in [0, 2**64 - 1] + pids:
            assert replay_xor_mask(pid + 2**64, K, scheme) == replay_xor_mask(pid, K, scheme)


def test_peel_degree_one_resolves_directly():
    state = PeelingState(3)
    newly = peel_insert(state, ReceivedCodeword(1, 3, 0xAA, 0b10))
    assert newly == [2]
    assert state.resolved == {2: 0xAA}


def test_peel_cascade_through_pending_pair():
    state = PeelingState(2)
    a, b = 0x11, 0x22
    assert peel_insert(state, ReceivedCodeword(1, 2, a ^ b, 0b11)) == []
    newly = peel_insert(state, ReceivedCodeword(2, 2, b, 0b10))
    assert sorted(newly) == [1, 2]
    assert state.resolved == {1: a, 2: b}
    assert state.pending_count() == 0


def test_peel_high_degree_just_parks():
    state = PeelingState(3)
    assert peel_insert(state, ReceivedCodeword(1, 3, 7, 0b111)) == []
    assert state.resolved == {}
    assert state.pending_count() == 1


def test_peel_duplicates_and_empties_absorbed():
    state = PeelingState(2)
    peel_insert(state, ReceivedCodeword(1, 2, 5, 0b1))
    assert peel_insert(state, ReceivedCodeword(2, 2, 5, 0b1)) == []
    assert peel_insert(state, ReceivedCodeword(3, 2, 0, 0)) == []
    assert state.resolved == {1: 5}


def test_peel_inconsistent_resolution_raises():
    state = PeelingState(2)
    peel_insert(state, ReceivedCodeword(1, 2, 5, 0b1))
    with pytest.raises(DataCorruptionError):
        peel_insert(state, ReceivedCodeword(2, 2, 7, 0b1))


@pytest.mark.parametrize("flip", [1, 0], ids=["corrupt", "clean"])
def test_cascade_refuses_a_hop_resolved_twice(flip):
    # {2} resolves hop 2; its cascade derives hop 1 from {1,2} and hop 3
    # from {2,3}, and hop 3's derives hop 1 again from {1,3}.  A flipped
    # bit in {1,2} makes the two values of hop 1 disagree.
    a, b, c = 0xA1, 0xB2, 0xC3
    state = PeelingState(3)
    for mask, value in ((0b011, a ^ b ^ flip), (0b101, a ^ c), (0b110, b ^ c)):
        assert state.insert(mask, value) == []
    if flip:
        with pytest.raises(DataCorruptionError, match="resolved to two different values"):
            state.insert(0b010, b)
    else:
        assert sorted(state.insert(0b010, b)) == [1, 2, 3]
        assert state.resolved == {1: a, 2: b, 3: c}


def test_peel_path_length_mismatch():
    state = PeelingState(2)
    with pytest.raises(RangeError):
        peel_insert(state, ReceivedCodeword(1, 3, 5, 0b1))


@pytest.mark.parametrize("k, xor_set", [(3, -1), (2, 0b100)], ids=["negative", "hop-above-k"])
def test_xor_set_outside_hops_1_to_k_is_refused(k, xor_set):
    with pytest.raises(RangeError):
        decode_stream([ReceivedCodeword(1, k, 0, xor_set)], k)
    with pytest.raises(RangeError):
        peel_insert(PeelingState(k), ReceivedCodeword(1, k, 0, xor_set))


def test_complete_reads_which_hops_resolved():
    # insert trusts its caller's masks; a hop 3 at k=2 must not stand in
    # for the missing hop 2.
    state = PeelingState(2)
    state.insert(0b100, 5)
    state.insert(0b1, 7)
    assert not state.complete


def test_decode_stream_single_message():
    cws = [ReceivedCodeword(1, 1, 0x42, 0b1)]
    result = decode_stream(iter(cws), 1)
    assert result.complete and result.used == 1
    assert result.resolved == {1: 0x42}


def test_decode_stream_counts_useless_codewords():
    a, b = 0x5, 0x9
    cws = [
        ReceivedCodeword(1, 2, a, 0b1),
        ReceivedCodeword(2, 2, a, 0b1),  # duplicate still consumed
        ReceivedCodeword(3, 2, b, 0b10),
    ]
    result = decode_stream(iter(cws), 2)
    assert result.complete and result.used == 3


def test_decode_stream_incomplete_signal():
    cws = [ReceivedCodeword(1, 3, 0x1, 0b1)]
    result = decode_stream(iter(cws), 3)
    assert not result.complete
    assert result.resolved == {1: 0x1}
    assert result.used == 1


def test_decode_stream_respects_limit():
    cws = [ReceivedCodeword(n, 2, 0x5, 0b1) for n in range(10)]
    result = decode_stream(iter(cws), 2, limit=4)
    assert not result.complete and result.used == 4


def test_decode_stream_takes_at_most_limit_codewords():
    taken = []

    def stream(hops):
        for n, hop in enumerate(hops):
            taken.append(n)
            yield ReceivedCodeword(n, 2, 0x5 + hop, 1 << (hop - 1))

    for limit in (0, 1, 4):
        taken.clear()
        result = decode_stream(stream([1] * 10), 2, limit=limit)
        assert not result.complete and result.used == limit == len(taken)
    taken.clear()
    result = decode_stream(stream([1, 1, 2, 2, 1]), 2, limit=10)
    assert result.complete and result.used == 3 == len(taken)


def test_peeling_order_insensitive_outcome():
    rng = np.random.default_rng(7)
    k = 6
    ids = [int(v) for v in rng.integers(1, 2**32, size=k)]
    cws = []
    # decodable multiset: singleton for hop 1 plus a chain of pairs
    cws.append((1 << 0, ids[0]))
    for h in range(1, k):
        cws.append(((1 << h) | (1 << (h - 1)), ids[h] ^ ids[h - 1]))
    cws.append(((1 << 2) | (1 << 4), ids[2] ^ ids[4]))  # redundant extra
    want = {h + 1: ids[h] for h in range(k)}
    for perm_seed in range(10):
        order = np.random.default_rng(perm_seed).permutation(len(cws))
        state = PeelingState(k)
        for idx in order:
            mask, val = cws[idx]
            state.insert(mask, val)
        assert state.resolved == want


def test_two_hop_oracle_value_is_8_thirds():
    assert two_hop_expected_used(0.5, 0.5) == pytest.approx(8 / 3, abs=0)


def test_decode_stream_mean_matches_two_hop_markov_oracle():
    # Exact chain says E[used] = 8/3 for the Shifted Soliton at k=2.
    seq = shifted_soliton_sequence(2)
    scheme = RecipeDScheme(derive_apa(seq), seed=29)
    rng = np.random.default_rng(8)
    n = 20000
    total = 0
    for _ in range(n):
        ids = [int(v) for v in rng.integers(1, 2**32, size=2)]
        def stream():
            while True:
                pid = int(rng.integers(0, 2**64, dtype=np.uint64))
                mask = replay_xor_mask(pid, 2, scheme)
                value = 0
                for h in range(2):
                    if (mask >> h) & 1:
                        value ^= ids[h]
                yield ReceivedCodeword(pid, 2, value, mask)
        result = decode_stream(stream(), 2)
        assert result.complete
        assert result.resolved == {1: ids[0], 2: ids[1]}
        total += result.used
    mean = total / n
    want = float(two_hop_expected_used(0.5, 0.5))
    # std of used is ~1.2; 3 sigma on the mean at n=20000
    assert abs(mean - want) < 3 * 1.3 / np.sqrt(n)


def test_decode_result_repr_is_light():
    result = DecodeResult({1: 2}, 1, True)
    assert "state" not in repr(result)
