import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from recipe.distributions import (
    expand_invariant,
    ideal_soliton_sequence,
    shifted_soliton,
    shifted_soliton_sequence,
)
from recipe.errors import (
    InfeasibleSequenceError,
    ProtocolError,
    RangeError,
    SequenceValidationError,
    UniformityError,
)
from recipe.feasibility import (
    SLACK_TOL,
    Apa,
    FeasibilityReport,
    apa_from_json,
    apa_to_json,
    check_feasible,
    derive_apa,
    exact_induced_sequence,
    read_apa,
    write_apa,
)
from recipe.search import random_feasible_sequence
from recipe.xdd import Xdd, sequence_from_masses

from oracles import (
    apa_triples_exact,
    exact_q,
    feasibility_violations_exact,
    induced_xdds_by_action_vectors,
    invariant_chain_violations_exact,
    make_violated_sequence,
)


def test_shifted_soliton_k3_feasible_with_hand_margin():
    seq = shifted_soliton_sequence(3)
    assert check_feasible(seq).feasible
    # the binding numbers at (i=3, d=1): q2(1)=1/4 >= q3(1)+q3(2)=2/9
    lhs = exact_q(seq.xdd(2).mass, 2, 1)
    rhs = exact_q(seq.xdd(3).mass, 3, 1) + exact_q(seq.xdd(3).mass, 3, 2)
    assert lhs == Fraction(1, 4)
    assert abs(rhs - Fraction(2, 9)) < Fraction(1, 10**15)
    assert lhs >= rhs


def test_ideal_soliton_k3_violation_values():
    report = check_feasible(ideal_soliton_sequence(3))
    assert not report.feasible
    assert len(report.violations) == 1
    v = report.violations[0]
    assert (v.i, v.d) == (3, 1)
    assert v.lhs == 0.25
    assert v.rhs == pytest.approx(5 / 18, abs=1e-15)


def test_single_hop_sequence_trivially_feasible():
    report = check_feasible(sequence_from_masses([[1.0]]))
    assert report.feasible and report.violations == ()


def test_check_feasible_matches_exact_oracle_on_random_sequences():
    rng = np.random.default_rng(21)
    for _ in range(25):
        K = int(rng.integers(2, 7))
        seq = random_feasible_sequence(K, rng)
        assert feasibility_violations_exact(seq) == []
        assert check_feasible(seq).feasible


def test_check_feasible_agrees_with_oracle_on_violations():
    rng = np.random.default_rng(22)
    for _ in range(25):
        K = int(rng.integers(3, 7))
        seq, i, d = make_violated_sequence(rng, K)
        exact = {(vi, vd) for vi, vd, _, _ in feasibility_violations_exact(seq)}
        got = {(v.i, v.d) for v in check_feasible(seq).violations}
        assert (i, d) in got
        assert got == exact


def test_invariant_codes_under_the_full_check():
    for K in (3, 8, 64):
        assert check_feasible(expand_invariant(shifted_soliton(K))).feasible
    bad = check_feasible(expand_invariant(Xdd(3, [0.2, 0.8, 0.0])))
    assert not bad.feasible
    v = bad.violations[0]
    # q-space: q_2(1) = 0.2/2 against q_3(1) + q_3(2) = 0.2/3 + 0.8/3
    assert (v.i, v.d) == (3, 1)
    assert v.lhs == pytest.approx(0.1) and v.rhs == pytest.approx(1 / 3)
    # the chain's range d <= K-2 is empty at K=2
    assert check_feasible(expand_invariant(Xdd(2, [0.1, 0.9]))).feasible


def test_invariant_chain_matches_full_check():
    rng = np.random.default_rng(5)
    verdicts = set()
    for K in range(2, 9):
        for _ in range(10):
            mu = Xdd(K, rng.dirichlet(np.ones(K)))
            chain_ok = not invariant_chain_violations_exact(mu.mass)
            assert check_feasible(expand_invariant(mu)).feasible == chain_ok
            verdicts.add(chain_ok)
    assert verdicts == {True, False}


def test_invariant_chain_within_slack_tolerance_is_feasible():
    # The exact chain fails at d=1 by 2e-12, inside the gate's SLACK_TOL:
    # the gate accepts the expanded sequence, and derive_apa realizes it.
    mu = Xdd(3, [0.5, 0.25 + 1e-12, 0.25 - 1e-12])
    assert invariant_chain_violations_exact(mu.mass) == [1]
    seq = expand_invariant(mu)
    assert check_feasible(seq).feasible
    apa = derive_apa(seq)
    assert apa.entry(3, 1)[2] == 0.0
    induced = exact_induced_sequence(apa)
    for got, want in zip(induced.xdds, seq.xdds):
        np.testing.assert_allclose(got.mass, want.mass, atol=1e-11)


def test_derive_apa_shifted_soliton_k3_hand_values():
    apa = derive_apa(shifted_soliton_sequence(3))
    assert apa.entry(2, 1) == pytest.approx((1 / 2, 1 / 4, 1 / 4), abs=1e-15)
    assert apa.entry(3, 1) == pytest.approx((2 / 9, 2 / 3, 1 / 9), abs=1e-15)
    assert apa.entry(3, 2) == pytest.approx((2 / 3, 1 / 9, 2 / 9), abs=1e-15)


def test_derive_apa_k2_half_half():
    apa = derive_apa(sequence_from_masses([[1.0], [0.5, 0.5]]))
    assert apa.entry(2, 1) == pytest.approx((1 / 2, 1 / 4, 1 / 4), abs=1e-15)


def test_derive_apa_k1_only_fixed_triple():
    apa = derive_apa(sequence_from_masses([[1.0]]))
    assert apa.K == 1
    assert apa.entry(1, 0) == (0.0, 0.0, 1.0)


def test_derive_apa_matches_exact_rational_oracle():
    rng = np.random.default_rng(33)
    for _ in range(15):
        K = int(rng.integers(2, 7))
        seq = random_feasible_sequence(K, rng)
        apa = derive_apa(seq)
        want = apa_triples_exact(seq)
        for (i, d), (pa, ps, pr) in want.items():
            got = apa.entry(i, d)
            assert got[0] == pytest.approx(float(pa), abs=1e-12)
            assert got[1] == pytest.approx(float(ps), abs=1e-12)
            assert got[2] == pytest.approx(float(pr), abs=1e-12)


def test_derive_apa_triples_are_distributions():
    rng = np.random.default_rng(8)
    for _ in range(20):
        seq = random_feasible_sequence(int(rng.integers(2, 8)), rng)
        apa = derive_apa(seq)
        for i in range(2, apa.K + 1):
            for d in range(1, i):
                if np.isnan(apa.triples[i - 1][d - 1][0]):  # unreachable
                    continue
                t = apa.entry(i, d)
                assert min(t) >= 0.0
                assert abs(sum(t) - 1.0) <= 1e-12


def test_derive_apa_rejects_infeasible():
    with pytest.raises(InfeasibleSequenceError) as exc:
        derive_apa(ideal_soliton_sequence(3))
    assert exc.value.report.violations[0].i == 3


def test_derive_apa_necessity_on_constructed_violations():
    rng = np.random.default_rng(55)
    for _ in range(20):
        seq, _, _ = make_violated_sequence(rng, int(rng.integers(3, 7)))
        with pytest.raises(InfeasibleSequenceError):
            derive_apa(seq)


def test_unreachable_entries_are_sentinels():
    # mu_2 = (1, 0): no packet ever reaches hop 3 with degree 2.
    seq = sequence_from_masses([[1.0], [1.0, 0.0], [1.0, 0.0, 0.0]])
    apa = derive_apa(seq)
    assert np.isnan(apa.triples[2][1]).all()
    with pytest.raises(ProtocolError):
        apa.entry(3, 2)
    induced = exact_induced_sequence(apa)
    for a, b in zip(induced.xdds, seq.xdds):
        assert np.abs(a.mass - b.mass).max() <= 1e-12


def test_exact_induced_round_trip_shifted_soliton():
    seq = shifted_soliton_sequence(3)
    induced = exact_induced_sequence(derive_apa(seq))
    for a, b in zip(induced.xdds, seq.xdds):
        assert np.abs(a.mass - b.mass).max() <= 1e-12


def test_exact_induced_hop1_only():
    apa = derive_apa(sequence_from_masses([[1.0]]))
    assert list(exact_induced_sequence(apa).xdd(1).mass) == [1.0]


def test_exact_induced_round_trip_random():
    rng = np.random.default_rng(99)
    for _ in range(10):
        seq = random_feasible_sequence(int(rng.integers(2, 7)), rng)
        induced = exact_induced_sequence(derive_apa(seq))
        for a, b in zip(induced.xdds, seq.xdds):
            assert np.abs(a.mass - b.mass).max() <= 1e-10


def test_exact_induced_agrees_with_action_vector_enumeration():
    # Cross-validate the set-walk oracle against a from-scratch walk over
    # whole action vectors with exact rational probabilities.
    rng = np.random.default_rng(4)
    seq = random_feasible_sequence(4, rng)
    apa_exact = apa_triples_exact(seq)
    want = induced_xdds_by_action_vectors(apa_exact, 4)
    got = exact_induced_sequence(derive_apa(seq))
    for w, g in zip(want, got.xdds):
        assert np.abs(w - g.mass).max() <= 1e-12


def test_exact_induced_enumeration_bound():
    seq = shifted_soliton_sequence(13)
    apa = derive_apa(seq)
    with pytest.raises(RangeError):
        exact_induced_sequence(apa)
    # prefix enumeration under the bound is fine
    induced = exact_induced_sequence(Apa(5, apa.triples[:5]))
    assert induced.K == 5


@pytest.mark.parametrize("hop2, message", [
    ([0.0, 0.3, 0.7], r"size-1 sets at hop 2 span probabilities \[0.3, 0.7\]"),
    ([0.0, 1.0, 0.0], "only 1/2 size-1 sets reachable at hop 2"),
])
def test_exact_induced_refuses_unequal_same_size_sets(hop2, message):
    # Hop 1 always replaces; these hop-2 rows give {1} and {2} unequal odds.
    apa = Apa(2, (np.array([[0.0, 0.0, 1.0]]), np.array([hop2])))
    with pytest.raises(UniformityError, match=message):
        exact_induced_sequence(apa)


def test_facet_sequence_round_trips_with_zero_replace():
    # mu(d) proportional to 1/d makes every chain constraint tight; the
    # derived probabilities include p_R = 0 entries and must still
    # reproduce the sequence exactly.
    K = 5
    h = sum(1.0 / d for d in range(1, K + 1))
    mu = Xdd(K, [1.0 / (d * h) for d in range(1, K + 1)])
    seq = expand_invariant(mu)
    assert check_feasible(seq).feasible
    apa = derive_apa(seq)
    zero_replace = [
        (i, d)
        for i in range(2, K + 1)
        for d in range(1, i)
        if apa.triples[i - 1][d - 1][2] <= 1e-15  # False on an unreachable NaN row
    ]
    assert zero_replace, "expected at least one tight facet entry"
    induced = exact_induced_sequence(apa)
    for a, b in zip(induced.xdds, seq.xdds):
        assert np.abs(a.mass - b.mass).max() <= 1e-10


def test_report_is_its_violation_list():
    assert [f.name for f in dataclasses.fields(FeasibilityReport)] == ["violations"]
    assert FeasibilityReport().feasible
    report = check_feasible(ideal_soliton_sequence(3))
    assert report.violations and not report.feasible


def _pushed_past_facet(m):
    # Hop 2 puts mass m on degree 2; hop 3 asks (3, 2) for m + 5e-13, a
    # mu-space slack of -5e-13 that the check forgives, so p_R at (3, 2)
    # computes to -5e-13 / m before the facet renormalization.
    c = 3 * (m + 5e-13)
    return sequence_from_masses([[1.0], [1.0 - m, m], [1.0 - c, c, 0.0]])


@pytest.mark.parametrize("m", [1e-5, 1e-7, 1e-13])
def test_every_sequence_check_accepts_derives(m):
    seq = _pushed_past_facet(m)
    slack = seq.xdds[1].mass[1] - seq.xdds[2].mass[1] / 3
    assert -SLACK_TOL < slack < 0.0
    assert check_feasible(seq).feasible
    apa = derive_apa(seq)
    assert apa.entry(3, 2)[2] == 0.0
    apa_from_json(apa_to_json(apa))  # the file form passes Apa's row checks
    induced = exact_induced_sequence(apa)
    for a, b in zip(induced.xdds, seq.xdds):
        assert np.abs(a.mass - b.mass).max() <= 1e-12


def test_apa_json_round_trip_with_sentinels(tmp_path):
    seq = sequence_from_masses([[1.0], [1.0, 0.0], [1.0, 0.0, 0.0]])
    apa = derive_apa(seq)
    path = tmp_path / "apa.json"
    write_apa(apa, path)
    back = read_apa(path)
    assert back.K == apa.K
    assert np.isnan(back.triples[2][1]).all()
    assert back.entry(3, 1) == pytest.approx(apa.entry(3, 1), abs=0)
    assert "null" in apa_to_json(apa)


def test_apa_digest_distinguishes():
    a1 = derive_apa(shifted_soliton_sequence(3))
    a2 = derive_apa(sequence_from_masses([[1.0], [0.5, 0.5], [0.4, 0.2, 0.4]]))
    assert a1.digest() == derive_apa(shifted_soliton_sequence(3)).digest()
    assert a1.digest() != a2.digest()


def test_apa_entry_range_errors():
    apa = derive_apa(shifted_soliton_sequence(3))
    with pytest.raises(RangeError):
        apa.entry(4, 1)
    with pytest.raises(RangeError):
        apa.entry(2, 2)
    with pytest.raises(RangeError):
        apa.entry(1, 1)


def test_apa_json_shape_validation():
    with pytest.raises(Exception):
        apa_from_json('{"K": 2, "p": [[[0,0,1]], [[0.1,0.2,0.7],[0,0,1]]]}')


@pytest.mark.parametrize("hops", [
    pytest.param([[[0, 1, 0]], [[0.5, 0.25, 0.25]]], id="hop-1-skips"),
    pytest.param([[[0, 0, 1]], [[0.9, 0.9, 0.9]]], id="sum-above-1"),
    pytest.param([[[0, 0, 1]], [[-0.5, 2.0, 0.0]]], id="negative-entry"),
    pytest.param([[[0, 0, 1]], [[0.5, None, 0.5]]], id="partly-null"),
    pytest.param([[[0, 0, 1]], [[0.5, 0.5, 0.0], [0, 0, 1]]], id="extra-row"),
])
def test_apa_rows_validated_at_construction(tmp_path, hops):
    # The batch kernel and replay hard-code Replace at hop 1, and every
    # encoder reads a reachable row as a probability vector.
    path = tmp_path / "apa.json"
    path.write_text(json.dumps({"K": 2, "p": hops}))
    with pytest.raises(SequenceValidationError):
        read_apa(path)
    with pytest.raises(SequenceValidationError):
        Apa(2, tuple(np.array(hop, dtype=float) for hop in hops))


def test_apa_accepts_null_rows_and_file_rounding():
    apa = apa_from_json('{"K": 3, "p": [[[0, 0, 1]], [[0.5, 0.25, 0.2500000005]], '
                        '[[0.5, 0.5, 0], null]]}')
    assert np.isfinite(apa.triples[1][0]).all() and np.isnan(apa.triples[2][1]).all()
