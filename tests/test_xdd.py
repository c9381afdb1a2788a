import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipe.errors import RangeError, SequenceValidationError
from recipe.xdd import (
    Xdd,
    XddSequence,
    binomial_log,
    q_from_mu,
    read_sequence,
    sequence_from_json,
    sequence_from_masses,
    sequence_to_json,
    validate_xdd,
    write_sequence,
    xdd_from_json,
    xdd_to_json,
)


# mu to q: the probability of one specific size-d XOR-set is
# q_from_mu(xdd.mu(d), xdd.k, d) = mu(d) / C(k, d).


def test_mu_to_q_shifted_soliton_point():
    xdd = Xdd(3, [0.5, 1 / 6, 1 / 3])
    assert q_from_mu(xdd.mu(2), 3, 2) == pytest.approx(1 / 18, abs=1e-15)


def test_mu_to_q_single_message():
    assert q_from_mu(Xdd(1, [1.0]).mu(1), 1, 1) == 1.0


def test_mu_to_q_half_half():
    assert q_from_mu(Xdd(2, [0.5, 0.5]).mu(1), 2, 1) == 0.25


def test_mu_to_q_degree_out_of_range():
    # Xdd.mu range-checks the degree before any q is formed.
    xdd = Xdd(2, [0.5, 0.5])
    with pytest.raises(RangeError):
        xdd.mu(0)
    with pytest.raises(RangeError):
        xdd.mu(3)


def test_binomial_log_small_values():
    assert binomial_log(2, 1) == pytest.approx(math.log(2), rel=1e-14)
    assert binomial_log(5, 2) == pytest.approx(math.log(10), rel=1e-14)
    assert binomial_log(0, 0) == pytest.approx(0.0, abs=1e-14)


def test_binomial_log_big_integer_oracle():
    # C(236,118) overflows every fixed-width integer; the log-gamma value
    # must still exponentiate to the exact big-integer answer.
    exact = math.comb(236, 118)
    got = math.exp(binomial_log(236, 118) - math.log(exact))
    assert abs(got - 1.0) < 1e-12


def test_binomial_log_range_error():
    with pytest.raises(RangeError):
        binomial_log(3, 4)
    with pytest.raises(RangeError):
        binomial_log(3, -1)


def test_binomial_log_pascal_rule():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 513))
        r = int(rng.integers(1, n))
        lhs = binomial_log(n, r)
        rhs = np.logaddexp(binomial_log(n - 1, r - 1), binomial_log(n - 1, r))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_validate_xdd_reports():
    assert validate_xdd((1, [1.0])) == []
    sum_bad = validate_xdd((2, [0.5, 0.6]))
    assert any("sum violation" in msg for msg in sum_bad)
    neg_bad = validate_xdd((2, [1.2, -0.2]))
    assert any("negativity violation at d=2" in msg for msg in neg_bad)
    assert any("above 1 at d=1" in msg for msg in neg_bad)


def test_xdd_constructor_rejects_invalid():
    with pytest.raises(SequenceValidationError):
        Xdd(2, [0.5, 0.6])
    with pytest.raises(SequenceValidationError, match="non-finite mass at d=1"):
        Xdd(2, [float("nan"), 1.0])
    with pytest.raises(RangeError):
        Xdd(0, [])


@st.composite
def random_xdd(draw):
    k = draw(st.integers(min_value=1, max_value=300))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    mass = np.array(raw)
    return Xdd(k, mass / mass.sum())


@settings(max_examples=60, deadline=None)
@given(random_xdd())
def test_q_times_binomial_recovers_mu(xdd):
    for d in range(1, xdd.k + 1):
        q = q_from_mu(xdd.mu(d), xdd.k, d)
        c = math.exp(binomial_log(xdd.k, d))
        assert abs(q * c - xdd.mu(d)) <= 1e-12


def test_q_from_mu_both_branches():
    # Exact division while C(n, d) fits a double, log space beyond it (C(236,
    # 118) ~ 1e69); a zero mass is a zero q on both.
    assert q_from_mu(0.5, 4, 2) == 0.5 / 6
    exact = Fraction(0.5) / math.comb(236, 118)
    assert abs(Fraction(q_from_mu(0.5, 236, 118)) / exact - 1) < 1e-12
    assert q_from_mu(0.0, 4, 2) == q_from_mu(0.0, 236, 118) == 0.0


def test_sequence_validation():
    with pytest.raises(SequenceValidationError):
        XddSequence(2, (Xdd(1, [1.0]),))
    with pytest.raises(SequenceValidationError):
        XddSequence(2, (Xdd(1, [1.0]), Xdd(1, [1.0])))
    seq = sequence_from_masses([[1.0], [0.25, 0.75]])
    assert seq.K == 2
    assert seq.xdd(2).mu(2) == 0.75
    with pytest.raises(RangeError):
        seq.xdd(3)


def test_sequence_json_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    masses = []
    for i in range(1, 9):
        m = rng.dirichlet(np.ones(i))
        masses.append(m)
    seq = sequence_from_masses(masses)
    path = tmp_path / "seq.json"
    write_sequence(seq, path)
    back = read_sequence(path)
    assert back.K == seq.K
    for a, b in zip(seq.xdds, back.xdds):
        assert np.abs(a.mass - b.mass).max() <= 1e-12
    # 17 significant digits are enough for decimal text to round-trip
    # doubles exactly, up to the read-side renormalization.
    doc = json.loads(path.read_text())
    assert doc["K"] == 8
    assert len(doc["mu"][7]) == 8


def test_sequence_json_rejects_malformed():
    with pytest.raises(SequenceValidationError):
        sequence_from_json('{"K": 2, "mu": [[1.0]]}')
    with pytest.raises(SequenceValidationError):
        sequence_from_json('{"K": 1, "mu": [[0.4]]}')
    with pytest.raises(SequenceValidationError):
        sequence_from_json('{"mu": [[1.0]]}')


def test_sequence_json_file_tolerance():
    # Text that lost bits still loads (1e-9 tolerance), then renormalizes.
    text = '{"K": 2, "mu": [[1.0], [0.2500000001, 0.75]]}'
    seq = sequence_from_json(text)
    assert abs(float(np.sum(seq.xdd(2).mass)) - 1.0) < 1e-15


def test_xdd_json_keeps_bits_within_constructed_tolerance():
    # A sum within SUM_TOL is read back as written; renormalizing anyway
    # would move the last bit of most of these.
    from recipe.distributions import robust_soliton
    for K in range(2, 300):
        xdd = robust_soliton(K)
        assert xdd_from_json(xdd_to_json(xdd)).mass.tobytes() == xdd.mass.tobytes()


def test_xdd_json_rejects_malformed():
    for text in ('{"mu": [1.0]}', '{"k": 1}', '[1.0]', '{"k": 1, "mu": [0.4]}',
                 '{"k": 2, "mu": [1.0]}'):
        with pytest.raises(SequenceValidationError):
            xdd_from_json(text)


def test_sequence_to_json_17_digits():
    seq = sequence_from_masses([[1.0], [1 / 3, 2 / 3]])
    text = sequence_to_json(seq)
    assert "0.33333333333333331" in text


def test_shared_types_are_immutable():
    # safe to share across threads read-only: no interior mutation allowed
    xdd = Xdd(2, [0.5, 0.5])
    with pytest.raises((ValueError, AttributeError)):
        xdd.mass[0] = 0.9
    with pytest.raises(AttributeError):
        xdd.k = 3
    from recipe.distributions import shifted_soliton_sequence
    from recipe.feasibility import derive_apa

    apa = derive_apa(shifted_soliton_sequence(3))
    with pytest.raises((ValueError, AttributeError)):
        apa.triples[1][0, 0] = 0.5


def test_exact_q_identities_against_big_integers():
    # The ratio identities used everywhere instead of raw binomials.
    for i in range(2, 21):
        for d in range(1, i):
            assert Fraction(math.comb(i - 1, d), math.comb(i, d)) == Fraction(i - d, i)
            assert Fraction(math.comb(i - 1, d), math.comb(i, d + 1)) == Fraction(d + 1, i)
