import numpy as np
import pytest

from recipe.distributions import (
    PintParams,
    expand_invariant,
    ideal_soliton,
    ideal_soliton_sequence,
    pint_sequence,
    pint_xdd,
    robust_soliton,
    shifted_soliton,
    shifted_soliton_sequence,
)
from recipe.errors import RangeError
from recipe.feasibility import check_feasible
from recipe.xdd import Xdd, validate_xdd

from oracles import binomial_conditioned_xdd, robust_soliton_table


def test_shifted_soliton_k3():
    assert list(shifted_soliton(3).mass) == [0.5, 1 / 6, 1 / 3]


def test_shifted_soliton_k1():
    assert list(shifted_soliton(1).mass) == [1.0]


def test_shifted_soliton_k4():
    assert list(shifted_soliton(4).mass) == [0.5, 1 / 6, 1 / 12, 0.25]


def test_shifted_soliton_sums_telescope():
    for k in (2, 17, 256, 1024):
        assert abs(float(np.sum(shifted_soliton(k).mass)) - 1.0) <= 1e-12


def test_shifted_soliton_sequence_shape():
    seq = shifted_soliton_sequence(5)
    assert seq.K == 5
    assert [x.k for x in seq.xdds] == [1, 2, 3, 4, 5]
    with pytest.raises(RangeError):
        shifted_soliton_sequence(0)
    with pytest.raises(RangeError):
        shifted_soliton(0)


def test_ideal_soliton_values():
    assert list(ideal_soliton(3).mass) == [1 / 3, 0.5, 1 / 6]
    assert list(ideal_soliton(1).mass) == [1.0]
    assert list(ideal_soliton(2).mass) == [0.5, 0.5]
    with pytest.raises(RangeError):
        ideal_soliton(0)


def test_ideal_soliton_sequence_infeasible_for_all_small_K():
    for K in range(3, 17):
        assert not check_feasible(ideal_soliton_sequence(K)).feasible


def test_robust_soliton_trivial():
    assert list(robust_soliton(1).mass) == [1.0]


def test_robust_soliton_matches_independent_table():
    got = robust_soliton(10, c=0.1, delta=0.5)
    want = robust_soliton_table(10, 0.1, 0.5)
    assert np.abs(got.mass - want).max() <= 1e-12
    # spike location: the independent table puts the mode at d=2
    assert int(np.argmax(got.mass)) == int(np.argmax(want)) == 1


def test_robust_soliton_always_valid():
    for k in list(range(1, 24)) + [59, 118, 236]:
        xdd = robust_soliton(k)
        assert validate_xdd((xdd.k, xdd.mass)) == []


def test_robust_soliton_param_errors():
    with pytest.raises(RangeError):
        robust_soliton(0)
    for c in (0.0, float("nan"), float("inf")):
        with pytest.raises(RangeError):
            robust_soliton(5, c=c)
    with pytest.raises(RangeError):
        robust_soliton(5, delta=1.0)


def test_pint_params_validation():
    with pytest.raises(RangeError):
        PintParams(-0.1, 0.5)
    with pytest.raises(RangeError):
        PintParams(0.5, 0.0)
    with pytest.raises(RangeError):
        PintParams(0.5, 1.0)


def test_pint_single_hop():
    assert list(pint_xdd(1, PintParams(0.3, 0.2)).mass) == [1.0]


def test_pint_pure_reservoir():
    assert list(pint_xdd(2, PintParams(1.0, 0.5)).mass) == [1.0, 0.0]


def test_pint_pure_binomial_conditioned():
    got = pint_xdd(2, PintParams(0.0, 0.5))
    want = [float(v) for v in binomial_conditioned_xdd(2, 0.5)]
    assert got.mass == pytest.approx(want, abs=1e-15)
    assert want == [2 / 3, 1 / 3]


def test_pint_sequence_always_valid():
    rng = np.random.default_rng(3)
    for _ in range(20):
        params = PintParams(float(rng.uniform(0, 1)), float(rng.uniform(0.01, 0.99)))
        seq = pint_sequence(12, params)
        for xdd in seq.xdds:
            assert validate_xdd((xdd.k, xdd.mass)) == []


def test_pint_matches_exact_mixture_conditioned():
    # the reported XDD is the full alpha/binomial mixture conditioned on
    # d >= 1: exactly what nonempty deliveries look like
    from fractions import Fraction
    from math import comb

    params = PintParams(0.4, 0.15)
    a, p = Fraction(2, 5), Fraction(params.p)
    for k in (2, 5, 9):
        pmf = [comb(k, d) * p**d * (1 - p) ** (k - d) for d in range(k + 1)]
        z = 1 - (1 - a) * pmf[0]
        want = [float(((a if d == 1 else 0) + (1 - a) * pmf[d]) / z)
                for d in range(1, k + 1)]
        assert pint_xdd(k, params).mass == pytest.approx(want, abs=1e-12)


def test_expand_invariant_shifted_soliton():
    seq = expand_invariant(shifted_soliton(3))
    want = shifted_soliton_sequence(3)
    for a, b in zip(seq.xdds, want.xdds):
        assert np.abs(a.mass - b.mass).max() <= 1e-12


def test_expand_invariant_point_mass():
    seq = expand_invariant(Xdd(1, [1.0]))
    assert seq.K == 1 and list(seq.xdd(1).mass) == [1.0]


def test_expand_invariant_round_trip_property():
    for K in (1, 2, 3, 7, 19, 40):
        seq = expand_invariant(shifted_soliton(K))
        want = shifted_soliton_sequence(K)
        for a, b in zip(seq.xdds, want.xdds):
            assert np.abs(a.mass - b.mass).max() <= 1e-12


def test_expand_invariant_clamps_tiny_negative_tail():
    # A valid XDD whose head sums a hair above 1 (within tolerance): the
    # negative tail is rounding, clamped to zero.
    mass = np.array([0.6, 0.4 + 2e-13, 0.0, 0.0])
    seq = expand_invariant(Xdd(4, mass))
    assert seq.xdd(3).mass[2] == 0.0


def test_expand_of_chain_feasible_point_is_feasible():
    # Any final-hop XDD satisfying the invariant chain expands to a fully
    # feasible sequence.
    from recipe.search import project_invariant_polytope

    rng = np.random.default_rng(11)
    for K in (3, 6, 12):
        for _ in range(10):
            mu = project_invariant_polytope(rng.dirichlet(np.ones(K)))
            seq = expand_invariant(Xdd(K, mu))
            assert check_feasible(seq).feasible
