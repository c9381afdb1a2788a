import dataclasses
import hashlib

import numpy as np
import pytest

from recipe.distributions import PintParams, shifted_soliton_sequence
from recipe import evaluation
from recipe.errors import InternalConsistencyError, RangeError, SequenceValidationError
from recipe.feasibility import derive_apa
from recipe.evaluation import (
    CAP_FACTOR,
    PintScheme,
    RecipeDScheme,
    RecipeTScheme,
    compare_t_vs_d,
    curves_to_csv,
    degree_histogram,
    derive_seed,
    efficiency_curve,
    mean_curve_gap,
    read_curves_csv,
    run_trials,
    tune_pint,
    write_curves_csv,
)
from recipe.protocol import REPLACE, SKIP, Avst, generate_avst

from oracles import coupon_collector_mean, two_hop_expected_used


def _ss_scheme(K, seed=3):
    return RecipeDScheme(derive_apa(shifted_soliton_sequence(K)), seed=seed)


def test_run_trials_single_hop_uses_one():
    for scheme in (
        _ss_scheme(4),
        PintScheme(PintParams(0.5, 0.3), seed=1, K=4),
    ):
        used, completed = run_trials(scheme, 1, [11])
        assert completed.tolist() == [True] and used.tolist() == [1]


def test_run_trials_completed_used_at_least_k():
    used, completed = run_trials(_ss_scheme(6), 6, [derive_seed(1, 6, t) for t in range(50)])
    assert completed.all()
    assert (used >= 6).all()


def test_run_trials_one_seed_alone_matches_the_batch():
    scheme = _ss_scheme(5)
    seeds = [derive_seed(2, 5, t) for t in range(40)]
    used, completed = run_trials(scheme, 5, seeds)
    for j, s in enumerate(seeds):
        alone_used, alone_completed = run_trials(scheme, 5, [s])
        assert alone_used[0] == used[j] and alone_completed[0] == completed[j]


def _k12_scheme(name):
    apa = derive_apa(shifted_soliton_sequence(12))
    if name == "recipe-t":
        return RecipeTScheme(generate_avst(apa, 256, seed=6), seed=5)
    if name == "pint":
        return PintScheme(PintParams(0.5, 0.2), seed=5, K=12)
    return RecipeDScheme(apa, seed=5)


@pytest.mark.parametrize("name", ["recipe-d", "recipe-t", "pint"])
def test_run_trials_does_not_depend_on_the_chunk_size(monkeypatch, name):
    # The default chunk holds all 40 trials.  One cell per chunk runs one
    # trial per kernel call; 1100 cells give chunks of 11 at k=7 and 3 at
    # k=12, which split 40 trials unevenly.
    scheme = _k12_scheme(name)
    for k in (1, 7, 12):
        seeds = [derive_seed(13, k, t) for t in range(40)]
        used, completed = run_trials(scheme, k, seeds)
        for cells in (1, 1100):
            monkeypatch.setattr(evaluation, "_CHUNK_CELLS", cells)
            got_used, got_completed = run_trials(scheme, k, seeds)
            monkeypatch.undo()
            assert got_used.tolist() == used.tolist(), (k, cells)
            assert got_completed.tolist() == completed.tolist(), (k, cells)


def test_coupon_collector_mean_k3():
    # pure degree-1 coding: classic coupon collector, E = 3 * (1 + 1/2 + 1/3)
    scheme = PintScheme(PintParams(1.0, 0.5), seed=4, K=8)
    seeds = [derive_seed(5, 3, t) for t in range(20000)]
    used, completed = run_trials(scheme, 3, seeds)
    assert completed.all()
    want = float(coupon_collector_mean(3))
    assert want == 5.5
    stderr = used.std(ddof=1) / np.sqrt(used.size)
    assert abs(used.mean() - want) < 3 * stderr


def test_two_hop_mean_matches_markov_oracle():
    scheme = _ss_scheme(2, seed=6)
    seeds = [derive_seed(7, 2, t) for t in range(20000)]
    used, completed = run_trials(scheme, 2, seeds)
    assert completed.all()
    want = float(two_hop_expected_used(0.5, 0.5))
    stderr = used.std(ddof=1) / np.sqrt(used.size)
    assert abs(used.mean() - want) < 3 * stderr


def test_curve_deterministic_and_thread_invariant():
    scheme = _ss_scheme(4)
    a = efficiency_curve(scheme, 4, trials=200, seed=9)
    b = efficiency_curve(scheme, 4, trials=200, seed=9)
    assert a == b
    c = efficiency_curve(scheme, 4, trials=200, seed=9, threads=2)
    assert a == c
    d = efficiency_curve(scheme, 4, trials=200, seed=10)
    assert a != d


def test_curve_point_fields():
    scheme = _ss_scheme(3)
    curve = efficiency_curve(scheme, 3, trials=500, seed=1)
    assert [p.k for p in curve.points] == [1, 2, 3]
    for p in curve.points:
        assert p.q99 >= p.mean  # heavy right tail
        assert p.trials == 500
        assert 0.0 <= p.incomplete_rate <= 1.0
    assert curve.point(1).mean == 1.0
    with pytest.raises(RangeError):
        curve.point(9)
    with pytest.raises(RangeError):
        efficiency_curve(scheme, 3, trials=0, seed=1)


def test_curve_refuses_a_bad_diameter_or_length_before_any_trial(monkeypatch):
    ran = []
    monkeypatch.setattr("recipe.evaluation.run_trials",
                        lambda scheme, k, seeds: ran.append(k))
    scheme = _ss_scheme(5)
    for K, ks in ((0, None), (-1, None), (7, None), (5, [2, 6])):
        with pytest.raises(RangeError):
            efficiency_curve(scheme, K, trials=2, seed=1, ks=ks)
    # Would split a CSV field or row, or lose its edges to read_curves_csv.
    for label in ("a,b", "a\rb", "a\nb", "  x ", " x", "x\t"):
        with pytest.raises(RangeError, match="label"):
            efficiency_curve(dataclasses.replace(scheme, label=label), 5, trials=2, seed=1)
    for threads in (0, -4):
        with pytest.raises(RangeError, match=f"threads must be >= 1, got {threads}"):
            efficiency_curve(scheme, 5, trials=2, seed=1, threads=threads)
    assert ran == []


@pytest.mark.parametrize("scheme", [_ss_scheme(8), PintScheme(PintParams(0.5, 0.2), seed=1, K=8)],
                         ids=["recipe-d", "pint"])
def test_a_wrong_resolution_is_caught_against_ground_truth(monkeypatch, scheme):
    # Codeword values off by one bit: peeling completes, to the wrong IDs.
    values = evaluation._codeword_values
    monkeypatch.setattr(evaluation, "_codeword_values",
                        lambda members, ids: values(members, ids ^ np.uint64(1)))
    with pytest.raises(InternalConsistencyError, match="decoded to .*, ground truth"):
        run_trials(scheme, 8, [derive_seed(4, 8, t) for t in range(3)])


def test_curve_ks_subset():
    scheme = _ss_scheme(6)
    curve = efficiency_curve(scheme, 6, trials=50, seed=2, ks=[2, 5])
    assert [p.k for p in curve.points] == [2, 5]


def test_stderr_shrinks_with_sqrt_trials():
    scheme = _ss_scheme(5)
    small = efficiency_curve(scheme, 5, trials=4000, seed=3, ks=[5])
    big = efficiency_curve(scheme, 5, trials=8000, seed=3, ks=[5])
    ratio = big.point(5).stderr / small.point(5).stderr
    assert abs(ratio - 1 / np.sqrt(2)) < 0.1 / np.sqrt(2)


def test_degree_histogram_matches_target_for_pint():
    # conditioned on d >= 1, the delivered degrees follow the reported XDD
    params = PintParams(0.4, 0.2)
    k = 6
    scheme = PintScheme(params, seed=8, K=k)
    n = 200000
    counts = degree_histogram(scheme, k, n, seed=5)
    from recipe.distributions import pint_xdd

    target = pint_xdd(k, params).mass
    n_kept = counts.sum()  # empties excluded
    sigma = np.maximum(np.sqrt(n_kept * target * (1 - target)), 1.0)
    assert (np.abs(counts - n_kept * target) <= 4 * sigma).all()


def test_recipe_t_single_row_table_caps_out():
    # L=1: every packet carries the same codeword; only hop 1 of a 3-hop
    # path can ever resolve, so the trial hits the cap and reports as
    # incomplete with used == 200k.
    digest = "00" * 32
    avst = Avst(1, 3, np.array([[REPLACE, SKIP, SKIP]], dtype=np.uint8), 0, digest)
    scheme = RecipeTScheme(avst, seed=1)
    used, completed = run_trials(scheme, 3, [3])
    assert completed.tolist() == [False]
    assert used.tolist() == [CAP_FACTOR * 3]


def test_compare_t_vs_d_and_gap():
    seq = shifted_soliton_sequence(6)
    curves = compare_t_vs_d(seq, L_values=[40, 4000], trials=400, seed=5, ks=[2, 4, 6])
    assert set(curves) == {"recipe-d", "recipe-t:L=40", "recipe-t:L=4000"}
    gap_small = mean_curve_gap(curves["recipe-t:L=40"], curves["recipe-d"])
    gap_big = mean_curve_gap(curves["recipe-t:L=4000"], curves["recipe-d"])
    assert gap_big < gap_small


def test_tune_pint_small_grid():
    # The fixed grid at K=6: 21 alphas x p = j/6 for j = 1..5, tuned at k=3.
    params, results = tune_pint(6, trials=60, seed=6)
    assert len(results) == 105
    assert {r[:2] for r in results} == {(round(0.05 * i, 2), j / 6)
                                        for i in range(21) for j in range(1, 6)}
    assert min(r[2] for r in results) == [r for r in results if (r[0], r[1]) == (params.alpha, params.p)][0][2]
    assert hashlib.sha256(repr((params, results)).encode()).hexdigest() == (
        "a6cf6be5365b321659daa6aa9939ebacd53606926f9e79194c955b9c84eee667")


@pytest.mark.parametrize("trials", [0, -5])
def test_tune_pint_refuses_fewer_than_one_trial(trials):
    with pytest.raises(RangeError, match="at least one trial per point is required"):
        tune_pint(6, trials=trials)


@pytest.mark.parametrize("K", [1, 0])
def test_tune_pint_empty_grid_is_a_range_error(K):
    with pytest.raises(RangeError, match="grid .* is empty"):
        tune_pint(K, trials=2)


def test_csv_round_trip(tmp_path):
    scheme = _ss_scheme(3)
    curve = efficiency_curve(scheme, 3, trials=50, seed=7)
    text = curves_to_csv([curve])
    assert text.splitlines()[0] == "scheme,K,k,trials,mean,stderr,q99,incomplete_rate"
    path = tmp_path / "curve.csv"
    write_curves_csv(path, [curve])
    back = read_curves_csv(path)
    assert back == [curve]
    with pytest.raises(SequenceValidationError):
        (tmp_path / "bad.csv").write_text("nope\n")
        read_curves_csv(tmp_path / "bad.csv")


def test_q99_is_order_statistic():
    scheme = _ss_scheme(2)
    trials = 1000
    curve = efficiency_curve(scheme, 2, trials=trials, seed=8, ks=[2])
    seeds = [derive_seed(8, 2, t) for t in range(trials)]
    used, _ = run_trials(scheme, 2, seeds)
    want = float(np.sort(used)[int(np.ceil(0.99 * trials)) - 1])
    assert curve.point(2).q99 == want


def test_derive_seed_is_order_free_and_spread():
    seeds = {derive_seed(1, k, t) for k in range(1, 5) for t in range(100)}
    assert len(seeds) == 400
