"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here; nothing is deferred to later
calibration.  The heavy statistical criteria use fixed seeds, so they are
deterministic run to run.
"""

import math

import numpy as np
import pytest

from acceptance_lines import ACCEPTANCE_LINES

from recipe.distributions import (
    PintParams,
    ideal_soliton_sequence,
    shifted_soliton_sequence,
)
from recipe.errors import InfeasibleSequenceError
from recipe.evaluation import (
    PintScheme,
    RecipeDScheme,
    RecipeTScheme,
    compare_t_vs_d,
    degree_histogram,
    derive_seed,
    mean_curve_gap,
    run_trials,
    tune_pint,
)
from recipe.feasibility import check_feasible, derive_apa, exact_induced_sequence
from recipe.protocol import generate_avst
from recipe.search import (
    hrs_search,
    mean_field_objective,
    qps_search,
    random_feasible_sequence,
)
from recipe.xdd import Xdd

from oracles import coupon_collector_mean, make_violated_sequence

THREADS = 2


def _report(name: str, ok: bool, detail: str):
    line = f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line, flush=True)         # live with -s
    ACCEPTANCE_LINES.append(line)          # end-of-run summary otherwise
    assert ok, f"{name}: {detail}"


def _mean_at(scheme, k: int, trials: int, seed: int):
    seeds = [derive_seed(seed, k, t) for t in range(trials)]
    used, completed = run_trials(scheme, k, seeds)
    return float(used.mean()), float(used.std(ddof=1) / math.sqrt(trials)), completed


def test_criterion_01_feasibility_roundtrip_exact():
    """Round-trip and necessity of the feasibility condition, exactly."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        K = int(rng.integers(2, 7))
        seq = random_feasible_sequence(K, rng)
        induced = exact_induced_sequence(derive_apa(seq))  # uniformity at 1e-10 inside
        err = max(float(np.abs(a.mass - b.mass).max())
                  for a, b in zip(induced.xdds, seq.xdds))
        worst = max(worst, err)
    assert worst <= 1e-10
    rejected = 0
    for _ in range(200):
        seq, _, _ = make_violated_sequence(rng, int(rng.integers(3, 7)))
        with pytest.raises(InfeasibleSequenceError):
            derive_apa(seq)
        rejected += 1
    _report("criterion 1 (feasibility round-trip + necessity)", True,
            f"200 round-trips, worst error {worst:.2e} <= 1e-10; "
            f"{rejected}/200 violated sequences rejected")


def test_criterion_02_shifted_soliton_always_feasible():
    """Shifted Soliton is realizable at every diameter up to 1024."""
    for K in range(1, 1025):
        report = check_feasible(shifted_soliton_sequence(K))
        assert report.feasible, f"K={K} unexpectedly infeasible"
    _report("criterion 2 (Shifted Soliton feasible, K=1..1024)", True,
            "all 1024 diameters feasible")


def test_criterion_03_ideal_soliton_infeasible():
    """Concatenated truncated Ideal Solitons are never realizable."""
    for K in range(3, 65):
        assert not check_feasible(ideal_soliton_sequence(K)).feasible, f"K={K}"
    report = check_feasible(ideal_soliton_sequence(3))
    v = report.violations[0]
    assert (v.i, v.d) == (3, 1)
    assert v.lhs == 0.25
    assert v.rhs == pytest.approx(5 / 18, abs=1e-15)
    _report("criterion 3 (Ideal Soliton infeasible, K=3..64)", True,
            f"all fail; K=3 violation (i=3,d=1): {v.lhs} < {v.rhs} = 5/18")


def test_criterion_04_encoder_degree_statistics():
    """Per-hop empirical XDD of the degree-based encoder, 4 sigma bins."""
    K = 8
    seq = shifted_soliton_sequence(K)
    scheme = RecipeDScheme(derive_apa(seq), seed=4001)
    n = 10**6
    worst_z = 0.0
    for k in range(1, K + 1):
        counts = degree_histogram(scheme, k, n, seed=derive_seed(4002, k))
        target = seq.xdd(k).mass
        sigma = np.maximum(np.sqrt(n * target * (1 - target)), 1e-9)
        z = np.abs(counts - n * target) / sigma
        worst_z = max(worst_z, float(z.max()))
        assert (z <= 4.0).all(), f"k={k}, worst z={z.max():.2f}"
    _report("criterion 4 (encoder statistics, 1e6 packets/hop)", True,
            f"all degree bins within 4 sigma, worst z={worst_z:.2f}")


def test_criterion_05_table_convergence():
    """Table-based encoding converges to degree-based as rows grow."""
    K = 16
    trials = 10**5
    seed = 5001
    by_label = compare_t_vs_d(shifted_soliton_sequence(K), [1000, 30000], trials, seed,
                              threads=THREADS)
    d_curve = by_label["recipe-d"]
    curves = {L: by_label[f"recipe-t:L={L}"] for L in (1000, 30000)}
    worst_rel = 0.0
    for p in curves[30000].points:
        rel = abs(p.mean - d_curve.point(p.k).mean) / d_curve.point(p.k).mean
        worst_rel = max(worst_rel, rel)
        assert rel <= 0.03, f"k={p.k}: relative gap {rel:.4f} > 3%"
    gap_1000 = mean_curve_gap(curves[1000], d_curve)
    gap_30000 = mean_curve_gap(curves[30000], d_curve)
    assert gap_1000 >= gap_30000, f"{gap_1000:.4f} < {gap_30000:.4f}"
    _report("criterion 5 (table convergence, K=16, 1e5 trials/k)", True,
            f"L=30000 worst per-k gap {worst_rel * 100:.2f}% <= 3%; "
            f"mean gap L=1000 {gap_1000:.3f} >= L=30000 {gap_30000:.3f}")


def test_criterion_06_coupon_collector_baseline():
    """Pure degree-1 coding equals the coupon-collector mean, 3 stderr."""
    scheme = PintScheme(PintParams(1.0, 0.5), seed=6001, K=32)
    trials = 10**4
    worst_z = 0.0
    for k in range(1, 33):
        mean, stderr, completed = _mean_at(scheme, k, trials, 6002)
        assert completed.all()
        want = float(coupon_collector_mean(k))
        if stderr == 0.0:  # k=1 is deterministic: one codeword, one hop
            assert mean == want == 1.0
            continue
        z = abs(mean - want) / stderr
        worst_z = max(worst_z, z)
        assert z < 3.0, f"k={k}: mean {mean:.3f} vs k*H_k {want:.3f}, z={z:.2f}"
    _report("criterion 6 (coupon-collector analytic baseline, k=1..32)", True,
            f"all means within 3 stderr of k*H_k, worst z={worst_z:.2f}")


def test_criterion_07_headline_comparison_vs_tuned_pint():
    """SS and the QPS code beat grid-tuned PINT at k=K by >= 15%."""
    K = 36
    trials = 10**4
    params, _ = tune_pint(K, trials=400, seed=7001)
    pint = PintScheme(params, seed=7002, K=K)
    ss = RecipeDScheme(derive_apa(shifted_soliton_sequence(K)), seed=7002, label="ss")
    qps_seq = qps_search(K, restarts=6, seed=7003)
    qps = RecipeDScheme(derive_apa(qps_seq), seed=7002, label="qps")
    m_pint, _, _ = _mean_at(pint, K, trials, 7004)
    m_ss, _, _ = _mean_at(ss, K, trials, 7004)
    m_qps, _, _ = _mean_at(qps, K, trials, 7004)
    margin_ss = (m_pint - m_ss) / m_pint
    margin_qps = (m_pint - m_qps) / m_pint
    assert margin_ss >= 0.15, f"SS margin {margin_ss:.3f} < 15%"
    assert margin_qps >= 0.15, f"QPS margin {margin_qps:.3f} < 15%"
    _report("criterion 7 (headline comparison vs tuned PINT, K=36)", True,
            f"PINT(a={params.alpha:g},p={params.p:.3f}) mean {m_pint:.1f}; "
            f"SS {m_ss:.1f} (-{margin_ss * 100:.1f}%), "
            f"QPS {m_qps:.1f} (-{margin_qps * 100:.1f}%); both >= 15%")


def test_criterion_08_qps_beats_shifted_soliton():
    """QPS consistently at or below Shifted Soliton at k = K."""
    trials = 10**4
    details = []
    for K in (36, 59):
        qps_seq = qps_search(K, restarts=6, seed=8001)
        qps = RecipeDScheme(derive_apa(qps_seq), seed=8002)
        ss = RecipeDScheme(derive_apa(shifted_soliton_sequence(K)), seed=8002)
        m_q, se_q, _ = _mean_at(qps, K, trials, 8003)
        m_s, se_s, _ = _mean_at(ss, K, trials, 8003)
        assert m_q < m_s - 3 * (se_q + se_s), \
            f"K={K}: QPS {m_q:.2f} not significantly below SS {m_s:.2f}"
        details.append(f"K={K}: QPS {m_q:.1f} < SS {m_s:.1f} "
                       f"({(m_s - m_q) / (se_q + se_s):.0f} combined-se)")
    _report("criterion 8 (QPS <= SS at k=K, K in {36,59})", True, "; ".join(details))


def test_criterion_09_hrs_beats_qps_at_full_length():
    """The backward search's tail (Robust Soliton start) wins at k = K.

    K in {118, 236} are documented as slow-path runs (see README), not CI.
    """
    K = 59
    trials = 10**4
    hrs_seq = hrs_search(K, candidates_per_hop=32, trials_per_candidate=256, seed=9001)
    qps_seq = qps_search(K, restarts=6, seed=9002)
    hrs = RecipeDScheme(derive_apa(hrs_seq), seed=9003)
    qps = RecipeDScheme(derive_apa(qps_seq), seed=9003)
    m_h, se_h, _ = _mean_at(hrs, K, trials, 9004)
    m_q, se_q, _ = _mean_at(qps, K, trials, 9004)
    assert m_h < m_q, f"HRS {m_h:.2f} not below QPS {m_q:.2f} at k={K}"
    _report("criterion 9 (HRS beats QPS at k=K=59)", True,
            f"HRS {m_h:.2f} < QPS {m_q:.2f} "
            f"({(m_q - m_h) / (se_h + se_q):.0f} combined-se)")


def test_criterion_10_mean_field_spot_values_and_toggle():
    """Hand-derived mean-field values at 1e-12; second-order shifts <= 10%."""
    total, terms = mean_field_objective(Xdd(2, [0.5, 0.5]))
    assert total == pytest.approx(2.0, abs=1e-12)
    assert terms.t[0] == pytest.approx(2.0, abs=1e-12)
    assert terms.t[1] == pytest.approx(0.0, abs=1e-12)
    total1, _ = mean_field_objective(Xdd(1, [1.0]))
    assert total1 == pytest.approx(1.0, abs=1e-12)
    total3, _ = mean_field_objective(Xdd(2, [1.0, 0.0]))
    assert total3 == pytest.approx(3.0, abs=1e-12)

    K = 36
    trials = 5000
    first = qps_search(K, restarts=4, seed=10001, second_order=False)
    second = qps_search(K, restarts=4, seed=10001, second_order=True)
    m1, _, _ = _mean_at(RecipeDScheme(derive_apa(first), seed=10002), K, trials, 10003)
    m2, _, _ = _mean_at(RecipeDScheme(derive_apa(second), seed=10002), K, trials, 10003)
    shift = abs(m2 - m1) / m1
    assert shift <= 0.10, f"order toggle moved efficiency by {shift:.3f} > 10%"
    _report("criterion 10 (mean-field spot values + order toggle)", True,
            f"three spot values at 1e-12; toggle shifts k=K efficiency by "
            f"{shift * 100:.2f}% <= 10%")


def test_criterion_11_end_to_end_decode_correctness():
    """1e5 randomized instances decode to exactly the ground truth."""
    K = 16
    seq = shifted_soliton_sequence(K)
    apa = derive_apa(seq)
    avst = generate_avst(apa, 30000, seed=11001)
    schemes = [
        RecipeDScheme(apa=apa, seed=11002),
        RecipeTScheme(avst, seed=11002),
        PintScheme(PintParams(0.3, 2 / K), seed=11002, K=K),
    ]
    per_cell = 2084  # 3 modes x 16 lengths x 2084 > 1e5 instances
    instances = 0
    completed_n = 0
    for index, scheme in enumerate(schemes):
        for k in range(1, K + 1):
            seeds = [derive_seed(11003, 1000 * k + index, t) for t in range(per_cell)]
            used, completed = run_trials(scheme, k, seeds)  # verifies IDs inside
            assert (used[completed] >= k).all()
            instances += per_cell
            completed_n += int(completed.sum())
    assert instances >= 10**5
    _report("criterion 11 (end-to-end decode correctness, 1e5 instances)", True,
            f"{instances} instances across 3 modes, k=1..16; "
            f"{completed_n} completed, every resolved ID matched ground truth")
