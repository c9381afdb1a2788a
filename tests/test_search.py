from fractions import Fraction

import numpy as np
import pytest

from recipe import evaluation, search
from recipe.decoder import PeelingState
from recipe.distributions import expand_invariant, shifted_soliton
from recipe.errors import RangeError
from recipe.feasibility import check_feasible, _rhs_mu
from recipe.search import (
    _objective_and_grad,
    _project_weighted_simplex,
    hrs_search,
    mean_field_objective,
    project_invariant_polytope,
    qps_search,
    random_feasible_sequence,
    sample_feasible_predecessors,
    slack_budget,
)
from recipe.xdd import Xdd

from oracles import slack_budget_exact


def test_mean_field_spot_value_half_half():
    total, terms = mean_field_objective(Xdd(2, [0.5, 0.5]))
    assert total == pytest.approx(2.0, abs=1e-12)
    assert terms.p_suc[0] == pytest.approx(0.5, abs=1e-12)
    assert terms.t[0] == pytest.approx(2.0, abs=1e-12)
    assert terms.p_rel[1] == pytest.approx(0.5, abs=1e-12)
    assert terms.p_suc[1] == pytest.approx(0.75, abs=1e-12)
    assert terms.t[1] == pytest.approx(0.0, abs=1e-12)
    assert terms.s[1] == pytest.approx(2.0, abs=1e-12)


def test_mean_field_spot_value_single_message():
    total, terms = mean_field_objective(Xdd(1, [1.0]))
    assert total == pytest.approx(1.0, abs=1e-12)
    assert terms.t[0] == pytest.approx(1.0, abs=1e-12)


def test_mean_field_spot_value_pure_degree_one():
    # coupon collector cross-check: 2 * (1 + 1/2) = 3
    total, _ = mean_field_objective(Xdd(2, [1.0, 0.0]))
    assert total == pytest.approx(3.0, abs=1e-12)


def test_mean_field_requires_degree_one_mass():
    with pytest.raises(RangeError):
        mean_field_objective(Xdd(2, [0.0, 1.0]))


def test_mean_field_objective_rejects_non_finite_total():
    # Far from the polytope the second-order correction makes the running
    # sum overflow; the first-order objective of the same XDD is finite.
    mu = Xdd(236, np.random.default_rng(236).dirichlet(np.ones(236)))
    assert np.isfinite(mean_field_objective(mu)[0])
    with pytest.raises(RangeError, match="not finite"):
        mean_field_objective(mu, second_order=True)


def test_mean_field_deterministic():
    mu = Xdd(12, np.full(12, 1 / 12))
    a, _ = mean_field_objective(mu)
    b, _ = mean_field_objective(mu)
    assert a == b


def test_mean_field_second_order_reduces_release_estimate():
    # compensating for release collisions means fewer free releases, hence
    # a larger estimated codeword count (how much larger is not spec'd at
    # a fixed point; the found-code comparison lives in acceptance)
    mu = shifted_soliton(16)
    first, _ = mean_field_objective(mu, second_order=False)
    second, _ = mean_field_objective(mu, second_order=True)
    assert second >= first


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for K in (3, 7, 12):
        x = project_invariant_polytope(rng.dirichlet(np.ones(K)))
        for second in (False, True):
            f, g, _ = _objective_and_grad(x, K, second)
            h = 1e-7
            for j in range(K):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fp, _, _ = _objective_and_grad(xp, K, second)
                fm, _, _ = _objective_and_grad(xm, K, second)
                fd = (fp - fm) / (2 * h)
                assert abs(g[j] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_weighted_simplex_projection_kkt():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        w = rng.uniform(0.1, 3.0, size=n)
        y = rng.normal(0, 2.0, size=n)
        x = _project_weighted_simplex(y, w)
        assert (x >= 0).all()
        assert abs(float(w @ x) - 1.0) < 1e-9
        # KKT: x = max(y - theta w, 0) for the theta implied by the support
        support = x > 0
        theta = (y[support] @ w[support] - 1.0) / (w[support] @ w[support])
        assert np.abs(x - np.maximum(y - theta * w, 0.0)).max() < 1e-9


def test_project_invariant_polytope_output_is_feasible():
    rng = np.random.default_rng(7)
    for K in (2, 3, 8, 40):
        for _ in range(20):
            v = rng.normal(0, 1, size=K)
            x = project_invariant_polytope(v)
            assert abs(x.sum() - 1.0) < 1e-9
            assert (x >= 0).all()
            assert x[0] >= 1e-6 * 0.99
            assert check_feasible(expand_invariant(Xdd(K, x / x.sum()))).feasible
    for v in (-2.0, -0.0, 0.3):  # K = 1 has one feasible point
        assert project_invariant_polytope(np.array([v])).tolist() == [1.0]


def test_project_invariant_polytope_fixes_nothing_inside():
    mu = np.asarray(shifted_soliton(9).mass)
    x = project_invariant_polytope(mu)
    assert np.abs(x - mu).max() < 1e-9


def test_projection_matches_exhaustive_grid():
    # Exactness check on a small instance: no grid point of the feasible
    # polytope is meaningfully closer to the target than the projection.
    K = 3
    rng = np.random.default_rng(8)
    step = 0.02
    grid = []
    for a in np.arange(0, 1 + 1e-9, step):
        for b in np.arange(0, 1 - a + 1e-9, step):
            c = 1.0 - a - b
            if c < -1e-12:
                continue
            mu = np.array([a, b, max(c, 0.0)])
            if mu[0] + 1e-12 >= 2 * mu[1]:  # chain constraint at K=3
                grid.append(mu)
    grid = np.array(grid)
    for _ in range(25):
        target = rng.normal(0, 1, size=K)
        x = project_invariant_polytope(target)
        dist_x = np.linalg.norm(x - target)
        dist_grid = np.linalg.norm(grid - target, axis=1).min()
        assert dist_x <= dist_grid + step


def test_slack_budget_examples():
    assert slack_budget_exact([0.5, 0.5]) == Fraction(1, 4)
    # Shifted Soliton mu_3 as exact rationals: budget is exactly q_3(1) = 1/6
    assert slack_budget_exact([Fraction(1, 2), Fraction(1, 6), Fraction(1, 3)]) == Fraction(1, 6)
    assert slack_budget_exact([1.0]) == Fraction(0)


def test_slack_budget_identity_exact_random():
    # The identity budget = q_i(1) holds exactly, in rational arithmetic,
    # for arbitrary distributions that sum to exactly 1.
    rng = np.random.default_rng(9)
    for _ in range(1000):
        i = int(rng.integers(2, 31))
        numerators = [int(v) for v in rng.integers(0, 1000, size=i)]
        numerators[rng.integers(0, i)] += 1  # keep the total positive
        denom = sum(numerators)
        masses = [Fraction(n, denom) for n in numerators]
        assert slack_budget_exact(masses) == masses[0] / i


def test_slack_budget_float_shortcut_agrees():
    rng = np.random.default_rng(12)
    for _ in range(50):
        i = int(rng.integers(2, 20))
        mu = Xdd(i, rng.dirichlet(np.ones(i)))
        assert slack_budget(mu) == pytest.approx(float(slack_budget_exact(mu.mass)), rel=1e-9)


def test_sample_feasible_predecessors_are_valid_and_feasible():
    rng = np.random.default_rng(10)
    for i in (2, 3, 6, 12):
        mu_i = Xdd(i, rng.dirichlet(np.ones(i)))
        preds = sample_feasible_predecessors(mu_i, 50, rng)
        base = _rhs_mu(np.asarray(mu_i.mass), i)
        for mass in preds:
            assert abs(mass.sum() - 1.0) < 1e-12
            assert (mass >= base - 1e-15).all()


def test_random_feasible_sequences_pass_check():
    rng = np.random.default_rng(11)
    for _ in range(50):
        K = int(rng.integers(1, 7))
        assert check_feasible(random_feasible_sequence(K, rng)).feasible


@pytest.mark.parametrize("K", [0, -1])
def test_random_feasible_sequence_refuses_a_diameter_below_one(K):
    with pytest.raises(RangeError, match=f"diameter must be positive, got K={K}"):
        random_feasible_sequence(K, np.random.default_rng(0))


def test_hrs_k1():
    seq = hrs_search(1, candidates_per_hop=2, trials_per_candidate=2)
    assert seq.K == 1 and list(seq.xdd(1).mass) == [1.0]


def test_hrs_k2_unique_predecessor():
    # budget = q_2(1) = 1/4 and a single scaled slack force mu_1 = (1).
    mu2 = Xdd(2, [0.5, 0.5])
    seq = hrs_search(2, candidates_per_hop=5, trials_per_candidate=5, mu_K=mu2)
    assert list(seq.xdd(1).mass) == [1.0]
    assert list(seq.xdd(2).mass) == [0.5, 0.5]


def test_hrs_output_feasible_and_keeps_final_hop():
    seq = hrs_search(6, candidates_per_hop=8, trials_per_candidate=40, seed=3)
    assert check_feasible(seq).feasible
    from recipe.distributions import robust_soliton
    assert np.abs(seq.xdd(6).mass - robust_soliton(6).mass).max() < 1e-15


def test_hrs_rejects_wrong_start_size():
    with pytest.raises(RangeError):
        hrs_search(3, mu_K=Xdd(2, [0.5, 0.5]))


def _bank_reference_score(bank, mass):
    """Every trial peeled from the bank's uniforms and orders with its own
    state, recording nothing: the scoring rule with no reuse."""
    cdf = np.cumsum(mass)
    u = np.empty(bank.sorted_u.size)
    u[bank.order] = bank.sorted_u
    total = 0
    for u_row, ranks in zip(u.reshape(bank.trials, bank.cap), bank.ranks):
        state = PeelingState(bank.m)
        for v, rank in zip(u_row.tolist(), ranks.tolist()):
            degree = 1 + sum(c <= v for c in cdf[:-1].tolist())  # cdf[-1] is above every u
            state.insert(sum(1 << h for h, r in enumerate(rank) if r < degree), 0)
            total += 1
            if state.complete:
                break
    return total / bank.trials


def test_scoring_bank_reuse_matches_peeling_every_trial(monkeypatch):
    m, trials = 8, 40
    bank = search._ScoringBank(m, trials, np.random.default_rng(17))
    slack = list(sample_feasible_predecessors(shifted_soliton(m + 1), 10,
                                              np.random.default_rng(2)))
    top = np.zeros(m)
    top[-1] = 1.0  # every codeword is the full set: all trials end at the cap
    cands = slack[:6] + [slack[3]] + slack[6:] + [top]
    absorbed = []
    counted = PeelingState.absorb

    def counting(self, codewords):
        absorbed.append(self)
        return counted(self, codewords)

    monkeypatch.setattr(PeelingState, "absorb", counting)
    peeled = []
    for mass in cands:
        want = _bank_reference_score(bank, mass)  # calls insert, not absorb
        del absorbed[:]
        assert bank.score(mass) == want
        peeled.append(len({id(state) for state in absorbed}))
    assert peeled[0] == trials
    assert sum(peeled[1:-1]) < (len(cands) - 2) * trials // 2  # slack draws share prefixes
    assert peeled[6] == 0  # scored before: every trial reuses a recorded count
    assert peeled[-1] == trials and want == bank.cap
    # Past m = 256 the ranks no longer fit uint8.
    wide = search._ScoringBank(257, 3, np.random.default_rng(5))
    assert wide.ranks.dtype == np.uint16
    mass = sample_feasible_predecessors(shifted_soliton(258), 1, np.random.default_rng(4))[0]
    assert wide.score(mass) == _bank_reference_score(wide, mass)


@pytest.mark.parametrize("m", [2, 3])
def test_scoring_bank_short_last_block_matches_peeling_every_trial(m):
    # Blocks are 8 codewords here, and the caps 12 and 18 are not multiples
    # of 8, so the last block is short.  Scarce degree-1 codewords take many
    # trials into it, and the full set runs every trial to the cap.
    bank = search._ScoringBank(m, 30, np.random.default_rng(11))
    scarce = np.full(m, 0.95 / (m - 1))
    scarce[0] = 0.05
    top = np.zeros(m)
    top[-1] = 1.0
    cands = list(sample_feasible_predecessors(shifted_soliton(m + 1), 4,
                                              np.random.default_rng(m))) + [scarce, top]
    for mass in cands:
        assert bank.score(mass) == _bank_reference_score(bank, mass)
    assert bank.score(top) == bank.cap


def test_scoring_bank_scores_do_not_depend_on_the_block_size(monkeypatch):
    m, trials = 8, 40
    cands = list(sample_feasible_predecessors(shifted_soliton(m + 1), 6,
                                              np.random.default_rng(3)))
    bank = search._ScoringBank(m, trials, np.random.default_rng(17))
    want = [bank.score(mass) for mass in cands]
    # One trial per group; then 3 trials per group in the first block of 2m
    # codewords, with an uneven last group.
    for cells in (1, 3 * 2 * m * m):
        monkeypatch.setattr(evaluation, "_CHUNK_CELLS", cells)
        bank = search._ScoringBank(m, trials, np.random.default_rng(17))
        assert [bank.score(mass) for mass in cands] == want


def test_scoring_bank_ranks_invert_the_drawn_orders():
    m, trials = 5, 7
    bank = search._ScoringBank(m, trials, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    assert np.array_equal(rng.random((trials, bank.cap)).reshape(-1)[bank.order], bank.sorted_u)
    base = np.tile(np.arange(m, dtype=np.int16), (bank.cap, 1))
    for t in range(trials):
        assert np.array_equal(np.argsort(rng.permuted(base, axis=1), axis=1), bank.ranks[t])


def test_qps_k1():
    seq = qps_search(1)
    assert seq.K == 1 and list(seq.xdd(1).mass) == [1.0]


def test_qps_output_feasible_and_no_worse_than_seed():
    for K in (4, 12, 24):
        seq = qps_search(K, restarts=3, seed=4)
        assert check_feasible(seq).feasible
        f_qps, _ = mean_field_objective(seq.xdd(K))
        f_ss, _ = mean_field_objective(shifted_soliton(K))
        assert f_qps <= f_ss + 1e-9


def test_qps_deterministic_and_thread_invariant():
    a = qps_search(10, restarts=2, seed=5)
    b = qps_search(10, restarts=2, seed=5)
    c = qps_search(10, restarts=2, seed=5, threads=2)
    for xa, xb, xc in zip(a.xdds, b.xdds, c.xdds):
        assert np.array_equal(xa.mass, xb.mass)
        assert np.array_equal(xa.mass, xc.mass)


@pytest.mark.parametrize("K", [1, 4])
def test_qps_refuses_threads_below_one(K, monkeypatch):
    # K=1 returns before any descent, so it never reaches map_jobs' check.
    monkeypatch.setattr("recipe.search.map_jobs", lambda *args: pytest.fail("descended"))
    for threads in (0, -4):
        with pytest.raises(RangeError, match=f"threads must be >= 1, got {threads}"):
            qps_search(K, restarts=1, threads=threads)


def test_qps_trace_records_progress():
    trace = []
    qps_search(6, restarts=1, seed=6, trace=trace)
    assert trace and len(trace[0]) == 3


def test_qps_gradient_only_on_accepted_steps(monkeypatch):
    # Line-search trials are scored by value alone: the gradient is taken
    # once per start and once per accepted step.  Each start writes one
    # trace row per iteration, its last one the non-improving iteration
    # that stops it, so the gradients and the rows are equally many.
    calls = []
    counted = search._mean_field_grad

    def counting(*args):
        calls.append(args)
        return counted(*args)

    monkeypatch.setattr(search, "_mean_field_grad", counting)
    rows = []
    qps_search(30, restarts=2, seed=8, trace=rows)
    assert max(it for _, it, _ in rows) < 1999  # no start ran out of iterations
    assert len(calls) == len(rows)


def test_search_counts_below_one_are_refused():
    # Checked before the K = 1 shortcut, so even a trivial search refuses.
    for search_fn, counts in ((hrs_search, {"candidates_per_hop": 0}),
                              (hrs_search, {"trials_per_candidate": 0}),
                              (qps_search, {"restarts": 0})):
        for K in (1, 4):
            with pytest.raises(RangeError):
                search_fn(K, **counts)
    for search_fn in (hrs_search, qps_search):
        for K in (0, -1):
            with pytest.raises(RangeError, match=f"diameter must be positive, got K={K}"):
                search_fn(K)
