"""Finding better codes than the Shifted Soliton.

Two searchers over the feasible region:

* QPS minimizes a mean-field estimate of the expected decode cost over
  invariant sequences (the K-dimensional sub-polytope).  The found codes
  move mass off degree 1 and flatten the low degrees until the chain
  constraint binds, exactly the shape that decodes cheaply.

* HRS walks backward from a Robust Soliton at the last hop, sampling
  feasible predecessors and keeping the best by simulated decode cost.
  Its final hop keeps Robust Soliton's spike, which wins at k close to K.
"""

import numpy as np

from recipe import (
    check_feasible,
    hrs_search,
    mean_field_objective,
    qps_search,
    shifted_soliton,
)

np.set_printoptions(precision=4, suppress=True)

K = 24
print("=" * 72)
print(f"Mean-field objective at K={K}: estimated codewords to full decode")
print("=" * 72)
ss = shifted_soliton(K)
f_ss, terms = mean_field_objective(ss)
print(f"shifted soliton: objective {f_ss:.2f}")
print("  release probabilities (first 6 ranks):", terms.p_rel[:6])
print("  success probabilities (first 6 ranks):", terms.p_suc[:6])

print()
print("=" * 72)
print("QPS: projected gradient descent over invariant sequences")
print("=" * 72)
trace = []
seq = qps_search(K, restarts=4, seed=3, trace=trace)
mu = seq.xdd(K)
f_qps, _ = mean_field_objective(mu)
print(f"objective: {f_ss:.2f} (seed) -> {f_qps:.2f} (found)")
print("found final-hop XDD, first 8 masses:", np.asarray(mu.mass[:8]))
print("shifted soliton would be:          ", np.asarray(ss.mass[:8]))
print(f"mass on degree 1: {mu.mu(1):.3f} vs 0.5 for the shifted soliton")
tight = [d for d in range(1, 9) if abs(mu.mu(d) - (d + 1) / d * mu.mu(d + 1)) < 1e-8]
print("chain constraint tight at degrees:", tight,
      "(the search rides the feasibility facets)")
print("full sequence feasible:", check_feasible(seq).feasible)

print()
print("=" * 72)
print("HRS: backward greedy search from a Robust Soliton tail")
print("=" * 72)
hseq = hrs_search(12, candidates_per_hop=24, trials_per_candidate=128, seed=5)
print("final-hop XDD (Robust Soliton, spike kept):",
      np.asarray(hseq.xdd(12).mass))
print("searched mu_6:", np.asarray(hseq.xdd(6).mass))
print("full sequence feasible:", check_feasible(hseq).feasible)
