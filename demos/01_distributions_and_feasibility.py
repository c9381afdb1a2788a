"""Which degree-distribution sequences can stateless switches realize?

A distributed LT code here is a sequence of XOR degree distributions
mu_1..mu_K, one per path length.  Not every sequence is realizable by
per-hop Add/Skip/Replace decisions: the per-set probabilities must satisfy
q_{i-1}(d) >= q_i(d) + q_i(d+1) at every hop and degree.

This script builds the named sequences and shows the checker sorting the
feasible from the infeasible.
"""

import numpy as np

from recipe import (
    check_feasible,
    expand_invariant,
    ideal_soliton,
    ideal_soliton_sequence,
    pint_sequence,
    robust_soliton,
    shifted_soliton,
    shifted_soliton_sequence,
    PintParams,
)

np.set_printoptions(precision=4, suppress=True)

print("=" * 72)
print("Shifted Soliton: mu(d) = 1/(d(d+1)) for d < k, mu(k) = 1/k")
print("=" * 72)
for k in (1, 2, 3, 4, 8):
    print(f"  mu_{k} =", np.asarray(shifted_soliton(k).mass))

seq = shifted_soliton_sequence(8)
report = check_feasible(seq)
print(f"\ncheck_feasible(shifted soliton, K=8): feasible={report.feasible}")
print("...and it stays feasible at any diameter, e.g. K=512:",
      check_feasible(shifted_soliton_sequence(512)).feasible)

print()
print("=" * 72)
print("Ideal Soliton: excellent centralized code, not realizable per hop")
print("=" * 72)
for k in (2, 3):
    print(f"  rho_{k} =", np.asarray(ideal_soliton(k).mass))
report = check_feasible(ideal_soliton_sequence(3))
print(f"\ncheck_feasible(ideal soliton, K=3): feasible={report.feasible}")
for v in report.violations:
    print(f"  violated at hop {v.i}, degree {v.d}: "
          f"q_(i-1)(d) = {v.lhs:.6f} < q_i(d)+q_i(d+1) = {v.rhs:.6f}")
print("  (1/4 < 5/18: hop 2 cannot supply enough degree-1 sets to hop 3)")

print()
print("=" * 72)
print("Invariant sequences: one final-hop XDD determines the whole code")
print("=" * 72)
mu3 = shifted_soliton(3)
seq3 = expand_invariant(mu3)
print("expand_invariant(shifted soliton mu_3):")
for xdd in seq3.xdds:
    print(f"  mu_{xdd.k} =", np.asarray(xdd.mass))
print("equals shifted_soliton_sequence(3):",
      all(np.allclose(a.mass, b.mass)
          for a, b in zip(seq3.xdds, shifted_soliton_sequence(3).xdds)))
# For an invariant sequence the per-hop constraints reduce to this chain,
# so checking the expanded sequence tests it.
print("\ninvariant chain test mu(d) >= (d+1)/d mu(d+1):")
print("  shifted soliton mu_8:", check_feasible(expand_invariant(shifted_soliton(8))).feasible)
print("  robust soliton (spiked):", check_feasible(expand_invariant(robust_soliton(8))).feasible)

print()
print("=" * 72)
print("The PINT baseline: reservoir sampling mixed with a binomial code")
print("=" * 72)
params = PintParams(alpha=0.5, p=0.15)
pint = pint_sequence(6, params)
for k in (2, 4, 6):
    print(f"  mu_{k} =", np.asarray(pint.xdd(k).mass))
print("feasible (it is a stateless protocol after all):",
      check_feasible(pint).feasible)
