"""Coding efficiency head to head: how many packets until the path decodes?

Reproduces the comparison methodology at desk scale (K=16, 2000 trials per
point; raise TRIALS for tighter error bars).  Plots are left to external
tools; this prints the mean-codewords table and writes a CSV.
"""

import numpy as np

from recipe import (
    RecipeDScheme,
    RecipeTScheme,
    SearchConfig,
    derive_apa,
    generate_avst,
    qps_search,
    shifted_soliton_sequence,
    tune_pint,
)
from recipe.evaluation import PintScheme, efficiency_curve, write_curves_csv

K = 16
TRIALS = 2000
SEED = 42
KS = [1, 2, 4, 8, 12, 16]

print(f"tuning the PINT baseline for diameter {K} (typical path length {K // 2})...")
params, _ = tune_pint(K, trials=200, seed=SEED)
print(f"  tuned: alpha={params.alpha:g}, p={params.p:.4f}")

apa = derive_apa(shifted_soliton_sequence(K))
avst = generate_avst(apa, L=30000, seed=SEED)
schemes = [
    PintScheme(params, seed=SEED, K=K, label="pint-tuned"),
    RecipeDScheme(apa, seed=SEED, label="shifted-soliton"),
    RecipeDScheme(derive_apa(qps_search(K, SearchConfig(restarts=4, seed=SEED))),
                  seed=SEED, label="qps"),
    RecipeTScheme(avst, seed=SEED, label="shifted-soliton-t30000"),
]

curves = [efficiency_curve(s, K, TRIALS, SEED, ks=KS) for s in schemes]

print(f"\nmean codewords to decode (trials={TRIALS}):")
header = "   k | " + " | ".join(f"{c.label:>22s}" for c in curves)
print(header)
print("-" * len(header))
for k in KS:
    cells = " | ".join(f"{c.point(k).mean:22.2f}" for c in curves)
    print(f"  {k:2d} | {cells}")

print("\n99% quantiles at k=K:")
for c in curves:
    p = c.point(K)
    print(f"  {c.label:>22s}: mean {p.mean:7.2f}   q99 {p.q99:7.0f}")

write_curves_csv("efficiency_demo.csv", curves)
print("\nwrote efficiency_demo.csv (columns: scheme,K,k,trials,mean,stderr,q99,incomplete_rate)")

gap = np.mean([abs(curves[3].point(k).mean - curves[1].point(k).mean) for k in KS])
print(f"table-based vs degree-based mean gap at L=30000: {gap:.3f} codewords")
