"""The privacy primitives, each checked against its analytic behavior."""

import math

import numpy as np

import vc1learn as v

rng = v.make_rng(0)

print("Laplace noise via inverse CDF (scale 1):")
draws = np.array([v.laplace_sample(1.0, rng) for _ in range(100_000)])
print(f"  median {np.median(draws):+.4f} (analytic 0)")
print(f"  P(|X|>2) = {np.mean(np.abs(draws) > 2):.4f} (analytic {math.exp(-2):.4f})")

print("\nExponential mechanism, scores (0, 2), sensitivity 1, eps 1:")
picks = [v.exponential_mechanism([("a", 0.0), ("b", 2.0)], 1.0, 1.0, rng) for _ in range(50_000)]
print(f"  P(b) = {picks.count('b') / len(picks):.4f} (analytic {math.e / (1 + math.e):.4f})")

print("\nBounded-quality selection (k=1): dominant score wins, flat scores abstain:")
priv = v.PrivacyParams(1.0, 1e-6)
dominant = {"a": 100, "b": 1, **{f"z{i}": 0 for i in range(118)}}
picks = [v.choosing_mechanism(dominant, 1, 120, priv, 0.1, rng) for _ in range(500)]
print(f"  dominant instance: picked 'a' {picks.count('a')/len(picks):.1%}, abstained {picks.count(None)/len(picks):.1%}")
flat = {z: 0 for z in range(10)}
picks = [v.choosing_mechanism(flat, 1, 100, priv, 0.1, rng) for _ in range(500)]
print(f"  flat instance: abstained {picks.count(None)/len(picks):.1%}")

print("\nPrivate median (rank-utility exponential mechanism):")
values = [2] * 40 + [7] * 40
need = v.required_median_size(50, 1 / 3, 0.1, priv)
print(f"  required size for domain 50 at alpha=1/3, beta=0.1: {need} (have {len(values)})")
outs = [v.private_median(values, 50, 1 / 3, priv, 0.1, rng) for _ in range(300)]
in_range = sum(1 for m in outs if 2 <= m <= 7)
print(f"  outputs inside the admissible band [2,7]: {in_range}/300")
print(f"  admissible band by brute-force ranks: {sorted(v.alpha_median_set(values, 1/3))}")

print("\nComposition accounting:")
step = v.PrivacyParams(0.1, 1e-7)
total = v.advanced_composition(step.epsilon, step.delta, k=50, delta_prime=1e-6)
print(f"  50 runs of (0.1, 1e-7): ({total.epsilon:.4f}, {total.delta:.2e})")
print(f"  exact optimum of 50 pure 0.1-DP runs at delta' 1e-6: {v.optimal_composition(0.1, 50, 1e-6):.4f}")
