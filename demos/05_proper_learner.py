"""The proper learner's subtree descent, on the smallest instance where it matters.

With the {x1,x5} concept removed, the improper stage can select the
unrealized node x5. The proper learner then descends x5's pruned subtree,
preferring the branch with less label-0 mass, and outputs the realized
leaf's path, always a class member.
"""

import collections

import vc1learn as v

cls, _ = v.canonicalize(v.modified_example_class())
ctx = v.prepare_context(cls)
tree = ctx.tree
points = sorted(tree.tour.tolist())
flags = tree.proper_mask[points].tolist()
print("proper flags:", {f"x{p+1}": f for p, f in zip(points, flags)})

params = v.LearnParams(alpha=0.25, beta=0.25, privacy=v.PrivacyParams(1.0, 1e-5))
X5, X6, X7 = 4, 5, 6

# stage-1 data, checked though the forced x5 skips the improper stage that reads it
stage1 = v.Dataset.from_pairs([(X5, 1)] * 10)
# stage-2 data: label-0 examples sit on x6's side, so x7's branch is cheaper
stage2 = v.Dataset.from_pairs([(X6, 0)] * 20 + [(X7, 1)] * 10 + [(X5, 1)] * 10)
outcomes = collections.Counter()
for seed in range(300):
    trace = v.proper_learn(
        cls, stage1, params, v.make_rng(seed),
        force_chosen_point=X5, stage2=stage2,
    )
    assert trace.hypothesis.proper_index is not None
    outcomes[cls.concepts[trace.hypothesis.proper_index].id] += 1

print("\nforcing the improper stage to x5 (unrealized):")
print("  output concept frequencies over 300 seeded runs:", dict(outcomes))
print("  (the x7 path 'h7' should dominate; 'h6' shows the mechanism noise)")

one = v.proper_learn(cls, stage1, params, v.make_rng(0), force_chosen_point=X5, stage2=stage2)
print("\none descent trace:")
print("  subtree:", sorted(one.subtree.nodes), "leaves:", sorted(one.subtree.leaves))
for node, case, nxt in one.path:
    print(f"  at x{node+1}: {case} case -> x{nxt+1}")
print(f"  final leaf x{one.leaf+1}, hypothesis ones {sorted(one.hypothesis.ones)}")

budget = v.sample_budget(params, tree.height)
print("\nend-to-end privacy at the worst-case loop bound:")
total = v.total_privacy(params, budget, delta_prime=1e-6)
print(f"  T={budget.T}: ({total.epsilon:.3f}, {total.delta:.2e})")
print(f"  proper-exit path: {v.total_privacy(params, budget, loop_iterations=0)}")
