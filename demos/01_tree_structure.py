"""Walk through the order-tree structure of a small VC-dimension-1 class.

Seven points, eight concepts. Each concept's 1-set turns out to be a path
to the root of a tree, and that is the whole reason the private learners
work.
"""

import vc1learn as v

cls = v.example_class()
print(f"class {cls.name!r}: {len(cls.concepts)} concepts over {cls.domain_size} points")
for c in cls.concepts:
    print(f"  {c.id}: ones = {sorted(c.ones)}")

# Canonical form (already canonical here), then represent against the
# all-zeros member so the partial order is the identity transform.
canon, merge = v.canonicalize(cls)
ctx = v.prepare_context(canon, f_index=7)
tree = ctx.tree

print("\npartial order samples:")
print("  x5 <= x1:", v.leq(canon, 4, 0), " (every concept with x5 has x1)")
print("  x4 ~ x5 comparable:", v.comparable(canon, 3, 4), " (different branches)")

print("\ntree layers:")
points = sorted(tree.tour.tolist())  # the tree's points; depth is 0 off the tree
layers = {}
for p in points:
    layers.setdefault(int(tree.depth[p]), []).append(p)
for d in sorted(layers):
    print(f"  depth {d}: points {sorted(layers[d])}")

print("\nroot paths (each realized by a concept, so every node is proper):")
for p in points:
    path = sorted(v.upward_closure(tree, p))
    print(f"  x{p + 1}: {path}  proper={tree.proper_mask[p]}")

print("\nDropping the {x1,x5} concept makes that node unrealized:")
mod, _ = v.canonicalize(v.modified_example_class())
mctx = v.prepare_context(mod)
mpoints = sorted(mctx.tree.tour.tolist())
print("  proper flags:", dict(zip(mpoints, mctx.tree.proper_mask[mpoints].tolist())))
sub = v.make_subtree(mctx.tree, 4)
print(f"  pruned subtree at x5: nodes={sorted(sub.nodes)} leaves={sorted(sub.leaves)}")

print("\nGraphviz export:\n")
print(v.tree_to_dot(tree, ctx.point_map))
