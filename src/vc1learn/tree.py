"""Tree structure of canonical VC-dimension-1 classes.

On a canonical class whose up-sets are chains, the partial order is a
forest hanging under a virtual root (the empty set). Each node is a
non-constant domain point, each concept's 1-set is a root path, and the
depth of a point equals the length of its chain of strict upper bounds.

The tree is read off the concept matrix itself: any concept containing a
point, cut to the points in at least as many concepts, is that point's
root path, and the concepts that are exactly a root path flag their
deepest points proper during the same build. Euler-tour intervals then
turn ancestor tests into integer comparisons: forced sets, pruned
subtrees and label-0 weights are all computed on tour slices, never per
concept. The tree is stored as those arrays plus a parent and a depth
array over the domain; it is immutable and reusable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .concepts import ConceptClass, Dataset, NotRealizableError, is_canonical


@dataclass(frozen=True, eq=False)
class ClassTree:
    """The order forest of a canonical class, rooted at a virtual node.

    Every array indexes the domain and is read-only. ``parent[p]`` is -1
    for children of the virtual root and off the tree; ``depth[p]`` is 0
    off the tree. ``tour`` lists the points in depth-first preorder,
    visiting children in ascending id order; ``q`` is ``p`` or below it
    iff ``tin[p] <= tin[q] < tout[p]`` (both are -1 at points off the
    tree). ``proper_mask[p]`` says that ``p``'s root path is a concept,
    and ``proper`` holds the same flags as a dict over the tree points (the
    benchmark workloads read it); both are set when the tree is built. The
    root's empty path always is a concept: the build requires it.
    """

    parent: np.ndarray
    depth: np.ndarray
    height: int
    tour: np.ndarray
    tin: np.ndarray
    tout: np.ndarray
    proper: Mapping[int, bool]
    proper_mask: np.ndarray


@dataclass(frozen=True, eq=False)
class SubTree:
    """A pruned descendant tree whose leaves are exactly its proper nodes.

    It is a slice of the class tree's tour, so it holds node sets only: a
    node not in ``leaves`` has its tree children, all of them in ``nodes``.
    """

    root: int
    nodes: frozenset[int]
    leaves: frozenset[int]


@dataclass(frozen=True, eq=False)
class NodeStats:
    """Label-0 example counts against the tree, as multiset counts.

    Read-only int arrays over the domain. ``weight[x]`` counts label-0
    examples at points order-below-or-equal ``x``. ``value[x]`` counts
    label-0 examples at points on the path from ``x`` (inclusive) up to
    the subtree root (exclusive); it is 0 at the root, nondecreasing
    toward the leaves and 0 outside the root's tour slice.
    ``min_leaf_value[x]``, defined on subtree nodes and 0 elsewhere, is
    the minimum value over the subtree leaves at or below ``x``.
    """

    weight: np.ndarray
    value: np.ndarray
    min_leaf_value: np.ndarray


@dataclass(frozen=True)
class DeterministicSet:
    """Points forced to label 1 by every concept consistent with a sample."""

    points: frozenset[int]
    deepest: int | None
    depth_of_deepest: int


def make_tree(class_f: ConceptClass) -> ClassTree:
    """Build the order tree of a canonical class containing the all-zeros concept.

    Each non-constant point appears once; its parent is the closest strict
    upper bound and its depth is the number of points order-above it plus
    one. In a canonical class an ancestor lies in strictly more concepts
    than its descendants, so any concept containing a point ``p``, cut to
    the points lying in at least as many concepts as ``p``, is ``p``'s root
    path. Those cut rows give the depths and the parent edges, and are then
    checked: each must be its parent's row plus the point itself, and each
    concept must be the row of its deepest point. Both checks pass exactly
    when the concepts are the root paths of a forest, so this raises
    exactly on the classes of VC dimension 2 or more. A concept's deepest
    point, the one whose depth equals its size, is flagged proper.
    """
    if not is_canonical(class_f):
        raise ValueError("class must be canonical before tree construction")
    return tree_from_matrix(class_f.matrix)


def tree_from_matrix(m: np.ndarray) -> ClassTree:
    """:func:`make_tree` on a concept matrix the caller knows is canonical."""
    if m.any(axis=1).all():
        raise ValueError("class must contain the all-zeros concept")
    n = m.shape[1]
    # in a forest of root paths every point ends a concept or branches (one
    # child would share its column), so n < 2C; this also bounds path below
    if n >= 2 * len(m):
        raise ValueError("class is not VC-1 tree-structured")
    count = m.sum(axis=0)
    live = count > 0
    # path[p]: p's root path, read off the first concept containing p;
    # an extra all-False row stands for the virtual root
    path = np.zeros((n + 1, n), dtype=bool)
    path[:n] = m[_first_rows(m)] & (count >= count[:, None]) & live[:, None]
    depth_of = path[:n].sum(axis=1)
    parent_of = np.full(n, -1, dtype=np.int64)
    kid, up = np.nonzero(path[:n] & (depth_of == depth_of[:, None] - 1))
    parent_of[kid] = up
    grown = path[parent_of]
    grown[np.flatnonzero(live), np.flatnonzero(live)] = True
    ends = _path_ends(m, depth_of)
    if not (np.array_equal(grown, path[:n]) and np.array_equal(m, path[ends])):
        raise ValueError("class is not VC-1 tree-structured")

    points = np.flatnonzero(live).tolist()
    children: dict[int, list[int]] = {}
    for p in points:  # ascending, so every child list is too
        children.setdefault(int(parent_of[p]), []).append(p)
    tour: list[int] = []
    stack = children.get(-1, [])[::-1]
    while stack:
        p = stack.pop()
        tour.append(p)
        stack.extend(children.get(p, [])[::-1])
    tour_arr = np.array(tour, dtype=np.int64)
    tin = np.full(n, -1, dtype=np.int64)
    tin[tour_arr] = np.arange(len(tour))
    # a point's slice holds every point whose root path contains it
    tout = tin + path[:n].sum(axis=0)
    proper = np.zeros(n, dtype=bool)
    proper[ends[ends >= 0]] = True
    for arr in (parent_of, depth_of, tour_arr, tin, tout, proper):
        arr.flags.writeable = False

    return ClassTree(
        parent=parent_of,
        depth=depth_of,
        height=int(depth_of.max(initial=0)),
        tour=tour_arr,
        tin=tin,
        tout=tout,
        proper=dict(zip(points, proper[points].tolist())),
        proper_mask=proper,
    )


def _first_rows(m: np.ndarray) -> np.ndarray:
    """``m.argmax(axis=0)``, the first row holding each column's True.

    Scans blocks of 64 rows, so that no transposed copy of ``m`` is made.
    """
    first = np.zeros(m.shape[1], dtype=np.int64)
    todo = np.ones(m.shape[1], dtype=bool)
    for start in range(0, len(m), 64):
        rows = m[start : start + 64]
        hit = todo & rows.any(axis=0)
        first[hit] = start + rows[:, hit].argmax(axis=0)
        todo &= ~hit
        if not todo.any():
            break
    return first


def _check_in_tree(tree: ClassTree, x: int) -> None:
    if not (0 <= x < len(tree.tin) and tree.tin[x] >= 0):
        raise ValueError(f"point {x} not in tree")


def root_path(tree: ClassTree, x: int) -> np.ndarray:
    """Boolean mask over the domain of ``x``'s root path, ``x`` a tree point.

    The points whose tour interval holds ``x``'s; off the tree, ``tout``
    is -1, so no such point is on the path.
    """
    tin = tree.tin
    return (tin <= tin[x]) & (tin[x] < tree.tout)


def upward_closure(tree: ClassTree, x: int) -> frozenset[int]:
    """The path from ``x`` to the root, excluding the virtual root."""
    _check_in_tree(tree, x)
    return frozenset(np.flatnonzero(root_path(tree, x)).tolist())


def _path_ends(m: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Each concept's point whose depth equals the concept's size, else -1.

    On a concept that is a root path this is the path's deepest point; the
    empty concept gets -1.
    """
    row, point = np.nonzero(m & (depth == m.sum(axis=1)[:, None]))
    ends = np.full(len(m), -1, dtype=np.int64)
    ends[row] = point
    return ends


def make_subtree(tree: ClassTree, x_good: int) -> SubTree:
    """Descendants of ``x_good`` pruned below the first proper node.

    Reads the tour slice ``[tin[x_good], tout[x_good])``. A point there is
    left out when a proper node from ``x_good`` (inclusive) down to the
    point (exclusive) lies above it, so a proper ``x_good`` yields the
    single-node tree. The leaves are the proper or childless nodes; the
    other nodes are improper, and their children are their tree children.
    """
    _check_in_tree(tree, x_good)
    lo, hi = tree.tin[x_good], tree.tout[x_good]
    seg = tree.tour[lo:hi]
    # a proper node at an earlier slice position is above position j
    # iff its interval ends after j: the running max of tout finds it
    stop = np.where(tree.proper_mask[seg], tree.tout[seg], 0)
    above = np.maximum.accumulate(np.concatenate(([0], stop[:-1])))
    nodes = seg[above <= np.arange(lo, hi)]
    leaf = tree.proper_mask[nodes] | (tree.tout[nodes] == tree.tin[nodes] + 1)
    return SubTree(
        root=x_good,
        nodes=frozenset(nodes.tolist()),
        leaves=frozenset(nodes[leaf].tolist()),
    )


def node_stats(tree: ClassTree, sub: SubTree, dataset: Dataset) -> NodeStats:
    """Per-node label-0 counts for a dataset over the tree's domain.

    A point's weight is the sum of the counts over its tour slice, read
    off prefix sums along the tour. A value is a sum over the points
    whose tour interval, inside the subtree root's slice, holds the
    node's position: a prefix sum of the counts added at each interval's
    start and taken off at its end. A leaf minimum is the least leaf value
    in the node's tour slice.
    """
    n = len(tree.tin)
    # examples at non-tree (constant) points never land on any node
    counts = np.bincount(dataset.points[dataset.labels == 0], minlength=n)[:n]
    acc = np.concatenate(([0], np.cumsum(counts[tree.tour])))
    weight = np.zeros(n, dtype=np.int64)
    weight[tree.tour] = acc[tree.tout[tree.tour]] - acc[:-1]

    lo, hi = tree.tin[sub.root], tree.tout[sub.root]
    seg = tree.tour[lo:hi]
    c = counts[seg]
    c[0] = 0  # the root's own examples count for no value
    delta = np.append(c, 0)
    np.subtract.at(delta, tree.tout[seg] - lo, c)
    value = np.zeros(n, dtype=np.int64)
    value[seg] = np.cumsum(delta[:-1])

    # a node's subtree leaves are the leaves in its tour slice; reduceat over
    # interleaved (start, end) offsets gives each slice's minimum at even places
    big = np.iinfo(np.int64).max
    at_leaf = np.isin(seg, np.fromiter(sub.leaves, np.int64))
    leaf_values = np.append(np.where(at_leaf, value[seg], big), big)
    nodes = np.fromiter(sub.nodes, np.int64)
    bounds = np.stack([tree.tin[nodes], tree.tout[nodes]], axis=1).ravel() - lo
    min_leaf = np.zeros(n, dtype=np.int64)
    min_leaf[nodes] = np.minimum.reduceat(leaf_values, bounds)[::2]
    for arr in (weight, value, min_leaf):
        arr.flags.writeable = False
    return NodeStats(weight=weight, value=value, min_leaf_value=min_leaf)


def forced_nodes(
    tree: ClassTree, pres0: np.ndarray, pres1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Deepest forced node and inconsistency flag for each of many samples.

    ``pres0[i, p]``/``pres1[i, p]`` say sample ``i`` has an example at
    point ``p`` labeled 0/1. The concepts are the empty set and the root
    paths of proper nodes, so a sample with 1-labels is consistent only
    when they all lie on the root path of the deepest one, ``d``. The
    consistent concepts are then the root paths of the proper nodes at or
    below ``d`` that no 0-labeled point is at or above (a 0-label on
    ``d``'s own path leaves none), and their common points form the root
    path of the lowest common ancestor of those nodes: the LCA of the
    first and the last of them in tour order.

    Returns ``(deepest, inconsistent)``; ``deepest[i]`` is -1 when sample
    ``i`` forces no point, and so is every inconsistent sample's.
    """
    t = pres1.shape[0]
    has1 = pres1.any(axis=1)
    k = len(tree.tour)
    if k == 0:
        return np.full(t, -1, dtype=np.int64), has1
    tin, tout = tree.tin, tree.tout
    # descendants come later in the tour, so a chain's deepest point has the largest tin
    d = np.where(pres1, tin, -2).argmax(axis=1)
    tin_d, tout_d = tin[d][:, None], tout[d][:, None]
    # a 1-label off the tree (tin and tout -1) is never on the path
    on_path = (tin <= tin_d) & (tin_d < tout)
    chain = ~(pres1 & ~on_path).any(axis=1)

    # tour position j lies under a 0-labeled point iff some such point's
    # interval starts at or before j and ends after it
    pos = np.arange(k)
    blocked_to = np.maximum.accumulate(
        np.where(pres0[:, tree.tour], tout[tree.tour], 0), axis=1
    )
    proper = tree.proper_mask[tree.tour]
    live = proper & (blocked_to <= pos) & (tin_d <= pos) & (pos < tout_d)
    first = live.argmax(axis=1)[:, None]
    last = k - 1 - live[:, ::-1].argmax(axis=1)[:, None]
    lca = np.where((tin <= first) & (last < tout), tin, -1).argmax(axis=1)

    consistent = chain & live.any(axis=1)
    deepest = np.where(has1 & consistent, lca, -1)
    return deepest, has1 & ~consistent


def deterministic_points(
    class_f: ConceptClass, dataset: Dataset, *, tree: ClassTree | None = None
) -> DeterministicSet:
    """Points labeled 1 by every concept consistent with the dataset.

    The intersection of the 1-sets of all consistent concepts, computed on
    the class's tree by :func:`forced_nodes`; the class must be one that
    :func:`make_tree` accepts. Raises :class:`NotRealizableError` when no
    concept is consistent. Passing a prebuilt tree avoids rebuilding it.
    """
    if len(dataset) and dataset.points.max() >= class_f.domain_size:
        raise ValueError("dataset point outside class domain")
    if tree is None:
        tree = make_tree(class_f)
    pres = np.zeros((2, 1, class_f.domain_size), dtype=bool)
    pres[dataset.labels, 0, dataset.points] = True
    deepest, inconsistent = forced_nodes(tree, pres[0], pres[1])
    if inconsistent[0]:
        raise NotRealizableError("dataset not realizable by class")
    if deepest[0] < 0:
        return DeterministicSet(points=frozenset(), deepest=None, depth_of_deepest=0)
    x = int(deepest[0])
    return DeterministicSet(
        points=upward_closure(tree, x), deepest=x, depth_of_deepest=int(tree.depth[x])
    )


def tree_to_json(tree: ClassTree) -> dict:
    """Serializable view: one record per node with parent, depth, and flag."""
    points = np.flatnonzero(tree.tin >= 0)
    columns = (tree.parent, tree.depth, tree.proper_mask)
    rows = zip(points.tolist(), *(col[points].tolist() for col in columns))
    return {
        "nodes": [
            {"point": p, "parent": None if par < 0 else par, "depth": d, "proper": flag}
            for p, par, d, flag in rows
        ]
    }


def tree_to_dot(tree: ClassTree) -> str:
    """Graphviz rendering with the virtual root drawn as a point."""
    lines = ["digraph class_tree {", '  root [shape=point, label=""];']
    records = tree_to_json(tree)["nodes"]
    for r in records:
        p, shape = r["point"], "doublecircle" if r["proper"] else "circle"
        lines.append(f'  n{p} [label="x{p} (d={r["depth"]})", shape={shape}];')
    for r in records:
        src = "root" if r["parent"] is None else f"n{r['parent']}"
        lines.append(f"  {src} -> n{r['point']};")
    lines.append("}")
    return "\n".join(lines)
