"""Tree structure of canonical VC-dimension-1 classes.

On a canonical class whose up-sets are chains, the partial order is a
forest hanging under a virtual root (the empty set). Each node is a
non-constant domain point, each concept's 1-set is a root path, and the
depth of a point equals the length of its chain of strict upper bounds.

The tree is read off the concept rows packed eight points to a byte, and
no unpacked concept-by-point or point-by-point array is built: any
concept containing a point, cut to the points in at least as many
concepts, is that point's root path. Paths are matched by their bytes (a
point's parent owns its path minus the point), and the concepts that are
exactly a root path flag their deepest points proper during the same
build. Euler-tour intervals then turn ancestor tests into integer
comparisons: forced sets, pruned subtrees and label-0 weights are all
computed on tour slices, never per concept. The tree is stored as those
arrays plus a parent and a depth array over the domain; it is immutable
and reusable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .concepts import (
    ConceptClass,
    Dataset,
    NotRealizableError,
    _check_int,
    canonical_layout,
    row_bytes,
)

# _BIT[b]: bit b of a byte in np.packbits order (most significant first)
_BIT = np.array([0x80 >> b for b in range(8)], dtype=np.uint8)


@dataclass(frozen=True, eq=False)
class ClassTree:
    """The order forest of a reduced class, rooted at a virtual node.

    Every array indexes the class's own domain and is read-only; constant
    points, and points whose column equals a lower one's, are off the
    tree. ``parent[p]`` is -1 for children of the virtual root and off
    the tree; ``depth[p]`` is 0 off the tree. ``tour`` lists the points
    in depth-first preorder, visiting children in ascending id order;
    ``q`` is ``p`` or below it iff ``tin[p] <= tin[q] < tout[p]`` (both
    are -1 at points off the tree). ``proper_mask[p]`` says that ``p``'s
    root path is a concept; it is set when the tree is built. The root's
    empty path always is a concept: the build requires it.
    """

    parent: np.ndarray
    depth: np.ndarray
    tour: np.ndarray
    tin: np.ndarray
    tout: np.ndarray
    proper_mask: np.ndarray

    @cached_property
    def height(self) -> int:
        """The largest depth, 0 for a tree with no points."""
        return int(self.depth.max(initial=0))

    @cached_property
    def proper(self) -> dict[int, bool]:
        """``proper_mask`` as a dict over the tree points, ascending; the benchmark reads it."""
        points = np.flatnonzero(self.tin >= 0).tolist()
        return dict(zip(points, self.proper_mask[points].tolist()))

    @cached_property
    def tour_arrays(self) -> tuple[np.ndarray, ...]:
        """Tour-order tables of :func:`forced_nodes`, with ``k`` tour positions.

        ``(rank, tout, proper, up, points)``: ``rank`` is the column of
        positions plus one; ``tout`` and ``points`` hold each position's
        ``tout`` and point, with ``k + 1`` and -1 at the extra index ``k``,
        which stands for no position; ``proper`` is ``proper_mask`` as a
        column in tour order. ``up[s][j]`` is the position of ``j``'s
        ``2**s``-th ancestor (``k`` above the root, and at ``k``), with
        enough levels that ``2**len(up)`` reaches the height.
        """
        k = len(self.tour)
        parent = self.parent[self.tour]
        up = [np.append(np.where(parent >= 0, self.tin[parent], k), k)]
        while 2 ** len(up) < self.height:
            up.append(up[-1][up[-1]])
        return (
            np.arange(1, k + 1, dtype=np.int32)[:, None],
            np.append(self.tout[self.tour], k + 1).astype(np.int32),
            self.proper_mask[self.tour][:, None],
            up,
            np.append(self.tour, -1),
        )

    @cached_property
    def lone_deepest(self) -> np.ndarray:
        """``lone_deepest[c]``: :func:`forced_nodes`' deepest point of a sample
        holding one example, of :func:`presence_codes` code ``c``. A lone
        1-label at a tree point forces that point (a childless node is proper,
        an improper one has two or more children); a lone 0-label, or a
        1-label off the tree, forces nothing (-1)."""
        k = len(self.tour)
        lone = np.concatenate((np.full(k + 1, -1), self.tour, [-1]))
        lone.flags.writeable = False
        return lone


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
    path. The build (see :func:`tree_from_matrix`) checks that each path
    is its parent's path plus the point and that each concept is the path
    of its deepest point, and raises exactly on the classes of VC
    dimension 2 or more. A concept's deepest point is flagged proper.
    """
    rows, rep, count, first = canonical_layout(class_f.packed, class_f.domain_size)
    if len(rows) < len(class_f) or (rep != np.arange(len(rep))).any():
        raise ValueError("class must be canonical before tree construction")
    return tree_from_matrix(class_f.packed, rep, count, first)


def tree_from_matrix(
    packed: np.ndarray, rep: np.ndarray, count: np.ndarray, first: np.ndarray
) -> ClassTree:
    """:func:`make_tree` on distinct packed rows and their :func:`canonical_layout`.

    ``packed`` holds the concept rows as ``np.packbits`` bytes, and every
    step works on such rows: the largest arrays are one packed row per
    point. The nodes are the representatives ``p == rep[p]`` that some
    concept holds. A point's root path is the first concept holding it,
    ANDed with the packed mask of the representatives in at least as many
    concepts (a prefix of them in descending count order). The paths are
    keyed by their bytes: a point's parent is the point whose path is its
    own with its bit cleared (the empty path: the virtual root), and a
    concept's deepest point is the point whose path it is. Every lookup
    succeeds exactly when each path is its parent's path plus the point
    and each concept is the path of its deepest point; otherwise this
    raises. Depths, the tour and the subtree sizes come from the parents.
    """
    if packed.any(axis=1).all():
        raise ValueError("class must contain the all-zeros concept")
    n = len(rep)
    reps = np.flatnonzero(rep == np.arange(n))
    # in a forest of root paths every point ends a concept or branches (one
    # child would share its column), so there are under 2C; this bounds path
    if len(reps) >= 2 * len(packed):
        raise ValueError("class is not VC-1 tree-structured")
    live = reps[count[reps] > 0]
    # at_least[i] holds the first i + 1 representatives in descending count order
    width = packed.shape[1]
    order = reps[np.argsort(-count[reps], kind="stable")]
    at_least = np.zeros((len(order), width), dtype=np.uint8)
    at_least[np.arange(len(order)), order // 8] = _BIT[order % 8]
    np.bitwise_or.accumulate(at_least, axis=0, out=at_least)
    cut = np.searchsorted(-count[order], -count[live], side="right") - 1
    path = at_least[cut]
    path &= packed[first[live]]
    if len(reps) < n:  # concepts cut to the representatives, as paths are
        packed = packed & at_least[-1]
    del at_least

    points = live.tolist()
    owner = {bytes(width): -1}  # the virtual root's empty path
    owner.update(zip(row_bytes(path), points))
    path[np.arange(len(live)), live // 8] &= ~_BIT[live % 8]
    up = [owner.get(key, -2) for key in row_bytes(path)]
    ends = [owner.get(key, -2) for key in row_bytes(packed)]
    if -2 in up or -2 in ends:
        raise ValueError("class is not VC-1 tree-structured")

    parents = [-1] * n
    children: dict[int, list[int]] = {}
    for p, q in zip(points, up):  # ascending, so every child list is too
        parents[p] = q
        children.setdefault(q, []).append(p)
    tour: list[int] = []
    stack = children.get(-1, [])[::-1]
    while stack:
        p = stack.pop()
        tour.append(p)
        stack.extend(children.get(p, [])[::-1])
    depth, tin = [0] * (n + 1), [-1] * n  # depth[-1]: the virtual root's
    for i, p in enumerate(tour):
        depth[p] = depth[parents[p]] + 1
        tin[p] = i
    # a point's slice holds its subtree
    size, tout = [1] * (n + 1), [-1] * n
    for p in reversed(tour):
        size[parents[p]] += size[p]
        tout[p] = tin[p] + size[p]
    parent_of, depth_of, tour_arr, tin_arr, tout_arr = (
        np.array(a, dtype=np.int64) for a in (parents, depth[:n], tour, tin, tout)
    )
    proper = np.zeros(n, dtype=bool)
    proper[[e for e in ends if e >= 0]] = True
    for arr in (parent_of, depth_of, tour_arr, tin_arr, tout_arr, proper):
        arr.flags.writeable = False

    return ClassTree(
        parent=parent_of,
        depth=depth_of,
        tour=tour_arr,
        tin=tin_arr,
        tout=tout_arr,
        proper_mask=proper,
    )


def _check_in_tree(tree: ClassTree, x: int) -> None:
    if tree.tin[_check_int("point", x, 0, len(tree.tin) - 1)] < 0:
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


def make_subtree(tree: ClassTree, x_good: int) -> SubTree:
    """Descendants of ``x_good`` pruned below the first proper node.

    Reads the tour slice ``[tin[x_good], tout[x_good])``. A point there is
    left out when a proper node from ``x_good`` (inclusive) down to the
    point (exclusive) lies above it, so a proper ``x_good`` yields the
    single-node tree. The leaves are the proper nodes, childless ones
    among them; the others are improper, with all their tree children.
    """
    _check_in_tree(tree, x_good)
    lo, hi = tree.tin[x_good], tree.tout[x_good]
    seg = tree.tour[lo:hi]
    # a proper node at an earlier slice position is above position j
    # iff its interval ends after j: the running max of tout finds it
    stop = np.where(tree.proper_mask[seg], tree.tout[seg], 0)
    above = np.maximum.accumulate(np.concatenate(([0], stop[:-1])))
    nodes = seg[above <= np.arange(lo, hi)]
    return SubTree(
        root=x_good,
        nodes=frozenset(nodes.tolist()),
        leaves=frozenset(nodes[tree.proper_mask[nodes]].tolist()),
    )


def node_stats(tree: ClassTree, sub: SubTree, zeros: np.ndarray) -> NodeStats:
    """Per-node label-0 counts over the tree's domain, from tour-order counts.

    ``zeros[j]`` counts the label-0 examples at the point in tour position
    ``j``. A point's weight is the sum of the counts over its tour slice,
    read off prefix sums along the tour. A value is a sum over the points
    whose tour interval, inside the subtree root's slice, holds the
    node's position: a prefix sum of the counts added at each interval's
    start and taken off at its end. A leaf minimum is the least leaf value
    in the node's tour slice.
    """
    n = len(tree.tin)
    acc = np.concatenate(([0], np.cumsum(zeros)))
    weight = np.zeros(n, dtype=np.int64)
    weight[tree.tour] = acc[tree.tout[tree.tour]] - acc[:-1]

    lo, hi = tree.tin[sub.root], tree.tout[sub.root]
    seg = tree.tour[lo:hi]
    c = np.array(zeros[lo:hi])
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


def presence_codes(tree: ClassTree, points: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each example's row in :func:`forced_nodes`'s presence matrix: with ``k``
    tour positions, its point's (``k`` off the tree), plus ``k + 1`` when its
    label is 1. The codes are computed in int64, so uint8 labels do not wrap,
    and stored in the narrowest unsigned dtype that holds ``2 k + 1``."""
    k = len(tree.tour)
    pos = tree.tin[points]
    codes = np.where(pos >= 0, pos, k) + (k + 1) * np.asarray(labels, dtype=np.int64)
    return codes.astype(np.min_scalar_type(2 * k + 1))


def forced_nodes(tree: ClassTree, pres: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deepest forced node and inconsistency flag for each of many samples.

    The presence is point-major, with a row per :func:`presence_codes`
    code: for ``k`` tour positions, ``pres[j, i]`` / ``pres[k + 1 + j, i]``
    say sample ``i`` has an example labeled 0/1 at the point in tour
    position ``j``, and rows ``k`` / ``2 k + 1`` stand for every point off
    the tree. The concepts are the empty set and the root paths of proper
    nodes, so a sample with 1-labels is consistent only when they all lie
    on the root path of the deepest one, ``d``. The consistent concepts are
    then the root paths of the proper nodes at or below ``d`` that no
    0-labeled point is at or above (a 0-label on ``d``'s own path leaves
    none), and their common points form the root path of the lowest common
    ancestor of those nodes: the LCA of the first and the last of them in
    tour order. Every step reduces over the positions, so each is one
    vector operation across the samples. Every reduction starts from 0, so
    a tree with no points takes the same path: there no sample forces a
    point, and a sample with a 1-label is inconsistent.

    Returns ``(deepest, inconsistent)``; ``deepest[i]`` is -1 when sample
    ``i`` forces no point, and so is every inconsistent sample's.
    """
    k = len(tree.tour)
    pres0, pres1 = pres[: k + 1], pres[k + 1 :]
    has1 = pres1.any(axis=0)
    rank, tout, proper, up, points = tree.tour_arrays
    on1 = pres1[:k]
    # descendants come later in the tour, so a chain's deepest point comes last
    d = np.maximum.reduce(on1 * rank, axis=0, initial=0) - 1  # -1: no 1-label on the tree
    # the 1-labels lie on d's path iff none of their intervals ends at or
    # before d; a 1-label off the tree never does
    end = k + 1 - np.maximum.reduce(on1 * (k + 1 - tout[:k, None]), axis=0, initial=0)
    chain = (end > d) & ~pres1[k]

    # blocked[j]: a 0-label at j or above it, doubling the span per step
    blocked = pres0.copy()
    blocked[k] = False
    for a in up:
        blocked |= blocked[a]
    live = ~blocked[:k]
    live &= proper & (rank > d) & (rank <= tout[d])
    first = k - np.maximum.reduce(live * (k + 1 - rank), axis=0, initial=0)  # k: none
    last = np.maximum.reduce(live * rank, axis=0, initial=0) - 1  # -1: none
    # the LCA: lift first to its highest ancestor not above last, then one more
    x = first
    for a in reversed(up):
        y = a[x]
        x = np.where(tout[y] <= last, y, x)
    lca = np.where(tout[first] > last, first, up[0][x])

    consistent = chain & (last >= 0)
    deepest = points[np.where(has1 & consistent, lca, k)]
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
    pres = np.zeros((2 * len(tree.tour) + 2, 1), dtype=bool)
    pres[presence_codes(tree, dataset.points, dataset.labels), 0] = True
    deepest, inconsistent = forced_nodes(tree, pres)
    if inconsistent[0]:
        raise NotRealizableError("dataset not realizable by class")
    if deepest[0] < 0:
        return DeterministicSet(points=frozenset(), deepest=None, depth_of_deepest=0)
    x = int(deepest[0])
    return DeterministicSet(
        points=upward_closure(tree, x), deepest=x, depth_of_deepest=int(tree.depth[x])
    )


def tree_to_json(tree: ClassTree, point_map: np.ndarray) -> dict:
    """Serializable view: one record per node with parent, depth, flag and points.

    ``point_map`` carries each class point onto its representative, as
    :func:`~vc1learn.learners.prepare_context` returns it; a node's
    ``points`` are the class points mapped onto it, ascending.
    """
    members: dict[int, list[int]] = {}
    for p, x in enumerate(point_map.tolist()):
        members.setdefault(x, []).append(p)
    nodes = np.flatnonzero(tree.tin >= 0)
    columns = (tree.parent, tree.depth, tree.proper_mask)
    rows = zip(nodes.tolist(), *(col[nodes].tolist() for col in columns))
    return {
        "nodes": [
            {
                "point": x,
                "parent": None if par < 0 else par,
                "depth": d,
                "proper": flag,
                "points": members[x],
            }
            for x, par, d, flag in rows
        ]
    }


def tree_to_dot(tree: ClassTree, point_map: np.ndarray) -> str:
    """Graphviz rendering with the virtual root drawn as a point.

    Nodes are labeled by the class points mapped onto them.
    """
    lines = ["digraph class_tree {", '  root [shape=point, label=""];']
    records = tree_to_json(tree, point_map)["nodes"]
    for r in records:
        x, shape = r["point"], "doublecircle" if r["proper"] else "circle"
        label = ",".join(f"x{p}" for p in r["points"])
        lines.append(f'  n{x} [label="{label} (d={r["depth"]})", shape={shape}];')
    for r in records:
        src = "root" if r["parent"] is None else f"n{r['parent']}"
        lines.append(f"  {src} -> n{r['point']};")
    lines.append("}")
    return "\n".join(lines)
