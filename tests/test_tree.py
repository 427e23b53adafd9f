import dataclasses
import json
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vc1learn import (
    ClassTree,
    ConceptClass,
    Dataset,
    NotRealizableError,
    canonicalize,
    deterministic_oracle,
    deterministic_points,
    f_represent,
    leq,
    make_subtree,
    make_tree,
    node_stats,
    prepare_context,
    random_tree_class,
    thresholds_class,
    tree_to_dot,
    tree_to_json,
    upward_closure,
    vc_dimension,
)

from vc1learn.tree import forced_nodes, presence_codes, root_path

from conftest import order_points, renamed_tree

X1, X2, X3, X4, X5, X6, X7 = range(7)


def marked_tree(cls):
    return make_tree(cls)  # the build sets the proper flags


def tree_points(tree):
    return np.flatnonzero(tree.tin >= 0).tolist()


def kids(tree, p):
    """The children of ``p`` (-1: the virtual root), ascending."""
    return tuple(np.flatnonzero((tree.parent == p) & (tree.tin >= 0)).tolist())


def test_make_tree_example_layers(example_cls):
    tree = make_tree(example_cls)
    layers = {}
    for p in tree_points(tree):
        layers.setdefault(int(tree.depth[p]), set()).add(p)
    assert layers == {1: {X1, X2, X3}, 2: {X4, X5}, 3: {X6, X7}}
    assert kids(tree, -1) == (X1, X2, X3)
    assert kids(tree, X1) == (X4, X5)
    assert kids(tree, X5) == (X6, X7)
    # preorder, visiting children in ascending id order
    assert tree.tour.tolist() == [X1, X4, X5, X6, X7, X2, X3]
    assert tree.height == 3


def test_make_tree_depth_equals_strict_upper_bound_count(example_cls, corpus):
    classes = [example_cls] + [canonicalize(c)[0] for c in corpus[:20]]
    for cls in classes:
        rep, _ = canonicalize(f_represent(cls, cls.concepts[0]))
        if rep.domain_size > 20:
            continue
        tree = make_tree(rep)
        pts = order_points(rep)
        for x in pts:
            ups = [y for y in pts if y != x and leq(rep, x, y)]
            assert tree.depth[x] == len(ups) + 1


def dense_tree(m):
    """The tree build on the dense concept matrix, kept as the reference.

    Any concept containing a point, cut to the points in at least as many
    concepts, is its root path; the n x n path rows give depths and parents
    and are checked: each is its parent's row plus the point, and each
    concept is the row of its deepest point.
    """
    if m.any(axis=1).all():
        raise ValueError("class must contain the all-zeros concept")
    n = m.shape[1]
    if n >= 2 * len(m):
        raise ValueError("class is not VC-1 tree-structured")
    count = m.sum(axis=0)
    live = count > 0
    # an extra all-False row stands for the virtual root
    path = np.zeros((n + 1, n), dtype=bool)
    path[:n] = m[m.argmax(axis=0)] & (count >= count[:, None]) & live[:, None]
    depth_of = path[:n].sum(axis=1)
    parent_of = np.full(n, -1, dtype=np.int64)
    kid, up = np.nonzero(path[:n] & (depth_of == depth_of[:, None] - 1))
    parent_of[kid] = up
    grown = path[parent_of]
    grown[np.flatnonzero(live), np.flatnonzero(live)] = True
    row, point = np.nonzero(m & (depth_of == m.sum(axis=1)[:, None]))
    ends = np.full(len(m), -1, dtype=np.int64)
    ends[row] = point
    if not (np.array_equal(grown, path[:n]) and np.array_equal(m, path[ends])):
        raise ValueError("class is not VC-1 tree-structured")

    points = np.flatnonzero(live).tolist()
    children = {}
    for p in points:
        children.setdefault(int(parent_of[p]), []).append(p)
    tour = []
    stack = children.get(-1, [])[::-1]
    while stack:
        p = stack.pop()
        tour.append(p)
        stack.extend(children.get(p, [])[::-1])
    tour_arr = np.array(tour, dtype=np.int64)
    tin = np.full(n, -1, dtype=np.int64)
    tin[tour_arr] = np.arange(len(tour))
    tout = tin + path[:n].sum(axis=0)
    proper = np.zeros(n, dtype=bool)
    proper[ends[ends >= 0]] = True
    return ClassTree(
        parent=parent_of,
        depth=depth_of,
        tour=tour_arr,
        tin=tin,
        tout=tout,
        proper_mask=proper,
    )


TREE_ARRAYS = ("parent", "depth", "tour", "tin", "tout", "proper_mask")


def assert_same_tree(tree, ref):
    for name in TREE_ARRAYS:
        got, want = getattr(tree, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert tree.height == ref.height and tree.proper == ref.proper


def test_tree_matches_dense_reference(example_cls, modified_cls, corpus):
    classes = [example_cls, modified_cls] + corpus
    classes += [thresholds_class(k) for k in (1, 2, 3, 7, 64, 200, 512)]
    classes += [
        random_tree_class(n, max_children=k, concept_rate=rate, seed=seed)
        for seed in range(3)
        for n, k, rate in ((100, 2, 0.5), (333, 3, 0.2), (1024, 4, 0.5))
    ]
    for cls in classes:
        last = len(cls) - 1
        for f_index in sorted({0, last // 2, last}):
            ctx = prepare_context(cls, f_index)
            rep, merge = canonicalize(f_represent(cls, cls.concepts[f_index]))
            assert np.array_equal(ctx.point_map, merge)
            ref = dense_tree(rep.matrix)
            assert_same_tree(ctx.tree, ref)
            assert_same_tree(make_tree(rep), ref)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.booleans(), min_size=n, max_size=n), min_size=1, max_size=12
        ).map(lambda rows: (n, rows))
    )
)
def test_tree_raises_exactly_when_dense_reference_does(shape_rows):
    # a random class holding the all-zeros concept, canonicalized: both
    # builds agree, raise alike, and raise exactly at VC dimension 2 or
    # more; prepare_context on the class as drawn, with its repeated rows
    # and columns, gives the same tree on the lowest point of each column
    n, rows = shape_rows
    m = np.array([[False] * n] + rows, dtype=bool).reshape(len(rows) + 1, n)
    raw = ConceptClass(m, [f"c{i}" for i in range(len(m))])
    cls, merge = canonicalize(raw)
    try:
        ref = dense_tree(cls.matrix)
    except ValueError as exc:
        for build in (lambda: make_tree(cls), lambda: prepare_context(raw)):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == str(exc)
        assert vc_dimension(cls) >= 2
        return
    assert_same_tree(make_tree(cls), ref)
    tree = prepare_context(raw).tree
    for name, want in renamed_tree(ref, np.unique(merge, return_index=True)[1], n).items():
        assert np.array_equal(getattr(tree, name), want), name
    assert vc_dimension(cls) <= 1


def test_prepare_context_and_make_tree_scan_columns_once(monkeypatch, example_cls):
    # the tree is built from the reduction's own column scan
    calls = []
    scan = sys.modules["vc1learn.concepts"].column_scan

    def counted(*args):
        calls.append(args)
        return scan(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("vc1learn") and hasattr(module, "column_scan"):
            monkeypatch.setattr(module, "column_scan", counted)
    chain, bushy = thresholds_class(300), random_tree_class(64, seed=3)
    builds = (
        lambda: prepare_context(chain),
        lambda: prepare_context(bushy, 5),
        lambda: make_tree(example_cls),
    )
    for build in builds:
        calls.clear()
        build()
        assert len(calls) == 1


def test_make_tree_singleton_class_is_root_only():
    cls, _ = canonicalize(ConceptClass.from_ones(3, [set()]))
    tree = make_tree(cls)
    assert tree_points(tree) == [] and len(tree.tour) == 0
    # off the tree: parent -1 and depth 0
    n = cls.domain_size
    assert tree.parent.tolist() == [-1] * n and tree.depth.tolist() == [0] * n
    assert tree.height == 0


def test_make_tree_requires_canonical():
    # a repeated concept, then two equal columns
    for ones_sets in ([set(), {0}, {0}], [set(), {0, 1}]):
        cls = ConceptClass.from_ones(2, ones_sets)
        with pytest.raises(ValueError, match="canonical"):
            make_tree(cls)


def test_make_tree_requires_all_zeros_concept():
    cls = ConceptClass.from_ones(2, [{0}, {0, 1}])
    with pytest.raises(ValueError, match="all-zeros"):
        make_tree(cls)


def test_make_tree_rejects_branching_upsets():
    for cls in (
        # point 2 sits below two incomparable points: not tree-structured
        ConceptClass.from_ones(3, [set(), {0}, {1}, {0, 1, 2}]),
        # two points shattered (VC dimension 2), each without an upper bound
        ConceptClass.from_ones(2, [set(), {0}, {1}, {0, 1}]),
        # a point for each of the eight columns three concepts can give:
        # more points than a forest of root paths over four concepts holds
        ConceptClass.from_ones(8, [set(), {1, 3, 5, 7}, {2, 3, 6, 7}, {4, 5, 6, 7}]),
    ):
        assert canonicalize(cls)[0] == cls
        with pytest.raises(ValueError, match="not VC-1 tree-structured"):
            make_tree(cls)


def test_tree_height_bounded_by_thresholds_dimension(corpus):
    from vc1learn import thresholds_dimension

    for cls in corpus:
        if cls.domain_size > 16:
            continue
        base, _ = canonicalize(cls)
        rep, _ = canonicalize(f_represent(base, base.concepts[0]))
        tree = make_tree(rep)
        assert tree.height <= thresholds_dimension(rep)


def test_upward_closure_examples(example_cls):
    tree = make_tree(example_cls)
    assert upward_closure(tree, X5) == {X1, X5}
    assert upward_closure(tree, X7) == {X1, X5, X7}
    assert upward_closure(tree, X2) == {X2}
    # -1 must not wrap onto the last point, and 1.5 raised numpy's IndexError
    for bad in (99, -1, 1.5, True):
        message = f"'point' must be an integer in [0, 6], not {bad}"
        with pytest.raises(ValueError, match=re.escape(message)):
            upward_closure(tree, bad)
    # a point of the domain that every concept labels 0 sits off the tree
    off = make_tree(ConceptClass.from_ones(2, [set(), {0}]))
    with pytest.raises(ValueError, match="point 1 not in tree"):
        upward_closure(off, 1)


def test_mark_proper_example_all_proper(example_cls):
    tree = marked_tree(example_cls)
    # independent check: enumerate closures against the concept list
    ones = {c.ones for c in example_cls.concepts}
    for p in tree_points(tree):
        assert tree.proper[p] == (upward_closure(tree, p) in ones)
        assert tree.proper_mask[p] == tree.proper[p]
    assert all(tree.proper.values())
    assert frozenset() in ones  # the root's empty path


def test_mark_proper_modified_example(modified_cls):
    tree = marked_tree(modified_cls)
    assert not tree.proper[X5]
    assert tree.proper[X6] and tree.proper[X7]
    assert tree.proper[X1] and tree.proper[X4]


def test_leaves_are_proper_across_corpus(corpus):
    for cls in corpus[:60]:
        base, _ = canonicalize(cls)
        rep, _ = canonicalize(f_represent(base, base.concepts[0]))
        tree = marked_tree(rep)
        for p in tree_points(tree):
            if not kids(tree, p):
                assert tree.proper[p]


def test_make_subtree_modified_example(modified_cls):
    tree = marked_tree(modified_cls)
    sub = make_subtree(tree, X5)
    assert sub.root == X5
    assert sub.nodes == {X5, X6, X7}
    assert sub.leaves == {X6, X7}


def test_make_subtree_proper_root_is_single_node(example_cls):
    tree = marked_tree(example_cls)
    sub = make_subtree(tree, X5)
    assert sub.nodes == {X5}
    assert sub.leaves == {X5}


def test_make_subtree_chain_interior():
    cls = thresholds_class(6)
    rep, _ = canonicalize(f_represent(cls, cls.concepts[0]))
    tree = marked_tree(rep)
    interior = [p for p in tree_points(tree) if kids(tree, p)][0]
    sub = make_subtree(tree, interior)
    assert sub.nodes == {interior}  # every chain node is proper


def _value_by_path_enumeration(rep, tree, root, dataset):
    """Independent oracle: count label-0 examples with x <= x' < root."""
    out = {}
    for x in tree_points(tree):
        total = 0
        for p, l in dataset.pairs():
            if l != 0 or tree.tin[p] < 0:
                continue
            if leq(rep, x, p) and leq(rep, p, root) and p != root:
                total += 1
        out[x] = total
    return out


def _tour_zeros(tree, data):
    """The label-0 counts of ``data`` per tour position, as :func:`node_stats` takes them."""
    counts = np.bincount(data.points[data.labels == 0], minlength=len(tree.tin))
    return counts[tree.tour]


def test_node_stats_worked_example(modified_cls):
    ones = {c.ones for c in modified_cls.concepts}
    assert frozenset() in ones
    tree = marked_tree(modified_cls)
    sub = make_subtree(tree, X5)
    data = Dataset.from_pairs([(X5, 0), (X6, 0), (X6, 0)])
    stats = node_stats(tree, sub, _tour_zeros(tree, data))
    assert stats.weight[X6] == 2
    assert stats.weight[X7] == 0
    assert stats.weight[X5] == 3
    assert stats.value[X5] == 0  # the root always has value 0
    oracle = _value_by_path_enumeration(modified_cls, tree, X5, data)
    assert stats.value[X6] == oracle[X6] == 2
    assert stats.value[X7] == oracle[X7] == 0


def test_node_stats_no_zero_labels(modified_cls):
    tree = marked_tree(modified_cls)
    sub = make_subtree(tree, X5)
    data = Dataset.from_pairs([(X6, 1), (X7, 1)])
    stats = node_stats(tree, sub, _tour_zeros(tree, data))
    assert not stats.weight.any()
    assert not stats.value.any()


def test_node_stats_duplicates_count_with_multiplicity(modified_cls):
    tree = marked_tree(modified_cls)
    sub = make_subtree(tree, X5)
    data = Dataset.from_pairs([(X7, 0), (X7, 0)])
    stats = node_stats(tree, sub, _tour_zeros(tree, data))
    assert stats.value[X7] == 2
    assert stats.weight[X7] == 2


def test_node_stats_value_monotone_along_paths(corpus, rng):
    # the tour-slice subtree and stats at every improper root, against the
    # literal definitions written with the partial order leq
    roots = 0
    for cls in corpus[:60]:
        base, _ = canonicalize(cls)
        rep, _ = canonicalize(f_represent(base, base.concepts[0]))
        tree = marked_tree(rep)
        improper = [p for p in tree_points(tree) if not tree.proper[p]]
        if not improper:
            continue
        pts_all = tree_points(tree)
        ones = {c.ones for c in rep.concepts}
        below = {(a, b): leq(rep, a, b) for a in pts_all for b in pts_all}
        realized = {
            p: frozenset(q for q in pts_all if below[p, q]) in ones for p in pts_all
        }
        childless = {
            p: not any(below[q, p] for q in pts_all if q != p) for p in pts_all
        }
        pts = rng.integers(0, rep.domain_size, size=30)
        labs = rng.integers(0, 2, size=30)
        data = Dataset(pts, labs.astype(np.uint8))
        zeros = [p for p, l in data.pairs() if l == 0 and tree.tin[p] >= 0]
        for root in improper:
            roots += 1
            sub = make_subtree(tree, root)
            # kept: below the root with no proper node from the root
            # (inclusive) down to it (exclusive) above it
            nodes = {
                q
                for q in pts_all
                if below[q, root]
                and not any(
                    realized[y] and below[q, y] and below[y, root] and y != q
                    for y in pts_all
                )
            }
            assert sub.root == root and sub.nodes == nodes
            assert sub.leaves == {q for q in nodes if realized[q] or childless[q]}
            stats = node_stats(tree, sub, _tour_zeros(tree, data))
            assert {x: stats.weight[x] for x in pts_all} == {
                x: sum(below[p, x] for p in zeros) for x in pts_all
            }
            oracle = _value_by_path_enumeration(rep, tree, root, data)
            assert {x: stats.value[x] for x in pts_all} == oracle
            for p in sub.nodes - sub.leaves:
                for q in kids(tree, p):
                    assert q in sub.nodes
                    assert stats.value[q] >= stats.value[p]
            for p in sub.nodes:
                assert stats.min_leaf_value[p] == min(
                    stats.value[l]
                    for l in sub.leaves
                    if p in upward_closure(tree, l) or p == l
                )
    assert roots >= 80


def test_deterministic_points_examples(example_cls):
    tree = make_tree(example_cls)
    got = deterministic_points(
        example_cls, Dataset.from_pairs([(X1, 1), (X5, 1)]), tree=tree
    )
    assert got.points == {X1, X5}
    assert got.deepest == X5 and got.depth_of_deepest == 2

    got = deterministic_points(example_cls, Dataset.from_pairs([(X1, 1)]), tree=tree)
    assert got.points == {X1}
    assert got.deepest == X1 and got.depth_of_deepest == 1

    got = deterministic_points(example_cls, Dataset.from_pairs([]), tree=tree)
    assert got.points == frozenset()
    assert got.deepest is None and got.depth_of_deepest == 0


def test_deterministic_points_unrealizable(example_cls):
    with pytest.raises(NotRealizableError):
        deterministic_points(example_cls, Dataset.from_pairs([(X2, 1), (X3, 1)]))
    with pytest.raises(ValueError, match="dataset point outside class domain"):
        deterministic_points(example_cls, Dataset.from_pairs([(X2, 1), (7, 0)]))


def test_deterministic_points_match_oracle_across_corpus(corpus, rng):
    # the tree kernel against the literal intersection, on samples labeled
    # by a concept and on their neighbours with one label flipped
    outcomes = {"forced": 0, "unrealizable": 0}
    for cls in corpus:
        base, _ = canonicalize(cls)
        f = base.concepts[int(rng.integers(len(base.concepts)))]
        rep, _ = canonicalize(f_represent(base, f))
        tree = make_tree(rep)
        m = rep.matrix
        for size in (1, 3, 20):
            c_idx = int(rng.integers(len(rep.concepts)))
            pts = rng.integers(0, rep.domain_size, size=size)
            labs = m[c_idx, pts].astype(np.uint8)
            flipped = labs.copy()
            flipped[int(rng.integers(size))] ^= 1
            for data in (Dataset(pts, labs), Dataset(pts, flipped)):
                try:
                    expected = deterministic_oracle(rep, data)
                except NotRealizableError:
                    with pytest.raises(NotRealizableError):
                        deterministic_points(rep, data, tree=tree)
                    outcomes["unrealizable"] += 1
                    continue
                got = deterministic_points(rep, data, tree=tree)
                assert got.points == expected
                assert got.depth_of_deepest == len(expected)
                outcomes["forced"] += bool(expected)
    assert min(outcomes.values()) > 100


def test_deterministic_points_form_chains(corpus, rng):
    # realizable samples force points lying on one root path
    for cls in corpus[:30]:
        base, _ = canonicalize(cls)
        if base.domain_size > 32:
            continue
        rep, _ = canonicalize(f_represent(base, base.concepts[0]))
        tree = make_tree(rep)
        m = rep.matrix
        for trial in range(3):
            c_idx = int(rng.integers(len(rep.concepts)))
            pts = rng.integers(0, rep.domain_size, size=5)
            labs = m[c_idx, pts].astype(np.uint8)
            det = deterministic_points(rep, Dataset(pts, labs), tree=tree)
            assert det.points <= rep.concepts[c_idx].ones
            depths = sorted(tree.depth[p] for p in det.points)
            assert len(set(depths)) == len(depths)  # at most one point per depth
            if det.points:
                top = max(det.points, key=lambda p: tree.depth[p])
                assert det.points <= upward_closure(tree, top)


def test_presence_codes_widen_uint8_labels():
    # over 255 tour positions, so uint8 labels times k + 1 would wrap; two
    # constant points sit off the tree
    m = thresholds_class(300).matrix
    extra = np.stack([np.zeros(len(m), bool), np.ones(len(m), bool)], axis=1)
    cls = ConceptClass(np.concatenate([m, extra], axis=1), [None] * len(m))
    ctx = prepare_context(cls, f_index=7)
    tree, n = ctx.tree, cls.domain_size
    k = len(tree.tour)
    assert k >= 256 and (tree.tin < 0).sum() >= 2
    row = np.where(tree.tin >= 0, tree.tin, k)
    points = np.arange(n).repeat(2)
    labels = np.tile(np.array([0, 1], dtype=np.uint8), n)
    codes = presence_codes(tree, points, labels)
    assert codes.dtype == np.min_scalar_type(2 * k + 1) == np.uint16
    assert np.array_equal(codes, row[points] + (k + 1) * labels.astype(np.int64))
    # the learners' table: the code of each point's representative with the
    # relabeled label
    assert ctx.tour_code.dtype == np.min_scalar_type(2 * k + 1)
    for label in (0, 1):
        relabeled = label ^ ctx.f_row
        want = row[ctx.point_map] + (k + 1) * relabeled.astype(np.int64)
        assert np.array_equal(ctx.tour_code[label], want)
        for p in range(n):
            got = presence_codes(tree, ctx.point_map[p], relabeled[p])
            assert ctx.tour_code[label, p] == got


def _forced_nodes_row_major(tree, pres0, pres1):
    """:func:`forced_nodes` as it was with one row per sample, kept as the reference.

    ``pres0[i, p]``/``pres1[i, p]``: sample ``i`` has point ``p`` labeled
    0/1. Verbatim but for the tour-order tables, which it built itself.
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
    chain = (pres1 <= on_path).all(axis=1)  # every 1-label on the path

    # tour position j lies under a 0-labeled point iff some such point's
    # interval starts at or before j and ends after it
    pos, tour_tout, tour_proper = np.arange(k), tout[tree.tour], tree.proper_mask[tree.tour]
    blocked_to = np.maximum.accumulate(
        np.where(pres0[:, tree.tour], tour_tout, 0), axis=1
    )
    live = tour_proper & (blocked_to <= pos) & (tin_d <= pos) & (pos < tout_d)
    first = live.argmax(axis=1)[:, None]
    last = k - 1 - live[:, ::-1].argmax(axis=1)[:, None]
    lca = np.where((tin <= first) & (last < tout), tin, -1).argmax(axis=1)

    consistent = chain & live.any(axis=1)
    deepest = np.where(has1 & consistent, lca, -1)
    return deepest, has1 & ~consistent


def _point_major(tree, pres):
    """One row per sample over the domain, as :func:`forced_nodes` takes it:
    a row per tour position and one for all points off the tree."""
    rows = np.where(tree.tin >= 0, tree.tin, len(tree.tour))
    out = np.zeros((len(tree.tour) + 1, len(pres)), dtype=bool)
    np.logical_or.at(out, rows, pres.T)
    return out


def test_forced_nodes_match_row_major_reference(rng):
    # random trees and thresholds(64), with constant and duplicated points
    # off the tree, a class with no tree nodes, and random samples: labeled
    # by a concept (some flipped), empty, and random, with 1-labels off the tree
    classes = [thresholds_class(64), ConceptClass.from_ones(3, [set()])]
    classes += [random_tree_class(int(n), seed=s) for s, n in enumerate(rng.integers(5, 80, 8))]
    outcomes = {"forced": 0, "nothing": 0, "empty": 0, "inconsistent": 0, "off": 0}
    for base in classes:
        m = base.matrix
        extra = np.stack([np.zeros(len(m), bool), np.ones(len(m), bool), m[:, 0]], axis=1)
        cls = ConceptClass(np.concatenate([m, extra], axis=1), [None] * len(m))
        tree = prepare_context(cls).tree
        n = len(tree.tin)
        off = np.flatnonzero(tree.tin < 0)
        nodes = np.flatnonzero(tree.tin >= 0)
        ends = [None] + nodes[tree.proper_mask[nodes]].tolist()
        samples = 200
        pres = np.zeros((2, samples, n), dtype=bool)
        for i in range(samples):
            kind = i % 5
            if kind == 4:  # empty
                continue
            pts = rng.integers(0, n, size=int(rng.integers(1, 12)))
            if kind == 3:  # random labels
                labs = rng.integers(0, 2, size=len(pts))
            else:
                end = ends[int(rng.integers(len(ends)))]
                path = np.zeros(n, bool) if end is None else root_path(tree, end)
                labs = path[pts].astype(np.int64)
                if kind == 1:
                    labs[int(rng.integers(len(labs)))] ^= 1
                if kind == 2 and len(off):  # a 1-label off the tree
                    pts = np.append(pts, off[int(rng.integers(len(off)))])
                    labs = np.append(labs, 1)
            pres[labs, i, pts] = True
        want = _forced_nodes_row_major(tree, pres[0], pres[1])
        rows = np.concatenate([_point_major(tree, pres[0]), _point_major(tree, pres[1])])
        got = forced_nodes(tree, rows)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[0].dtype == np.int64 and got[1].dtype == bool
        empty = ~pres.any(axis=(0, 2))
        outcomes["forced"] += int((got[0] >= 0).sum())
        outcomes["inconsistent"] += int(got[1].sum())
        outcomes["empty"] += int(empty.sum())
        outcomes["nothing"] += int(((got[0] < 0) & ~got[1] & ~empty).sum())
        outcomes["off"] += int(pres[1][:, off].any(axis=1).sum())
    assert min(outcomes.values()) > 100, outcomes


def test_exports(example_cls, modified_cls):
    tree = marked_tree(example_cls)
    same = np.arange(example_cls.domain_size)  # a canonical class maps onto itself
    data = tree_to_json(tree, same)
    assert len(data["nodes"]) == 7
    rec = next(r for r in data["nodes"] if r["point"] == X5)
    assert rec == {"point": X5, "parent": X1, "depth": 2, "proper": True, "points": [X5]}
    dot = tree_to_dot(tree, same)
    assert "digraph" in dot and "root ->" in dot
    # the full text of both fixtures, pinned so that the CLI output is stable
    for cls, x5_flag, x5_shape in (
        (example_cls, "true", "doublecircle"),
        (modified_cls, "false", "circle"),
    ):
        tree = marked_tree(cls)
        assert json.dumps(tree_to_json(tree, same)) == PINNED_JSON.replace("X5_FLAG", x5_flag)
        assert tree_to_dot(tree, same) == PINNED_DOT.replace("X5_SHAPE", x5_shape)


PINNED_JSON = (
    '{"nodes": [{"point": 0, "parent": null, "depth": 1, "proper": true, "points": [0]}, '
    '{"point": 1, "parent": null, "depth": 1, "proper": true, "points": [1]}, '
    '{"point": 2, "parent": null, "depth": 1, "proper": true, "points": [2]}, '
    '{"point": 3, "parent": 0, "depth": 2, "proper": true, "points": [3]}, '
    '{"point": 4, "parent": 0, "depth": 2, "proper": X5_FLAG, "points": [4]}, '
    '{"point": 5, "parent": 4, "depth": 3, "proper": true, "points": [5]}, '
    '{"point": 6, "parent": 4, "depth": 3, "proper": true, "points": [6]}]}'
)
PINNED_DOT = """digraph class_tree {
  root [shape=point, label=""];
  n0 [label="x0 (d=1)", shape=doublecircle];
  n1 [label="x1 (d=1)", shape=doublecircle];
  n2 [label="x2 (d=1)", shape=doublecircle];
  n3 [label="x3 (d=2)", shape=doublecircle];
  n4 [label="x4 (d=2)", shape=X5_SHAPE];
  n5 [label="x5 (d=3)", shape=doublecircle];
  n6 [label="x6 (d=3)", shape=doublecircle];
  root -> n0;
  root -> n1;
  root -> n2;
  n0 -> n3;
  n0 -> n4;
  n4 -> n5;
  n4 -> n6;
}"""


def test_tree_and_node_stats_arrays_are_read_only(modified_cls):
    # one tree is shared by every run through a learner context
    tree = marked_tree(modified_cls)
    zeros = _tour_zeros(tree, Dataset.from_pairs([(X6, 0)]))
    stats = node_stats(tree, make_subtree(tree, X5), zeros)
    for obj in (tree, stats):
        arrays = [
            f.name
            for f in dataclasses.fields(obj)
            if isinstance(getattr(obj, f.name), np.ndarray)
        ]
        assert len(arrays) == (6 if obj is tree else 3)
        for name in arrays:
            arr = getattr(obj, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
