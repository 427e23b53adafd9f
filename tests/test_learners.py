import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from vc1learn import (
    ConceptClass,
    Dataset,
    Distribution,
    LearnParams,
    NotRealizableError,
    PrivacyParams,
    canonicalize,
    deterministic_oracle,
    dp_audit,
    error_on_distribution,
    example_class,
    f_represent,
    improper_learn,
    improper_learn_runs,
    is_canonical,
    make_rng,
    make_tree,
    modified_example_class,
    optimal_composition,
    prepare_context,
    proper_learn,
    random_tree_class,
    sample_budget,
    sample_dataset,
    thresholds_class,
    total_privacy,
    upward_closure,
)
from vc1learn import learners
from vc1learn.audit_scenarios import improper_learner_scenario, unrealizable_neighbour_scenario
from vc1learn.oracles import AUDIT_BATCH
from vc1learn.tree import forced_nodes

from conftest import renamed_tree, represented_class

X1, X2, X3, X4, X5, X6, X7 = range(7)

PARAMS = LearnParams(alpha=0.2, beta=0.2, privacy=PrivacyParams(1.0, 1e-5))


def test_sample_budget_golden_values():
    budget = sample_budget(PARAMS, 4096)
    assert budget.t == 325
    assert budget.per_subset == 16327
    assert budget.N1 == 325 * 16327
    assert budget.N2 == 81
    assert budget.T == 10
    # a depth bound this large makes the 1/3-median term decide t
    deep = sample_budget(PARAMS, 10**40)
    assert deep.t == 563
    assert deep.N1 == 9_192_101


def test_sample_budget_monotonicity():
    half = LearnParams(alpha=0.1, beta=0.2, privacy=PrivacyParams(1.0, 1e-5))
    assert sample_budget(half, 64).N1 >= 2 * sample_budget(PARAMS, 64).N1
    looser = LearnParams(alpha=0.2, beta=0.2, privacy=PrivacyParams(2.0, 1e-5))
    assert sample_budget(looser, 64).t < sample_budget(PARAMS, 64).t


def partition(dataset: Dataset, t: int, rng: np.random.Generator) -> np.ndarray:
    """Shuffle and deal the dataset round-robin into ``t`` subsets, kept as the reference.

    Returns the int32 subset id of every example: with ``perm`` the
    shuffle, the ``j``-th example dealt, ``perm[j]``, goes to subset
    ``j % t``, so subset ``i`` holds the examples ``perm[i::t]``. The
    learners shuffle the examples' presence codes with the same draws
    instead of building ids.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if len(dataset) < t:
        raise ValueError("dataset smaller than the number of subsets")
    ids = np.empty(len(dataset), dtype=np.int32)
    ids[rng.permutation(len(dataset))] = np.arange(len(dataset)) % t
    return ids


def _subsets_of(data: Dataset, ids: np.ndarray, t: int) -> list[Dataset]:
    return [Dataset(data.points[ids == i], data.labels[ids == i]) for i in range(t)]


def _flat(subsets: list[Dataset]) -> tuple[Dataset, np.ndarray]:
    """The subsets as one sample and its ``subset_ids``, the learners' hook."""
    ids = np.repeat(np.arange(len(subsets)), [len(s) for s in subsets])
    points = np.concatenate([s.points for s in subsets])
    labels = np.concatenate([s.labels for s in subsets])
    return Dataset(points, labels), ids


def test_partition_shapes(rng):
    data = Dataset.from_pairs([(i % 4, i % 2) for i in range(10)])
    whole = partition(data, 1, rng)
    assert whole.dtype == np.int32 and whole.tolist() == [0] * 10
    for t in range(1, 11):
        sizes = np.bincount(partition(data, t, rng), minlength=t)
        assert len(sizes) == t and sizes.max() - sizes.min() <= 1
    assert sorted(np.bincount(partition(data, 3, rng)).tolist()) == [3, 3, 4]
    with pytest.raises(ValueError):
        partition(data, 11, rng)


def test_partition_is_deterministic_and_preserves_multiset():
    data = Dataset.from_pairs([(i % 5, (i // 2) % 2) for i in range(23)])
    a = partition(data, 4, make_rng(9))
    b = partition(data, 4, make_rng(9))
    assert np.array_equal(a, b)
    # subset i is exactly the old round-robin deal perm[i::t] of one shuffle
    perm = make_rng(9).permutation(len(data))
    for i in range(4):
        assert (a[perm[i::4]] == i).all()
    merged = sorted(pair for s in _subsets_of(data, a, 4) for pair in s.pairs())
    assert merged == sorted(data.pairs())


def test_improper_worked_example(example_cls):
    # two subsets whose forced sets are {x1} and {x1,x5,x7}; median pinned to 2
    ctx = prepare_context(example_cls, f_index=7)  # the all-zeros member
    subsets = [
        Dataset.from_pairs([(X1, 1)]),
        Dataset.from_pairs([(X1, 1), (X5, 1), (X7, 1)]),
    ]
    data, ids = _flat(subsets)
    trace = improper_learn(
        example_cls,
        data,
        PARAMS,
        make_rng(0),
        context=ctx,
        subset_ids=ids,
        force_median=2,
        greedy=True,
    )
    assert trace.subset_depths == (1, 3)
    assert trace.subset_deepest == (X1, X7)
    assert trace.candidates == (X4, X5)
    assert trace.scores == (0, 1)
    assert trace.chosen_point == X5
    assert trace.hypothesis.ones == frozenset({X1, X5})
    assert trace.hypothesis.proper_index == 4  # the {x1,x5} concept
    for bad_ids in (ids[:-1], ids - 1):
        with pytest.raises(ValueError, match="one nonnegative id per example"):
            improper_learn(example_cls, data, PARAMS, make_rng(0), subset_ids=bad_ids)
    with pytest.raises(ValueError, match="requires stage2"):
        proper_learn(example_cls, data, PARAMS, make_rng(0), subset_ids=ids)


def test_subset_ids_must_be_integers(example_cls, monkeypatch):
    # float ids used to fail inside the scatter and bool ids passed as
    # subsets 0 and 1; both are rejected before any draw
    calls = []
    monkeypatch.setattr(learners, "_subset_summaries", lambda *args: calls.append(args))
    data = Dataset.from_pairs([(X1, 1), (X2, 0), (X5, 1), (X3, 0)])
    for bad in (np.array([0.0, 1.0, 0.0, 1.0]), np.array([False, True, False, True])):
        for learn, extra in ((improper_learn, {}), (proper_learn, {"stage2": data})):
            rng = make_rng(0)
            with pytest.raises(ValueError, match="subset_ids must be integer ids"):
                learn(example_cls, data, PARAMS, rng, subset_ids=bad, **extra)
            assert rng.bit_generator.state == make_rng(0).bit_generator.state
    assert not calls


def test_improper_single_concept_class(rng):
    cls, merge = canonicalize(ConceptClass.from_ones(3, [{0, 2}]))
    raw = Dataset.from_pairs([(0, 1), (1, 0), (2, 1)])
    data = Dataset(merge[raw.points], raw.labels)
    expected = cls.concepts[0].ones
    for seed in range(5):
        trace = improper_learn(cls, data, PARAMS, make_rng(seed))
        assert trace.hypothesis.ones == expected
        assert trace.hypothesis.proper_index == 0


def test_improper_unrealizable_subset_gets_empty_summary(example_cls):
    # no concept labels both x2 and x3 with 1; that subset is summarised
    # like one that forces nothing, and the run goes on as for such a subset
    ctx = prepare_context(example_cls, f_index=7)
    bad = Dataset.from_pairs([(X2, 1), (X3, 1)])
    empty = Dataset.from_pairs([(X3, 0)])
    good = Dataset.from_pairs([(X1, 1), (X5, 1)])
    data, ids = _flat([bad, good])
    trace = improper_learn(
        example_cls, data, PARAMS, make_rng(0), context=ctx, subset_ids=ids
    )
    assert trace.subset_depths == (0, 2)
    assert trace.subset_deepest == (None, X5)
    data, ids = _flat([empty, good])
    same = improper_learn(
        example_cls, data, PARAMS, make_rng(0), context=ctx, subset_ids=ids
    )
    assert trace.to_json() == same.to_json()


def test_one_flipped_label_never_raises(example_cls):
    # a realizable sample whose neighbour flips x2's label to 1: the subset
    # holding that example is inconsistent, and neither learner raises
    ctx = prepare_context(example_cls)
    target = example_cls.concepts[5]  # {x1, x5, x6}
    pairs = [(p, target(p)) for p in range(7)] * 8
    assert pairs[0] == (X1, 1) and pairs[1] == (X2, 0)
    flipped = Dataset.from_pairs([pairs[0], (X2, 1)] + pairs[2:])
    for seed in range(5):
        ids = partition(flipped, 8, make_rng(seed))
        unrealizable = 0
        for s in _subsets_of(flipped, ids, 8):
            try:
                deterministic_oracle(example_cls, s)
            except NotRealizableError:
                unrealizable += 1
        assert unrealizable == 1
        improper_learn(
            example_cls, flipped, PARAMS, make_rng(seed), context=ctx, subset_ids=ids
        )
        trace = proper_learn(
            example_cls,
            flipped,
            PARAMS,
            make_rng(seed),
            context=ctx,
            subset_ids=ids,
            stage2=flipped,
        )
        assert trace.hypothesis.proper_index is not None
    # and through the learners' own partitioning
    many = Dataset(np.tile(flipped.points, 50), np.tile(flipped.labels, 50))
    for seed in range(5):
        improper_learn(example_cls, many, PARAMS, make_rng(seed), context=ctx)
        proper_learn(example_cls, many, PARAMS, make_rng(seed), context=ctx)


def test_unrealizable_neighbour_audit(example_cls):
    mech, data_a, data_b, claimed = unrealizable_neighbour_scenario(1.0, 1e-5)
    assert deterministic_oracle(example_cls, data_a) == example_cls.concepts[-2].ones
    with pytest.raises(NotRealizableError):
        deterministic_oracle(example_cls, data_b)
    # the neighbour reaches the fallback summary: with about seven examples
    # per subset, the subset holding the flipped label is mostly inconsistent
    ctx = prepare_context(example_cls)
    params = LearnParams(alpha=0.2, beta=0.1, privacy=PrivacyParams(1.0, 1e-5))
    t = min(sample_budget(params, ctx.tree.height).t, len(data_b))
    k = len(ctx.tree.tour)
    runs, hits = 50, 0
    for seed in range(runs):
        for data in (data_a, data_b):
            ids = partition(data, t, make_rng(seed))
            pres = np.zeros((2 * (k + 1), t), dtype=bool)
            pres[ctx.tour_code[data.labels, data.points], ids] = True
            _, inconsistent = forced_nodes(ctx.tree, pres[: k + 1], pres[k + 1 :])
            if data is data_a:
                assert not inconsistent.any()
            else:
                hits += int(inconsistent.any())
    assert hits >= 0.8 * runs, hits
    est = dp_audit(mech, data_a, data_b, 20_000, claimed.delta, make_rng(4100))
    assert est <= claimed.epsilon + 0.3, f"{est} vs {claimed.epsilon}"


@pytest.mark.parametrize(
    "privacy, message",
    [
        (PrivacyParams(2.0, 1e-5), "epsilon must be in (0, 2)"),
        (PrivacyParams(0.0, 1e-5), "epsilon must be in (0, 2)"),
        (PrivacyParams(1.0, 0.0), "delta must be positive"),
    ],
)
def test_learners_validate_privacy_before_touching_data(example_cls, privacy, message):
    params = LearnParams(alpha=0.2, beta=0.2, privacy=privacy)
    data = Dataset.from_pairs([(p, 0) for p in range(7)] * 10)
    for learn in (improper_learn, proper_learn):
        rng = make_rng(0)
        with pytest.raises(ValueError, match=re.escape(message)):
            learn(example_cls, data, params, rng)
        # no draw was made: the sample was neither split nor shuffled
        assert rng.bit_generator.state == make_rng(0).bit_generator.state


def test_learners_reject_points_outside_the_domain_before_any_draw(example_cls):
    # point 9 is off the example class's 7 points: every gather raises first
    good = Dataset.from_pairs([(p, 0) for p in range(7)] * 10)
    bad = Dataset.from_pairs([(p, 0) for p in range(7)] * 10 + [(9, 1)])
    runs = [
        lambda rng: improper_learn(example_cls, bad, PARAMS, rng),
        lambda rng: improper_learn_runs(example_cls, bad, PARAMS, rng, 4),
        lambda rng: proper_learn(example_cls, bad, PARAMS, rng),  # the split
        lambda rng: proper_learn(example_cls, good, PARAMS, rng, stage2=bad),
        lambda rng: proper_learn(example_cls, bad, PARAMS, rng, stage2=good),
        lambda rng: proper_learn(
            example_cls, None, PARAMS, rng, stage2=bad, force_chosen_point=X7
        ),
    ]
    for run in runs:
        rng = make_rng(0)
        with pytest.raises(ValueError, match="dataset point outside class domain"):
            run(rng)
        assert rng.bit_generator.state == make_rng(0).bit_generator.state


def test_proper_rejects_context_of_another_class(example_cls, modified_cls):
    ctx = prepare_context(example_cls)
    with pytest.raises(ValueError, match="different class"):
        proper_learn(
            modified_cls,
            None,
            PARAMS,
            make_rng(0),
            context=ctx,
            force_chosen_point=X7,
            stage2=Dataset.from_pairs([(X1, 1)]),
        )


def test_proper_rejects_forced_points_off_the_tree(example_cls):
    # negative ids must not wrap onto tree points (-1: the last, -7: the first)
    ctx = prepare_context(example_cls)
    for bad in (-1, -7, 7, 99):
        rng = make_rng(0)
        with pytest.raises(ValueError, match=f"point {bad} not in tree"):
            proper_learn(
                example_cls,
                Dataset.from_pairs([(X1, 1)] * 4),
                PARAMS,
                rng,
                context=ctx,
                force_chosen_point=bad,
            )
        # rejected before the stage split draws from the generator
        assert rng.bit_generator.state == make_rng(0).bit_generator.state


def test_prepare_context_memory_is_bounded():
    # the reduction and the tree build work on packed rows (4.1 MiB peak
    # here); a build on dense n x n bool or int temporaries takes 24 MiB
    cls = thresholds_class(2048)
    tracemalloc.start()
    try:
        ctx = prepare_context(cls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctx.tree.height == 2048
    assert peak <= 2 * cls.matrix.nbytes


def test_prepare_context_matches_canonicalized_representation(corpus):
    # the matrix set-up equals the concept-level pipeline it replaces, on
    # any class; the last class has points in every concept and in none,
    # which stay off the tree, a repeated concept and two equal columns
    raw = ConceptClass.from_ones(
        6, [{4}, {0, 4, 5}, {0, 1, 4, 5}, {2, 4}, {0, 4, 5}, {0, 1, 4, 5}]
    )
    for base in corpus + [raw]:
        last = len(base.concepts) - 1
        for f_index in sorted({0, last // 2, last}):
            ctx = prepare_context(base, f_index)
            ref, ref_map = canonicalize(f_represent(base, base.concepts[f_index]))
            # the reduced class's point i is the class point cols[i], the
            # lowest one point_map sends there
            cols = np.flatnonzero(ctx.point_map == np.arange(base.domain_size))
            assert np.array_equal(cols[ref_map], ctx.point_map)
            assert represented_class(ctx) == ref
            tree = make_tree(ref)
            assert ctx.tree.height == tree.height
            assert ctx.tree.proper == {int(cols[p]): v for p, v in tree.proper.items()}
            for name, want in renamed_tree(tree, cols, base.domain_size).items():
                assert np.array_equal(getattr(ctx.tree, name), want), name
            assert np.array_equal(ctx.depth_vec[cols], tree.depth)
            levels = {}
            for p in tree.tour.tolist():
                levels.setdefault(int(tree.depth[p]), []).append(int(cols[p]))
            # the improper stage's candidates at depth z are the tree points
            # there, ascending; none at depth 0, where off-tree points sit
            one = Dataset.from_pairs([(0, 0)])
            for z in range(tree.height + 2):
                trace = improper_learn(
                    base,
                    one,
                    PARAMS,
                    make_rng(0),
                    context=ctx,
                    subset_ids=np.zeros(1, dtype=np.int64),
                    force_median=z,
                    greedy=True,
                )
                assert trace.candidates == tuple(sorted(levels.get(z, []))), z


def _raw_variant(cls, rng):
    """``cls`` with repeated concepts and columns and two constant columns, shuffled."""
    m = cls.matrix
    rows = rng.permutation(np.append(np.arange(len(m)), rng.integers(0, len(m), 3)))
    cols = np.append(np.arange(m.shape[1]), rng.integers(0, m.shape[1], 3))
    n = len(rows)
    raw = np.hstack([m[np.ix_(rows, cols)], np.ones((n, 1), bool), np.zeros((n, 1), bool)])
    raw = raw[:, rng.permutation(raw.shape[1])]
    return ConceptClass(raw, [f"r{i}" for i in range(len(raw))])


def _renamed(trace_json, name):
    """A trace's node fields with every node id passed through ``name``.

    The fields lifted to the class (hypothesis and reference concept) are
    dropped.
    """

    def ids(v):
        if isinstance(v, list):
            return [ids(x) for x in v]
        return None if v is None else name(v)

    out = {}
    for key, v in trace_json.items():
        if key in ("chosen_point", "leaf", "candidates", "subset_deepest"):
            out[key] = ids(v)
        elif key == "subtree":
            out[key] = v and {k: ids(x) for k, x in v.items()}
        elif key == "path":
            out[key] = [[name(a), case, name(b)] for a, case, b in v]
        elif key == "stage1":
            out[key] = v and _renamed(v, name)
        elif key not in ("hypothesis", "reference_concept", "reference_index"):
            out[key] = v
    return out


def test_learners_on_a_raw_class_match_canonicalize_then_learn(corpus, rng):
    # prepare_context is the one place a class is reduced: on a class with
    # repeated concepts, repeated columns and constant columns, both
    # learners run as on canonicalize(raw) with the data mapped through the
    # merge map, and their hypotheses are that run's, lifted back
    descents = moved = 0
    for k, cls in enumerate(corpus):
        raw = _raw_variant(cls, rng)
        canon, merge = canonicalize(raw)
        assert not is_canonical(raw)
        size = int(rng.integers(20, 80))
        pts = rng.integers(0, raw.domain_size, size=size)
        labs = raw.matrix[int(rng.integers(len(raw))), pts].astype(np.uint8)
        if k % 3 == 0:  # an unrealizable sample
            labs[rng.integers(size)] ^= 1
        data_raw, data_canon = Dataset(pts, labs), Dataset(merge[pts], labs)
        for f_raw in (0, len(raw) - 1):
            f_canon = canon.index_of(merge[np.flatnonzero(raw.matrix[f_raw])].tolist())
            ctx_raw = prepare_context(raw, f_raw)
            ctx_canon = prepare_context(canon, f_canon)
            # the same tree on both sides, canon's point j named by the raw
            # point cols[j]: force a descent from its first unrealized node,
            # if it has one, carried to canon through the point maps
            cols = np.unique(merge, return_index=True)[1]
            tree = ctx_raw.tree
            assert np.array_equal(tree.tour, cols[ctx_canon.tree.tour])
            unrealized = np.flatnonzero((tree.tin >= 0) & ~tree.proper_mask)[:1].tolist()
            runs = [(improper_learn, {}, {}), (proper_learn, {}, {})] + [
                (
                    proper_learn,
                    {"force_chosen_point": x},
                    {"force_chosen_point": int(ctx_canon.point_map[merge[x]])},
                )
                for x in unrealized
            ]
            for learn, kw_raw, kw_canon in runs:
                greedy = k % 2 == 1
                a = learn(raw, data_raw, PARAMS, make_rng(k), context=ctx_raw,
                          greedy=greedy, **kw_raw)
                b = learn(canon, data_canon, PARAMS, make_rng(k), context=ctx_canon,
                          greedy=greedy, **kw_canon)
                assert _renamed(a.to_json(), int) == _renamed(
                    b.to_json(), lambda j: int(cols[j])
                )
                ones = b.hypothesis.ones
                assert a.hypothesis.ones == {p for p, q in enumerate(merge) if q in ones}
                i, j = a.hypothesis.proper_index, b.hypothesis.proper_index
                assert (i is None) == (j is None)
                if i is not None:
                    assert i == raw.index_of(a.hypothesis.ones)
                    assert raw.ids[i] == canon.ids[j]
                    moved += i != j
                descents += getattr(a, "subtree", None) is not None
    # the runs cover descents and rows that moved when duplicates went
    assert descents > 100 and moved > 100, (descents, moved)


def test_subset_summaries_match_oracle_across_corpus(corpus, rng):
    # the flat kernel against the literal intersection, subset by subset:
    # random subset ids (some subsets empty), some subsets with one label
    # flipped, and a member concept other than the first
    outcomes = {"forced": 0, "nothing": 0, "empty": 0, "unrealizable": 0}
    for cls in corpus:
        base, _ = canonicalize(cls)
        if len(base.concepts) < 2:
            continue
        f_index = int(rng.integers(1, len(base.concepts)))
        f = base.concepts[f_index]
        ctx = prepare_context(base, f_index)
        rep, merge = canonicalize(f_represent(base, f))
        size = int(rng.integers(1, 60))
        t = int(rng.integers(1, 12))
        pts = rng.integers(0, base.domain_size, size=size)
        labs = base.matrix[int(rng.integers(len(base.concepts))), pts].astype(np.uint8)
        ids = rng.integers(0, t, size=size).astype(np.int32)
        for i in range(t):
            members = np.flatnonzero(ids == i)
            if len(members) and rng.random() < 0.5:
                labs[rng.choice(members)] ^= 1
        codes = ctx.tour_code[labs, pts]
        deepest, depths = learners._subset_summaries(ctx, codes, ids, t)
        assert deepest.shape == depths.shape == (t,)
        for i in range(t):
            sub_pts = pts[ids == i]
            relabeled = labs[ids == i] ^ np.array([f(int(p)) for p in sub_pts], dtype=np.uint8)
            try:
                forced = deterministic_oracle(rep, Dataset(merge[sub_pts], relabeled))
            except NotRealizableError:
                forced = frozenset()
                outcomes["unrealizable"] += 1
            else:
                kind = "forced" if forced else "nothing" if len(sub_pts) else "empty"
                outcomes[kind] += 1
            if forced:
                assert upward_closure(ctx.tree, int(deepest[i])) == forced
                assert depths[i] == len(forced)
            else:
                assert deepest[i] == -1 and depths[i] == 0
    assert min(outcomes.values()) > 100, outcomes


def test_improper_learns_thresholds_statistically():
    cls = thresholds_class(64)
    dist = Distribution.uniform(64)
    ctx = prepare_context(cls)
    hits = 0
    trials = 40
    for seed in range(trials):
        rng = make_rng(1000 + seed)
        c_star = cls.concepts[int(rng.integers(len(cls.concepts)))]
        data = sample_dataset(cls, c_star, dist, 20_000, rng)
        trace = improper_learn(cls, data, PARAMS, rng, context=ctx)
        if error_on_distribution(trace.hypothesis, c_star, dist) <= PARAMS.alpha:
            hits += 1
    assert hits >= trials * 0.8


def test_improper_chosen_point_on_true_chain():
    # the selected node lies on the true concept's represented path
    cls = random_tree_class(24, max_children=3, concept_rate=0.7, seed=5)
    ctx = prepare_context(cls)
    rep = represented_class(ctx)
    dist = Distribution.uniform(cls.domain_size)
    ok = 0
    trials = 40
    for seed in range(trials):
        rng = make_rng(seed)
        idx = int(rng.integers(len(cls.concepts)))
        c_star = cls.concepts[idx]
        data = sample_dataset(cls, c_star, dist, 4000, rng)
        trace = improper_learn(cls, data, PARAMS, rng, context=ctx)
        # concepts keep their position through representation + canonicalization
        rep_ones = rep.concepts[idx].ones
        if trace.chosen_point is None:
            ok += rep_ones == frozenset()
        else:
            ok += trace.chosen_point in rep_ones
    assert ok >= trials * 0.8


def test_improper_y_depths_on_one_chain(example_cls):
    # realizable subsets give nested forced sets: depths determine points
    ctx = prepare_context(example_cls, f_index=7)
    rng = make_rng(3)
    c_star = example_cls.concepts[6]  # {x1,x5,x7}
    dist = Distribution.uniform(7)
    data = sample_dataset(example_cls, c_star, dist, 60, rng)
    trace = improper_learn(example_cls, data, PARAMS, rng, context=ctx)
    chain = {None, X1, X5, X7}
    assert set(trace.subset_deepest) <= chain


def test_q_scores_are_one_bounded(example_cls):
    # adding one example to any subset changes at most one score, by at most 1
    ctx = prepare_context(example_cls, f_index=7)
    rng = make_rng(11)
    c_star = example_cls.concepts[6]
    dist = Distribution.uniform(7)
    subsets = [
        sample_dataset(example_cls, c_star, dist, 4, rng) for _ in range(6)
    ]

    def scores_for(subs, z):
        data, ids = _flat(subs)
        trace = improper_learn(
            example_cls,
            data,
            PARAMS,
            make_rng(0),
            context=ctx,
            subset_ids=ids,
            force_median=z,
            greedy=True,
        )
        return trace.scores

    for z in (1, 2, 3):
        base = scores_for(subsets, z)
        for i in range(len(subsets)):
            for extra_pt in range(7):
                grown = list(subsets)
                grown[i] = Dataset.from_pairs(
                    grown[i].pairs() + [(extra_pt, c_star(extra_pt))]
                )
                new = scores_for(grown, z)
                diffs = [n - b for n, b in zip(new, base)]
                assert all(d in (0, 1) for d in diffs)
                assert sum(d != 0 for d in diffs) <= 1


def test_improper_sandwich_on_traces(example_cls):
    # with realizable data, forced sets nest inside the true path, so the
    # output path's empirical error never exceeds both endpoints'
    ctx = prepare_context(example_cls, f_index=7)
    rep = represented_class(ctx)
    dist = Distribution.uniform(7)
    for seed in range(30):
        rng = make_rng(500 + seed)
        c_star = example_cls.concepts[int(rng.integers(len(example_cls.concepts)))]
        subsets = [
            sample_dataset(example_cls, c_star, dist, 6, rng) for _ in range(8)
        ]
        data, ids = _flat(subsets)
        trace = improper_learn(
            example_cls, data, PARAMS, rng, context=ctx, subset_ids=ids
        )
        if trace.chosen_point is None:
            continue
        from vc1learn import deterministic_points, upward_closure

        closure = upward_closure(ctx.tree, trace.chosen_point)
        full = Dataset.from_pairs(
            [pair for s in subsets for pair in s.pairs()]
        )

        def empirical_error(ones):
            wrong = sum(1 for p, l in full.pairs() if (p in ones) != l)
            return wrong / len(full)

        forced = [
            deterministic_points(rep, s, tree=ctx.tree) for s in subsets
        ]
        inner = [d for d in forced if d.points <= closure]
        outer = [
            d
            for d in forced
            if d.deepest is not None
            and closure <= upward_closure(ctx.tree, d.deepest)
        ]
        for d_in in inner:
            for d_out in outer:
                bound = max(
                    empirical_error(d_in.points),
                    empirical_error(upward_closure(ctx.tree, d_out.deepest)),
                )
                assert empirical_error(closure) <= bound + 1e-12


def test_proper_returns_member_when_node_realized(modified_cls):
    # a realized selection point skips the descent entirely
    trace = proper_learn(
        modified_cls,
        None,
        PARAMS,
        make_rng(0),
        force_chosen_point=X7,
        stage2=Dataset.from_pairs([(X1, 1)]),
    )
    assert trace.subtree is None and trace.path == ()
    assert trace.hypothesis.proper_index is not None
    assert trace.hypothesis.ones == frozenset({X1, X5, X7})


def test_proper_two_leaf_descent(modified_cls):
    # unrealized selection x5 with label-0 mass on x6's side: pick x7's branch
    params = LearnParams(alpha=0.25, beta=0.25, privacy=PrivacyParams(1.0, 1e-5))
    stage2 = Dataset.from_pairs(
        [(X6, 0)] * 20 + [(X7, 1)] * 10 + [(X5, 1)] * 10
    )
    wins = 0
    trials = 200
    for seed in range(trials):
        trace = proper_learn(
            modified_cls,
            None,
            params,
            make_rng(seed),
            force_chosen_point=X5,
            stage2=stage2,
        )
        assert trace.hypothesis.proper_index is not None
        if trace.hypothesis.ones == frozenset({X1, X5, X7}):
            wins += 1
    # exact failure odds: gate miss P(Lap(1) > alpha*N - 0) = e^-10/2 plus
    # EM odds e^0 : e^-10; both far below beta
    assert wins >= (1 - params.beta) * trials


def test_proper_always_outputs_member(rng):
    for seed in (1, 2, 3):
        cls = random_tree_class(16, max_children=2, concept_rate=0.3, seed=seed)
        ctx = prepare_context(cls)
        dist = Distribution.uniform(cls.domain_size)
        for trial in range(10):
            trng = make_rng(seed * 100 + trial)
            c_star = cls.concepts[int(trng.integers(len(cls.concepts)))]
            data = sample_dataset(cls, c_star, dist, 2000, trng)
            trace = proper_learn(cls, data, PARAMS, trng, context=ctx)
            idx = trace.hypothesis.proper_index
            assert idx is not None
            assert cls.concepts[idx].ones == trace.hypothesis.ones


def test_proper_loop_respects_iteration_bound(modified_cls):
    params = LearnParams(alpha=0.25, beta=0.25, privacy=PrivacyParams(1.0, 1e-5))
    budget = sample_budget(params, 3)
    stage2 = Dataset.from_pairs([(X6, 0)] * 40 + [(X7, 0)] * 40)
    for seed in range(50):
        trace = proper_learn(
            modified_cls,
            None,
            params,
            make_rng(seed),
            force_chosen_point=X5,
            stage2=stage2,
        )
        assert len(trace.path) <= budget.T
        assert trace.leaf in (X6, X7)


def test_total_privacy_values():
    budget = sample_budget(PARAMS, 16)
    zero = total_privacy(PARAMS, budget, loop_iterations=0)
    assert zero.epsilon == 2.0 and zero.delta == 2e-5

    t8 = total_privacy(
        LearnParams(alpha=0.2, beta=0.2, privacy=PrivacyParams(0.1, 1e-5)),
        budget,
        delta_prime=1e-6,
        loop_iterations=8,
    )
    # the loop's 8 steps of 2 eps = 0.2 compose to basic 1.6 (full DRV: 3.3)
    assert t8.epsilon == pytest.approx(2 * 0.1 + 8 * 0.2, rel=1e-12)
    assert t8.epsilon - 2 * 0.1 >= optimal_composition(0.2, 8, 1e-6)
    assert t8.delta == pytest.approx(2e-5 + 1e-6)

    # 2000 steps of 0.02: full DRV (5.5) beats basic (40)
    t2000 = total_privacy(
        LearnParams(alpha=0.2, beta=0.2, privacy=PrivacyParams(0.01, 1e-5)),
        budget,
        delta_prime=1e-6,
        loop_iterations=2000,
    )
    loop_eps = math.sqrt(2 * 2000 * math.log(1e6)) * 0.02 + 2000 * 0.02 * (math.exp(0.02) - 1)
    assert loop_eps < 6
    assert t2000.epsilon == pytest.approx(2 * 0.01 + loop_eps, rel=1e-12)
    assert t2000.epsilon - 2 * 0.01 >= optimal_composition(0.02, 2000, 1e-6)

    eps_prev = 0.0
    for t in (1, 2, 5, 9, 40):
        eps_t = total_privacy(PARAMS, budget, loop_iterations=t).epsilon
        assert eps_t > eps_prev
        assert eps_t - 2.0 >= optimal_composition(2.0, t, 1e-5)
        eps_prev = eps_t


def test_trace_serialization(modified_cls):
    params = LearnParams(alpha=0.25, beta=0.25, privacy=PrivacyParams(1.0, 1e-5))
    trace = proper_learn(
        modified_cls,
        None,
        params,
        make_rng(4),
        force_chosen_point=X5,
        stage2=Dataset.from_pairs([(X6, 0)] * 8),
    )
    blob = trace.to_json()
    assert blob["chosen_point"] == X5
    assert set(blob["subtree"]["leaves"]) == {X6, X7}
    assert blob["hypothesis"]["proper_index"] is not None
    assert blob["path"] and blob["path"][0][0] == X5
    # a fixed-seed descent through the uniform case, pinned in full
    stage2 = Dataset.from_pairs(
        [(X6, 0)] * 12 + [(X7, 0)] * 9 + [(X5, 0)] * 3 + [(X5, 1)] * 6
    )
    trace = proper_learn(
        modified_cls, None, params, make_rng(0), force_chosen_point=X5, stage2=stage2
    )
    assert json.dumps(trace.to_json()) == (
        '{"chosen_point": 4, "subtree": {"root": 4, "nodes": [4, 5, 6], '
        '"leaves": [5, 6]}, "path": [[4, "uniform", 6]], "leaf": 6, '
        '"hypothesis": {"ones": [0, 4, 6], "proper_index": 5}, "stage1": null}'
    )


# sha256 of the sorted-key JSON of each case's traces over seeds 0-2,
# recorded before the improper learner ran R runs per call; a change to
# any fixed-seed trace changes one of these
PINNED_TRACE_DIGESTS = {
    "example/improper400": "82003fa4af4decc7dc0f2bd727efca3be42aed189381acafea5cf65dd81ae72f",
    "example/proper400": "213e63902225b114467a7bab33991f54e9d83e4b3969fc64b984ccac1ba9c0c2",
    "example/improper60": "4d8340359ba70277147496f652cbfc1000c7a4c18f1bafbbafccbbecaecdd4f1",
    "example/proper60": "5e0f3540ff545cee099b99ddc2ef3029cb61086935d441442c958f6636566a79",
    "example/subset_ids": "bf9a2f08b71373b4acbf0ddd8be96686a6468193d251c1ef02327632d81d9fc3",
    "example/greedy": "2683385d8c516abd07410b3ebd9f27f0baa00ed78be353e9d56df5bda06ec810",
    "example/force_median": "1349a2f41669170bedd6815a0ee02fe38b6461ab2937e6aec6f74b9cd8be51d6",
    "example/proper_greedy": "cc033e089e29eeb8b0e768797af5f76d2c10f22dd56fab1de0a31448074577ea",
    "modified/improper400": "7dcbbaec78d23bbaba46496a543b6c6c0228a33a15efe2c09ea889d5f887f4f4",
    "modified/proper400": "2683bb5296cc94e7a476f2befd1a72384f3567e4fc266ad0b5230048eb185fd8",
    "modified/improper60": "c56875679b2ad954b9fc749646ad8b66f531dafeba2e42b58faa2a7ed70dc9ef",
    "modified/proper60": "f4c441d9823fa6753d56ef5fabf25ea79062b4a121c5d250fddef7efc6bb007b",
    "modified/subset_ids": "bb8815c3b3ee97ad684f7928a8365505b013bd2349c7baee39c3b13e8311537e",
    "modified/greedy": "2763fa399a28686784407cb45094e67a24a544dd172a9ca6bcd2fda6bcb5927c",
    "modified/force_median": "84f9f16ad05b4da42dbb7fd15e1cfc14233ae4c5a73c84dcdbf64e16176a0820",
    "modified/proper_greedy": "40439d9aad6bbf997b0bb6435fddffcff29ef624cafc4f68e72b63ae8dba883d",
    "modified/descent": "29cf41150ce9c001659934ae589cd7e1010753eb2713a5e6eb7bd4c4fd1f5d28",
    "thresholds64/improper400": "f1c39dadfd6daa6e4d41354902841db22354413a6291c05a276e59d34eb8d7e5",
    "thresholds64/proper400": "95d656a6e9810232dbf5a066f363fa7230a55a74b3be49757bb737adea63cf18",
    "thresholds64/improper60": "039e1e3e3c05ca90f7a84adbdf8e0283db470e1a877d250d4e9746b2fce6bd48",
    "thresholds64/proper60": "7d00121da69312746236fd435933bedf8c95874afad33e435bf818e7b0509f98",
    "thresholds64/subset_ids": "0006709a22a533d4d5a88dca1f9f80124ffa990542ab923c2e3a995c6ca049f4",
    "thresholds64/greedy": "0289714ec06146ee26fd7ce0924cb0faad7a851e9339405d2d1c85cd4a02e206",
    "thresholds64/force_median": "1a679338fd6419140a9419fae1e591ffb74074b43df2307a79616c2464c0064f",
    "thresholds64/proper_greedy": "fbcf63ca9ed7f63facb37c730b715e26101118da10458592ebdf1fbccd95e801",
    "tree40/improper400": "cca38fd60395e2a3bef21107d39de8a109d2fb932163ac18873b8d0886dab17e",
    "tree40/proper400": "bb2e67ff1d1497a2fc1f708921554e3001b46f15f74f8abcc01b49f1f11e0194",
    "tree40/improper60": "fc47c3756c458079467e1b7cf0682012303524420359cff94d71ddd11f48f080",
    "tree40/proper60": "d66cdfa5e6e58c254040157ee8fd9224e5f5f6d9ea09f4ceafbca18fcdc77931",
    "tree40/subset_ids": "bfc3b1eb3fb8503e6d213195d0e7c4d16343c7abe3f0d75b6dcd0c300e87b7cb",
    "tree40/greedy": "14ae13c57e8226cd6f24dd1421c647d17cfe8a0037eecdf49ac4d3289a053248",
    "tree40/force_median": "a0e58d37651d0e6dea0b9f1cb1636863323499611889b6083c7b473a23714df4",
    "tree40/proper_greedy": "42852b7191b2c49896e7d6ab84a4562db252ec727e0bef70e2af824401cd6f8c",
    "tree40/descent": "01a56569a2950eee57034b7a661876ab6fc806a3fd040494c44bbdc0135e26cc",
    "tree90/improper400": "bbf1accc2b8df26d4a43a86c628815d9db1ddea502a9336ea9ac99e21a6bc16a",
    "tree90/proper400": "1059fd2d5d6a1bdad4c45b18b7e8725975350b7f71708d2d3f02f0fc60e5581b",
    "tree90/improper60": "ce7011f6c400f43dc46eb11aba9e9474dbd861ba30ad54a303e4102b9b354ce0",
    "tree90/proper60": "ed0731274d1fa51c72ee25e7df78f90e2cf582e691f7a5778590575577c113f1",
    "tree90/subset_ids": "6d711b2cbdde96b0895d26275ef9a78110da81df8b6cb84abe99b29e3f875165",
    "tree90/greedy": "4f88c2df817e978335cb3774f30253a4ddf16fab80af3bfbbd649cf49bd11fc1",
    "tree90/force_median": "10191183a0b6a2bb67e2f026d253ccb275f8f3edaf478158233e24ae5e6ac12f",
    "tree90/proper_greedy": "009f26a7382be623f6b1f51732056c43f3710827336928914cb0a6fef8a60c9c",
    "tree90/descent": "2cfc6357ac85bb72bd4e9537cf9ed8a297ef58287fbb2d3631d569bc604f0260",
}


def _pinned_trace_cases():
    """Fixed-seed runs of both learners: private, greedy, forced median,
    passed subsets and forced descents, on five classes."""
    loose = LearnParams(alpha=0.3, beta=0.9, privacy=PrivacyParams(1.9, 0.5))
    audit = LearnParams(alpha=0.2, beta=0.1, privacy=PrivacyParams(1.0, 1e-5))
    classes = {
        "example": example_class(),
        "modified": modified_example_class(),
        "thresholds64": thresholds_class(64),
        "tree40": random_tree_class(40, max_children=3, concept_rate=0.5, seed=7),
        "tree90": random_tree_class(90, max_children=2, concept_rate=0.3, seed=11),
    }
    cases = {}
    for name, cls in classes.items():
        ctx = prepare_context(cls)
        w = 0.6 ** ctx.tree.depth[ctx.point_map]
        dist = Distribution(w / w.sum())
        target = cls.concepts[len(cls.concepts) // 2]
        unreal = np.flatnonzero(~ctx.tree.proper_mask & (ctx.tree.tin >= 0))
        for seed in range(3):
            def add(kind, trace):
                cases.setdefault(f"{name}/{kind}", []).append(trace.to_json())

            for params, m in ((loose, 400), (audit, 60)):
                data = sample_dataset(cls, target, dist, m, make_rng([seed, m]))
                add(f"improper{m}", improper_learn(cls, data, params, make_rng(seed), context=ctx))
                add(f"proper{m}", proper_learn(cls, data, params, make_rng(seed), context=ctx))
            data = sample_dataset(cls, target, dist, 300, make_rng([seed, 9]))
            run = dict(context=ctx)
            add("subset_ids", improper_learn(
                cls, data, loose, make_rng(seed), subset_ids=np.arange(300) % 5, **run))
            add("greedy", improper_learn(cls, data, loose, make_rng(seed), greedy=True, **run))
            add("force_median", improper_learn(
                cls, data, loose, make_rng(seed), force_median=min(seed + 1, ctx.tree.height), **run))
            add("proper_greedy", proper_learn(cls, data, loose, make_rng(seed), greedy=True, **run))
            if len(unreal):  # a node no concept realizes: descend from it
                add("descent", proper_learn(
                    cls, None, loose, make_rng(seed), stage2=data,
                    force_chosen_point=int(unreal[seed % len(unreal)]), **run))
    return cases


def test_fixed_seed_traces_match_pinned_digests():
    cases = _pinned_trace_cases()
    got = {
        k: hashlib.sha256(json.dumps(v, sort_keys=True).encode()).hexdigest()
        for k, v in cases.items()
    }
    assert {k: v for k, v in got.items() if PINNED_TRACE_DIGESTS.get(k) != v} == {}
    assert set(got) == set(PINNED_TRACE_DIGESTS)
    # the pinned runs select, abstain and descend
    chosen = [c["chosen_point"] for k, v in cases.items() if "improper" in k for c in v]
    assert None in chosen and any(x is not None for x in chosen)
    assert any(c["path"] for k, v in cases.items() if "proper" in k and "improper" not in k for c in v)


def test_shuffling_an_array_draws_what_permutation_draws():
    # the learners deal by shuffling the examples' codes, which must draw
    # what partition's rng.permutation(n) draws: rng.permutation(c) is
    # c[rng.permutation(len(c))], and rng.permuted(rows, axis=1) shuffles
    # row after row as that many permutation calls, leaving equal states
    for seed in range(40):
        n = [1, 2, 7, 30, 337, 2359, 100_003][seed % 7]
        codes = np.random.default_rng(seed).integers(0, 16, size=n).astype(np.int32)
        a, b = make_rng(seed), make_rng(seed)
        assert np.array_equal(a.permutation(codes), codes[b.permutation(n)])
        assert a.bit_generator.state == b.bit_generator.state
        runs = [1, 2, 7, 64][seed % 4]
        rows = np.tile(codes, (runs, 1))
        a.permuted(rows, axis=1, out=rows)
        for row in rows:
            assert np.array_equal(row, codes[b.permutation(n)])
        assert a.bit_generator.state == b.bit_generator.state


class _Recorder:
    """A generator that logs every shuffle and every uniform it hands out.

    A shuffle of an array, or of each row of one, is logged as the
    ``permutation(n)`` draw it equals (see
    ``test_shuffling_an_array_draws_what_permutation_draws``).
    """

    def __init__(self, rng):
        self.rng, self.log = rng, []

    def permutation(self, x):
        n = x if isinstance(x, int) else len(x)
        self.log.append(("permutation", self.rng.permutation(n)))
        return self.log[-1][1] if isinstance(x, int) else x[self.log[-1][1]]

    def permuted(self, x, axis=None, out=None):
        assert axis == 1 and x.ndim == 2
        out = x.copy() if out is None else out
        for r, row in enumerate(x):
            out[r] = row[self.permutation(len(row))]
        return out

    def random(self, size=None):
        self.log.append(("random", self.rng.random(size)))
        return self.log[-1][1]


class _Replay:
    """Hands out recorded uniforms in order, one run's share at a time."""

    def __init__(self, uniforms):
        self.uniforms, self.used = uniforms, 0

    def random(self, size=None):
        k = 1 if size is None else size
        out = self.uniforms[self.used : self.used + k]
        self.used += k
        return out[0] if size is None else np.array(out)


def test_improper_runs_match_single_runs_on_their_draws():
    # run r of a batch is improper_learn on run r's partition, fed the
    # batch's median uniform for r and then r's gate and selection draws
    loose = LearnParams(alpha=0.3, beta=0.9, privacy=PrivacyParams(1.9, 0.5))
    audit = LearnParams(alpha=0.2, beta=0.1, privacy=PrivacyParams(1.0, 1e-5))
    _, realizable, unrealizable, _ = unrealizable_neighbour_scenario(1.0, 1e-5)
    tiny = Dataset(realizable.points[:30], realizable.labels[:30])  # the gate fails
    cases = [(example_class(), data, params) for data, params in (
        (tiny, audit), (realizable, audit), (unrealizable, audit), (unrealizable, loose))]
    for seed in (3, 5):
        cls = random_tree_class(50, max_children=3, concept_rate=0.5, seed=seed)
        ctx = prepare_context(cls)
        w = 0.6 ** ctx.tree.depth[ctx.point_map]
        target = cls.concepts[len(cls.concepts) // 2]
        data = sample_dataset(cls, target, Distribution(w / w.sum()), 500, make_rng(seed))
        cases += [(cls, data, loose)]
    chosen = set()
    for i, (cls, data, params) in enumerate(cases):
        ctx = prepare_context(cls)
        t = min(sample_budget(params, ctx.tree.height).t, len(data))
        for runs in (2, 7, 64):
            rec = _Recorder(make_rng([i, runs]))
            batch = improper_learn_runs(cls, data, params, rec, runs, context=ctx)
            assert len(batch) == runs
            kinds = [kind for kind, _ in rec.log]
            assert kinds[: runs + 1] == ["permutation"] * runs + ["random"]
            assert len(rec.log[runs][1]) == runs  # the medians' uniforms, at once
            later = [float(u) for _, u in rec.log[runs + 1 :] for u in np.atleast_1d(u)]
            replay = _Replay(later)
            for r, trace in enumerate(batch):
                ids = np.empty(len(data), dtype=np.int64)
                ids[rec.log[r][1]] = np.arange(len(data)) % t
                replay.uniforms[replay.used : replay.used] = [float(rec.log[runs][1][r])]
                one = improper_learn(cls, data, params, replay, context=ctx, subset_ids=ids)
                assert json.dumps(one.to_json()) == json.dumps(trace.to_json()), (i, runs, r)
                chosen.add(trace.chosen_point is None)
            assert replay.used == len(replay.uniforms)
    assert chosen == {True, False}  # runs that abstained and runs that selected


def test_improper_runs_of_one_is_improper_learn(example_cls):
    data = Dataset.from_pairs([(i % 7, example_cls.concepts[-2](i % 7)) for i in range(30)])
    params = LearnParams(alpha=0.2, beta=0.1, privacy=PrivacyParams(1.0, 1e-5))
    for seed in range(20):
        a, b = make_rng(seed), make_rng(seed)
        (batch,) = improper_learn_runs(example_cls, data, params, a, 1)
        assert batch.to_json() == improper_learn(example_cls, data, params, b).to_json()
        assert a.bit_generator.state == b.bit_generator.state


def test_improper_runs_validate_before_touching_data(example_cls):
    rng = make_rng(0)
    for runs in (0, -3):
        with pytest.raises(ValueError, match="runs must be at least 1"):
            improper_learn_runs(example_cls, None, PARAMS, rng, runs)
    bad = LearnParams(alpha=0.2, beta=0.2, privacy=PrivacyParams(2.0, 1e-5))
    with pytest.raises(ValueError, match="epsilon"):
        improper_learn_runs(example_cls, None, bad, rng, 4)
    assert rng.bit_generator.state == make_rng(0).bit_generator.state


def test_audit_batch_memory_is_bounded():
    # one AUDIT_BATCH batch of the unrealizable neighbour's learner runs
    # (2,359 examples, t = 337) peaks at about 20 MiB, and at 81 MiB for 1,024 runs
    mech, _, data_b, _ = unrealizable_neighbour_scenario(1.0, 1e-5)
    mech(data_b, make_rng(0), 2)  # builds the context's cached tables
    tracemalloc.start()
    try:
        outcomes = mech(data_b, make_rng(1), AUDIT_BATCH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(outcomes) == AUDIT_BATCH
    assert peak <= 64 * 2**20, peak / 2**20


def test_learner_scenarios_return_the_hypotheses_of_improper_learn_runs(example_cls):
    # the scenarios' mechanism builds no traces; it must still return each
    # run's hypothesis and leave the generator where the traced batch does
    params = LearnParams(alpha=0.2, beta=0.1, privacy=PrivacyParams(1.0, 1e-5))
    ctx = prepare_context(example_cls)
    scenarios = (improper_learner_scenario(1.0, 1e-5, n=30), unrealizable_neighbour_scenario(1.0, 1e-5))
    seen = set()
    for i, (mech, data_a, data_b, _) in enumerate(scenarios):
        for data in (data_a, data_b):
            for k in (1, 7, 64, 256):
                a, b = make_rng([i, k]), make_rng([i, k])
                got = mech(data, a, k)
                traces = improper_learn_runs(example_cls, data, params, b, k, context=ctx)
                assert got == [trace.hypothesis.ones for trace in traces], (i, k)
                assert a.bit_generator.state == b.bit_generator.state
                seen.update(trace.chosen_point is None for trace in traces)
    assert seen == {True, False}  # runs that abstained and runs that selected
