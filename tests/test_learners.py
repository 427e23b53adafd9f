import hashlib
import json
from collections import Counter
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from vc1learn import (
    ConceptClass,
    Dataset,
    Distribution,
    GeneratorSpec,
    LearnParams,
    NotRealizableError,
    PrivacyParams,
    canonicalize,
    deterministic_oracle,
    dp_audit,
    error_on_distribution,
    example_class,
    f_represent,
    generate_class,
    improper_learn,
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


def _batch_traces(cls, data, params, rng, runs, context=None):
    """The traces of one batch of ``runs`` improper runs, in run order."""
    ctx = learners._checked_context(cls, params, context)
    batch = learners._improper_runs(ctx, learners._examples(ctx, data), params, rng, runs)
    return [learners._trace(ctx, tuple(a[r : r + 1] for a in batch)) for r in range(runs)]


def _as_examples(codes):
    """Examples whose presence codes are ``codes``: a one-row table, read in order."""
    return codes[None, :], np.zeros(len(codes), dtype=np.uint8), np.arange(len(codes))


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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LearnParams(0.0, 0.2, PARAMS.privacy), "alpha must be in (0, 1)"),
        (lambda: LearnParams(1.0, 0.2, PARAMS.privacy), "alpha must be in (0, 1)"),
        (lambda: LearnParams(math.nan, 0.2, PARAMS.privacy), "alpha must be in (0, 1)"),
        (lambda: LearnParams(0.2, 0.0, PARAMS.privacy), "beta must be in (0, 1)"),
        (lambda: LearnParams(0.2, 1.5, PARAMS.privacy), "beta must be in (0, 1)"),
        (lambda: LearnParams("0.3", 0.1, PARAMS.privacy), "'alpha' must be a number, not '0.3'"),
        (lambda: PrivacyParams(True, 1e-5), "'epsilon' must be a number, not True"),
        (
            lambda: sample_budget(PARAMS, -1),
            "'tree_depth_bound' must be an integer of at least 0, not -1",
        ),
        # ran silently, as did True once depth 1 was cached
        (lambda: sample_budget(PARAMS, 2.5), "'tree_depth_bound' must be an integer"),
        (lambda: sample_budget(PARAMS, True), "'tree_depth_bound' must be an integer"),
        (
            lambda: prepare_context(example_class(), -1),
            "'f_index' must be an integer in [0, 7], not -1",
        ),
        (
            lambda: prepare_context(example_class(), 8),
            "'f_index' must be an integer in [0, 7], not 8",
        ),
        # numpy's IndexError or shape mismatch before
        (lambda: prepare_context(example_class(), 1.5), "'f_index' must be an integer in [0, 7]"),
        (lambda: prepare_context(example_class(), True), "'f_index' must be an integer in [0, 7]"),
        (
            lambda: total_privacy(PARAMS, sample_budget(PARAMS, 4), loop_iterations=-1),
            "'loop_iterations' must be an integer of at least 0, not -1",
        ),
        # reported epsilon 5.0 for one and a half loop iterations
        (
            lambda: total_privacy(PARAMS, sample_budget(PARAMS, 4), loop_iterations=1.5),
            "'loop_iterations' must be an integer of at least 0, not 1.5",
        ),
        # ran at median depth 1
        (
            lambda: improper_learn(
                example_class(), Dataset.from_pairs([(0, 1)] * 4), PARAMS, make_rng(0),
                force_median=1.5,
            ),
            "'force_median' must be an integer of at least 0, not 1.5",
        ),
        # numpy's IndexError before
        (
            lambda: proper_learn(
                example_class(), Dataset.from_pairs([(0, 1)] * 4), PARAMS, make_rng(0),
                force_chosen_point=1.5,
            ),
            "'point' must be an integer in [0, 6], not 1.5",
        ),
    ],
    ids=["alpha-0", "alpha-1", "alpha-nan", "beta-0", "beta-high", "alpha-str", "epsilon-bool",
         "negative-depth", "depth-float", "depth-bool", "f-index-negative", "f-index-past",
         "f-index-float", "f-index-bool", "loop-iterations-negative", "loop-iterations-float",
         "force-median-float", "force-chosen-point-float"],
)
def test_learner_inputs_are_refused(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def partition(dataset: Dataset, t: int, rng: np.random.Generator) -> np.ndarray:
    """Shuffle and deal the dataset round-robin into ``t`` subsets, kept as the reference.

    Returns the int32 subset id of every example: with ``perm`` the
    shuffle, the ``j``-th example dealt, ``perm[j]``, goes to subset
    ``j % t``, so subset ``i`` holds the examples ``perm[i::t]``. Below
    the revealed deal's switch the learners deal so too, by one
    ``rng.permuted`` of the codes; past it they draw the same law in
    count space.
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


def test_budgets_without_finite_sizes_are_refused_before_any_draw(example_cls):
    # an eps or alpha so small that a size overflows, and an eps whose gate
    # divisor beta * eps * delta underflows to 0, raise ValueError, not
    # OverflowError or ZeroDivisionError
    data = Dataset.from_pairs([(p, 0) for p in range(7)] * 10)
    cases = (
        (LearnParams(0.2, 0.2, PrivacyParams(1e-200, 1e-5)), "sample sizes overflow"),
        (LearnParams(1e-160, 0.2, PrivacyParams(1.0, 1e-5)), "sample sizes overflow"),
        (LearnParams(0.2, 0.2, PrivacyParams(1e-320, 1e-5)), "underflows"),
    )
    for params, message in cases:
        for learn in (improper_learn, proper_learn):
            rng = make_rng(0)
            with pytest.raises(ValueError, match=message):
                learn(example_cls, data, params, rng)
            assert rng.bit_generator.state == make_rng(0).bit_generator.state
    with pytest.raises(ValueError, match="sample sizes overflow"):
        sample_budget(cases[0][0], 3)


def test_empty_sample_is_refused_on_every_path(example_cls):
    # None or an empty stage-1 sample is refused before any draw, on the
    # dealt, subset_ids, split and stage2 paths; an empty stage2 is taken
    empty = Dataset.from_pairs([])
    data = Dataset.from_pairs([(X1, 1), (X2, 0), (X5, 1), (X3, 0)])
    no_ids = np.array([], dtype=np.int64)
    calls = [
        (improper_learn, None, {}),
        (improper_learn, empty, {}),
        (improper_learn, empty, {"subset_ids": no_ids}),
        (proper_learn, None, {}),
        (proper_learn, empty, {}),
        (proper_learn, empty, {"force_chosen_point": X1}),
        (proper_learn, None, {"stage2": data}),
        (proper_learn, empty, {"stage2": data}),
        (proper_learn, empty, {"stage2": data, "subset_ids": no_ids}),
    ]
    for learn, dataset, extra in calls:
        rng = make_rng(0)
        with pytest.raises(ValueError, match="dataset must be non-empty"):
            learn(example_cls, dataset, PARAMS, rng, **extra)
        assert rng.bit_generator.state == make_rng(0).bit_generator.state, (learn, extra)
    trace = proper_learn(example_cls, data, PARAMS, make_rng(0), stage2=empty)
    assert trace.hypothesis.proper_index is not None


def test_forced_stage2_run_checks_the_dataset_before_any_draw(example_cls):
    # with stage2 and a forced point the stage-1 sample is never read, yet
    # it is refused as on every other path
    stage2 = Dataset.from_pairs([(X1, 1)])
    cases = (
        (None, "dataset must be non-empty"),
        (Dataset.from_pairs([]), "dataset must be non-empty"),
        (Dataset.from_pairs([(X1, 1), (7, 0)]), "dataset point outside class domain"),
    )
    for dataset, message in cases:
        rng = make_rng(0)
        with pytest.raises(ValueError, match=message):
            proper_learn(example_cls, dataset, PARAMS, rng, stage2=stage2, force_chosen_point=X1)
        assert rng.bit_generator.state == make_rng(0).bit_generator.state


def test_chain_path_never_unpacks_the_dense_matrix():
    # the chain workload's steps read thresholds(4096) through its packed
    # rows; a fresh class, not the memoised one other tests share, keeps no
    # dense 4097 x 4096 matrix after them
    cls = generate_class.__wrapped__(GeneratorSpec("thresholds", n=4096))
    ctx = prepare_context(cls)
    target = cls.concepts[1234]
    dist = Distribution.uniform(cls.domain_size)
    data = sample_dataset(cls, target, dist, 200_000, make_rng(3))
    assert np.array_equal(data.labels, data.points >= 1234)
    trace = improper_learn(cls, data, PARAMS, make_rng(4), context=ctx)
    assert error_on_distribution(trace.hypothesis, target, dist) <= PARAMS.alpha
    assert ctx.abstained.proper_index == 0  # the root lifted back: concept ge0
    assert "matrix" not in vars(cls)


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
            _, inconsistent = forced_nodes(ctx.tree, pres)
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
        lambda rng: _batch_traces(example_cls, bad, PARAMS, rng, 4),
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
    for bad in (-1, -7, 7, 99, 1.5, True):
        rng = make_rng(0)
        message = f"'point' must be an integer in [0, 6], not {bad}"
        with pytest.raises(ValueError, match=re.escape(message)):
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
        deepest = learners._subset_summaries(ctx, codes, ids, t)
        depths = np.where(deepest >= 0, ctx.tree.depth[deepest], 0)
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


def test_lone_code_summaries_match_forced_nodes_across_corpus(corpus):
    # with one example per subset each example's summary is read off
    # tree.lone_deepest, not found by forced_nodes: for every presence code
    # it must be forced_nodes' summary of that code alone, both dealt as one
    # shuffle deals it and through subset_ids, the table's two readers. The
    # table rests on two facts of every tree: a childless node is proper,
    # and an improper node has two or more children.
    improper = 0
    for i, cls in enumerate(corpus):
        for f_index in sorted({0, len(cls.concepts) - 1}):
            ctx = prepare_context(cls, f_index)
            tree = ctx.tree
            nodes = np.flatnonzero(tree.tin >= 0)
            kids = np.bincount(tree.parent[nodes] + 1, minlength=len(tree.tin) + 1)[nodes + 1]
            assert tree.proper_mask[nodes[kids == 0]].all()
            assert (kids[~tree.proper_mask[nodes]] >= 2).all()
            improper += int((~tree.proper_mask[nodes]).sum())
            k = len(tree.tour)
            codes = np.arange(2 * k + 2).astype(ctx.tour_code.dtype)
            alone = np.zeros((2 * k + 2, len(codes)), dtype=bool)
            alone[codes, np.arange(len(codes))] = True
            alone = forced_nodes(tree, alone)[0]
            a, b = make_rng([i, f_index]), make_rng([i, f_index])
            got = learners._dealt_summaries(ctx, _as_examples(codes), len(codes), a, 1)
            order = codes[b.permutation(len(codes))]
            assert a.bit_generator.state == b.bit_generator.state
            assert np.array_equal(got, alone[order]), (i, f_index)
            got = learners._subset_summaries(ctx, codes, np.arange(len(codes)), len(codes))
            assert np.array_equal(got, alone), (i, f_index)
    assert improper > 100, improper


def dense_subset_summaries(ctx, codes, ids, t):
    """``forced_nodes`` over a presence column for every subset, empty and
    one-example ones too: the summaries as ``_subset_summaries`` once took
    them, with the inconsistency flags."""
    pres = np.zeros((2 * len(ctx.tree.tour) + 2, t), dtype=bool)
    pres[codes, ids] = True
    return forced_nodes(ctx.tree, pres)


def test_subset_summaries_match_the_dense_reference(corpus):
    # one-example subsets by lookup and the rest by forced_nodes over their
    # own columns, against forced_nodes over every subset's column: subset
    # ids of any integer dtype with gaps, all-single and all-multi layouts,
    # codes of a concept's examples mixed with any codes, among them
    # 1-labels off the tree
    trees = [
        random_tree_class(n, max_children=c, concept_rate=r, seed=n)
        for n, c, r in ((128, 2, 0.3), (256, 3, 0.5), (512, 4, 0.1))
    ]
    hits = Counter()
    for i, cls in enumerate(corpus + trees):
        rng = make_rng([32, i])
        ctx = prepare_context(cls, int(rng.integers(len(cls.concepts))))
        k = len(ctx.tree.tour)
        for layout in ("gaps", "single", "multi"):
            n = int(rng.integers(2, 80))
            pts = rng.integers(0, cls.domain_size, size=n)
            labs = cls.row(int(rng.integers(len(cls.concepts))))[pts].astype(np.uint8)
            codes = ctx.tour_code[labs, pts]
            noise = rng.random(n)
            codes[noise < 0.2] = rng.integers(0, 2 * k + 2, size=n)[noise < 0.2]
            codes[noise > 0.95] = 2 * k + 1
            if layout == "gaps":
                ids = rng.integers(0, int(rng.integers(1, 2 * n + 1)), size=n)
            elif layout == "single":
                ids = rng.choice(n + int(rng.integers(0, 5)), size=n, replace=False)
            else:
                ids = rng.permutation(np.arange(n) // 2)
                ids[ids == ids.max()] = 0  # no subset is left with one example
            ids = ids.astype((np.uint16, np.int32, np.uint64, np.int64)[int(rng.integers(4))])
            t = int(ids.max()) + 1 + int(rng.integers(0, 3))
            got = learners._subset_summaries(ctx, codes, ids, t)
            want, inconsistent = dense_subset_summaries(ctx, codes, ids, t)
            assert got.shape == (t,) and np.array_equal(got, want), (i, layout)
            count = np.bincount(ids, minlength=t)
            assert layout != "multi" or (count != 1).all()
            lone = count[ids] == 1
            hits["empty"] += int((count == 0).sum())
            hits["lone"] += int(lone.sum())
            hits["lone 1 off the tree"] += int((codes[lone] == 2 * k + 1).sum())
            hits["multi"] += int((count > 1).sum())
            hits["multi inconsistent"] += int((inconsistent & (count > 1)).sum())
            hits["multi forcing"] += int(((want >= 0) & (count > 1)).sum())
    assert min(hits.values()) >= 100, hits


def test_subset_summaries_call_forced_nodes_only_for_a_subset_of_two(corpus, monkeypatch):
    # subsets of at most one example, or none at all, are read off
    # tree.lone_deepest alone; one subset of two examples brings forced_nodes
    # in, over that subset's column only
    def refuse(tree, pres):
        raise AssertionError("forced_nodes called with no subset of two")

    def counted(tree, pres):
        columns.append(pres.shape[1])
        return forced_nodes(tree, pres)

    columns = []
    for i, cls in enumerate(corpus):
        rng = make_rng([34, i])
        ctx = prepare_context(cls, int(rng.integers(len(cls.concepts))))
        n = int(rng.integers(2, 40))
        codes = rng.integers(0, 2 * len(ctx.tree.tour) + 2, size=n).astype(ctx.tour_code.dtype)
        t = n + int(rng.integers(0, 5))
        single = rng.choice(t, size=n, replace=False)
        pair = single.copy()
        pair[-1] = pair[0]
        monkeypatch.setattr(learners, "forced_nodes", refuse)
        for c, ids in ((codes, single), (codes[:0], single[:0])):
            got = learners._subset_summaries(ctx, c, ids, t)
            assert np.array_equal(got, dense_subset_summaries(ctx, c, ids, t)[0]), i
        monkeypatch.setattr(learners, "forced_nodes", counted)
        got = learners._subset_summaries(ctx, codes, pair, t)
        assert np.array_equal(got, dense_subset_summaries(ctx, codes, pair, t)[0]), i
        assert columns == [1], i
        columns.clear()


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
    # a realized selection point skips the descent entirely; the forced
    # point leaves the stage-1 sample unread, but it must be a sample
    data = Dataset.from_pairs([(X1, 1)])
    trace = proper_learn(
        modified_cls,
        data,
        PARAMS,
        make_rng(0),
        force_chosen_point=X7,
        stage2=data,
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
            stage2,
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


def test_proper_lifts_its_hypothesis_once():
    # a run that does not descend returns the improper stage's own
    # hypothesis, the abstained root's included; a descent lifts its leaf
    cls = random_tree_class(40, max_children=3, concept_rate=0.5, seed=7)
    ctx = prepare_context(cls)
    w = 0.6 ** ctx.tree.depth[ctx.point_map]
    dist = Distribution(w / w.sum())
    loose = LearnParams(alpha=0.3, beta=0.9, privacy=PrivacyParams(1.9, 0.5))
    kinds = Counter()
    for seed in range(40):
        target = cls.concepts[seed % len(cls.concepts)]
        data = sample_dataset(cls, target, dist, 300, make_rng([seed, 9]))
        for greedy in (False, True):
            trace = proper_learn(cls, data, loose, make_rng(seed), context=ctx, greedy=greedy)
            if trace.subtree is None:
                assert trace.leaf == trace.chosen_point
                assert trace.hypothesis is trace.stage1.hypothesis
                kinds["abstained" if trace.chosen_point is None else "realized"] += 1
            else:
                assert trace.hypothesis == learners._back_transform(ctx, trace.leaf)
                kinds["descent"] += 1
    assert len(kinds) == 3 and min(kinds.values()) >= 5, kinds


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
            stage2,
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
    data = Dataset.from_pairs([(X6, 0)] * 8)
    trace = proper_learn(
        modified_cls,
        data,
        params,
        make_rng(4),
        force_chosen_point=X5,
        stage2=data,
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
        modified_cls, stage2, params, make_rng(0), force_chosen_point=X5, stage2=stage2
    )
    assert json.dumps(trace.to_json()) == (
        '{"chosen_point": 4, "subtree": {"root": 4, "nodes": [4, 5, 6], '
        '"leaves": [5, 6]}, "path": [[4, "uniform", 6]], "leaf": 6, '
        '"hypothesis": {"ones": [0, 4, 6], "proper_index": 5}, "stage1": null}'
    )


# sha256 of the sorted-key JSON of each case's traces over seeds 0-2; a
# change to any fixed-seed trace changes one of these. The runs that deal
# fewer subsets than examples below the revealed deal's switch
# (improper400, proper400, greedy, force_median, proper_greedy) were
# re-pinned when every such deal became one shuffle; proper60 dates from
# when the split stopped copying the sample; the thresholds4096 pins, whose
# samples span several chunks, were re-pinned when such deals went by
# revealed codes; the others date from before the improper learner ran R
# runs per call
PINNED_TRACE_DIGESTS = {
    "example/improper400": "82003fa4af4decc7dc0f2bd727efca3be42aed189381acafea5cf65dd81ae72f",
    "example/proper400": "dae6b28c86ef4f28496e0ee3c8d67d541c9dc8f3ad4a6622c21a6c9c73624a74",
    "example/improper60": "4d8340359ba70277147496f652cbfc1000c7a4c18f1bafbbafccbbecaecdd4f1",
    "example/proper60": "c3b57208b113ab32bd47ba18e7a6542a8d6c0bafeb6c32488c859f1c27b40237",
    "example/subset_ids": "bf9a2f08b71373b4acbf0ddd8be96686a6468193d251c1ef02327632d81d9fc3",
    "example/greedy": "2683385d8c516abd07410b3ebd9f27f0baa00ed78be353e9d56df5bda06ec810",
    "example/force_median": "1349a2f41669170bedd6815a0ee02fe38b6461ab2937e6aec6f74b9cd8be51d6",
    "example/proper_greedy": "de757a1c7127880187b40387f7785a47c4237ef138e313a26633a78617c10d5e",
    "modified/improper400": "7dcbbaec78d23bbaba46496a543b6c6c0228a33a15efe2c09ea889d5f887f4f4",
    "modified/proper400": "67e6c08dad12f2d5b0eb7449d148fff46cdabcd0692b5309ad456129ebe38ed8",
    "modified/improper60": "c56875679b2ad954b9fc749646ad8b66f531dafeba2e42b58faa2a7ed70dc9ef",
    "modified/proper60": "67119541dc212a76261f19e8e6a06d8ba45e0344fc2206a142ba57357752ac41",
    "modified/subset_ids": "bb8815c3b3ee97ad684f7928a8365505b013bd2349c7baee39c3b13e8311537e",
    "modified/greedy": "2763fa399a28686784407cb45094e67a24a544dd172a9ca6bcd2fda6bcb5927c",
    "modified/force_median": "84f9f16ad05b4da42dbb7fd15e1cfc14233ae4c5a73c84dcdbf64e16176a0820",
    "modified/proper_greedy": "8a2eb62b1ad5a43696c60c3b0d69878fda9b3f58558f2357224035f3980073e7",
    "modified/descent": "29cf41150ce9c001659934ae589cd7e1010753eb2713a5e6eb7bd4c4fd1f5d28",
    "thresholds64/improper400": "f1c39dadfd6daa6e4d41354902841db22354413a6291c05a276e59d34eb8d7e5",
    "thresholds64/proper400": "ab374386fc5d266148772dc028bf31e31e2520360c01862ef158b0728532f8b8",
    "thresholds64/improper60": "039e1e3e3c05ca90f7a84adbdf8e0283db470e1a877d250d4e9746b2fce6bd48",
    "thresholds64/proper60": "8ba6bc26ccd2e78327a57dc3d571a3b6a4f982f568154be8480eaee0980bc387",
    "thresholds64/subset_ids": "0006709a22a533d4d5a88dca1f9f80124ffa990542ab923c2e3a995c6ca049f4",
    "thresholds64/greedy": "0289714ec06146ee26fd7ce0924cb0faad7a851e9339405d2d1c85cd4a02e206",
    "thresholds64/force_median": "1a679338fd6419140a9419fae1e591ffb74074b43df2307a79616c2464c0064f",
    "thresholds64/proper_greedy": "2bfb64dde9e79b9051cba1c177ce9c55b824c84cf2016ced2d79f47c7d916819",
    "tree40/improper400": "cca38fd60395e2a3bef21107d39de8a109d2fb932163ac18873b8d0886dab17e",
    "tree40/proper400": "3f6653e66460662366336082513d542b3aea6f6fefb0da2f651f24f688386863",
    "tree40/improper60": "fc47c3756c458079467e1b7cf0682012303524420359cff94d71ddd11f48f080",
    "tree40/proper60": "81ecdfd3a5a17cc8db0afcd8c2f0e0b0d07a9e8f176464ab912c77aad978c4cd",
    "tree40/subset_ids": "bfc3b1eb3fb8503e6d213195d0e7c4d16343c7abe3f0d75b6dcd0c300e87b7cb",
    "tree40/greedy": "14ae13c57e8226cd6f24dd1421c647d17cfe8a0037eecdf49ac4d3289a053248",
    "tree40/force_median": "a0e58d37651d0e6dea0b9f1cb1636863323499611889b6083c7b473a23714df4",
    "tree40/proper_greedy": "d579eb0764fa8aede7f5380bfc52352f8d1c959e146c4657ec1e99d0f191bc4b",
    "tree40/descent": "01a56569a2950eee57034b7a661876ab6fc806a3fd040494c44bbdc0135e26cc",
    "tree90/improper400": "bbf1accc2b8df26d4a43a86c628815d9db1ddea502a9336ea9ac99e21a6bc16a",
    "tree90/proper400": "4a24a8c132ad1d51114b35a96c6faf88d15265721ca80b491bb9f4bcbc3fa58b",
    "tree90/improper60": "ce7011f6c400f43dc46eb11aba9e9474dbd861ba30ad54a303e4102b9b354ce0",
    "tree90/proper60": "2d6c4a95c2eec613345b6428a050e8f045cf4c4b9f3f97eecb7d03f7a2fd135d",
    "tree90/subset_ids": "6d711b2cbdde96b0895d26275ef9a78110da81df8b6cb84abe99b29e3f875165",
    "tree90/greedy": "4f88c2df817e978335cb3774f30253a4ddf16fab80af3bfbbd649cf49bd11fc1",
    "tree90/force_median": "10191183a0b6a2bb67e2f026d253ccb275f8f3edaf478158233e24ae5e6ac12f",
    "tree90/proper_greedy": "2c04104371c6c930d87380c75a398d4030e926a5d31f401ffb45896637717c2d",
    "tree90/descent": "2cfc6357ac85bb72bd4e9537cf9ed8a297ef58287fbb2d3631d569bc604f0260",
    "thresholds4096/improper150k": "e896301bdc84cff3cc28fa2434545e795553227ec1d760e8f0df3c13a7ceb831",
    "thresholds4096/proper150k": "13cbf475881929ffbcd1e610bb517f505c9558d8075da67195df3a410db9bd05",
}


def _pinned_trace_cases():
    """Fixed-seed runs of both learners: private, greedy, forced median,
    passed subsets and forced descents, on five classes, and multi-chunk
    deals on thresholds(4096)."""
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
                    cls, data, loose, make_rng(seed), stage2=data,
                    force_chosen_point=int(unreal[seed % len(unreal)]), **run))
    # deals of three SAMPLE_CHUNKs, into subsets whose summaries differ
    cls = thresholds_class(4096)
    ctx = prepare_context(cls)
    target = cls.concepts[len(cls.concepts) // 2]
    for seed in range(3):
        data = sample_dataset(cls, target, Distribution.uniform(4096), 150_000, make_rng([seed, 150]))
        for kind, learn in (("improper150k", improper_learn), ("proper150k", proper_learn)):
            trace = learn(cls, data, audit, make_rng(seed), context=ctx)
            cases.setdefault(f"thresholds4096/{kind}", []).append(trace.to_json())
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
    # with one example per subset the learners deal by shuffling, which
    # must draw what partition's rng.permutation(n) draws:
    # rng.permutation(c) is c[rng.permutation(len(c))], and
    # rng.permuted(rows, axis=1) shuffles row after row as that many
    # permutation calls, leaving equal states; the draws do not depend on
    # the dtype, so the int64 summaries shuffle as the codes would
    for seed in range(40):
        n = [1, 2, 7, 30, 337, 2359, 100_003][seed % 7]
        dtype = [np.uint8, np.uint16, np.int32][seed % 3]
        codes = np.random.default_rng(seed).integers(0, 16, size=n).astype(dtype)
        a, b = make_rng(seed), make_rng(seed)
        assert np.array_equal(a.permutation(codes), codes[b.permutation(n)])
        assert a.bit_generator.state == b.bit_generator.state
        runs = [1, 2, 7, 64][seed % 4]
        rows = np.tile(codes, (runs, 1))
        order = np.tile(np.arange(n), (runs, 1))
        assert order.dtype == np.int64
        c = make_rng(seed)
        c.permutation(n)
        a.permuted(rows, axis=1, out=rows)
        c.permuted(order, axis=1, out=order)
        for row, index in zip(rows, order):
            perm = b.permutation(n)
            assert np.array_equal(row, codes[perm])
            assert np.array_equal(index, perm)
        assert a.bit_generator.state == b.bit_generator.state == c.bit_generator.state
        # a one-row view shuffles in place, as permutation(n) draws
        dealt = codes.copy()
        a.permuted(dealt[None], axis=1, out=dealt[None])
        assert np.array_equal(dealt, codes[b.permutation(n)])
        assert a.bit_generator.state == b.bit_generator.state


def test_improper_runs_leave_the_callers_examples_unchanged():
    cls = thresholds_class(64)
    ctx = prepare_context(cls)
    data = sample_dataset(cls, cls.concepts[20], Distribution.uniform(64), 5000, make_rng(1))
    codes = learners._codes(learners._examples(ctx, data))
    assert codes.dtype == np.uint8
    given = codes.copy()
    codes.flags.writeable = False  # a write into the caller's codes raises
    t = sample_budget(PARAMS, ctx.tree.height).t
    assert t < len(codes)
    for runs in (1, 3):
        batch = learners._improper_runs(ctx, _as_examples(codes), PARAMS, make_rng(2), runs)
        assert np.array_equal(codes, given)
        # so a second batch on the same codes and seed gives the same runs
        again = learners._improper_runs(ctx, _as_examples(codes), PARAMS, make_rng(2), runs)
        for x, y in zip(batch, again):
            assert np.array_equal(x, y)


def test_improper_learn_traces_agree_across_point_dtypes():
    cls = thresholds_class(300)
    ctx = prepare_context(cls)
    data = sample_dataset(cls, cls.concepts[120], Distribution.uniform(300), 40_000, make_rng(4))
    assert data.points.dtype == np.uint16
    wide = Dataset(data.points.astype(np.int64), data.labels)
    assert wide.points.dtype == np.int64 and wide == data and hash(wide) == hash(data)
    for seed in range(3):
        a = improper_learn(cls, data, PARAMS, make_rng(seed), context=ctx)
        b = improper_learn(cls, wide, PARAMS, make_rng(seed), context=ctx)
        assert a.to_json() == b.to_json()


def test_improper_learn_memory_per_example():
    # one budget-sized call deals by revealed codes: it holds one chunk's
    # pair indices and the pair and code counts, but no code per example,
    # about 0.6 bytes per example on thresholds(1024); the per-example deal
    # took about 3.5, against 5.1 with a gathered uint16 code per example
    # and 10.7 with int32 codes dealt from a copy
    cls = thresholds_class(1024)
    ctx = prepare_context(cls)
    n = 10**6
    data = sample_dataset(cls, cls.concepts[300], Distribution.uniform(1024), n, make_rng(5))
    improper_learn(cls, data, PARAMS, make_rng(0), context=ctx)  # fills the context's caches
    tracemalloc.start()
    try:
        improper_learn(cls, data, PARAMS, make_rng(1), context=ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * n, peak / n


class _Recorder:
    """A generator that logs every draw of a deal or a split and every uniform it hands out.

    A shuffle of each row of an array, as a deal below the revealed deal's
    switch draws, is logged as the ``permutation(n)`` draws it equals (see
    ``test_shuffling_an_array_draws_what_permutation_draws``), a revealed
    code as its ``reveal``, and a split as its ``choice``.
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

    def choice(self, *args, **kwargs):
        self.log.append(("choice", self.rng.choice(*args, **kwargs)))
        return self.log[-1][1]

    def random(self, size=None):
        self.log.append(("random", self.rng.random(size)))
        return self.log[-1][1]

    def multivariate_hypergeometric(self, *args, **kwargs):
        self.log.append(("reveal", self.rng.multivariate_hypergeometric(*args, **kwargs)))
        return self.log[-1][1]


def _deals(log, n, t):
    """The subset ids of each deal at the head of a :class:`_Recorder` log, and the rest.

    A deal is one ``permutation`` of the ``n`` examples, dealt round-robin
    into ``t`` subsets.
    """
    deals = []
    for i, (kind, value) in enumerate(log):
        if kind != "permutation":
            return deals, log[i:]
        assert len(value) == n
        ids = np.empty(n, dtype=np.int64)
        ids[value] = np.arange(n) % t
        deals.append(ids)
    return deals, []


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
    # one example per subset: on the random trees, and with an eighth point,
    # 7, in no concept and so off the tree, labeled 1: its code is 2k + 1,
    # and no concept is consistent with it
    cases += [(cls, Dataset(data.points[:40], data.labels[:40]), audit)
              for cls, data, _ in cases[-2:]]
    off = ConceptClass.from_ones(8, [c.ones for c in example_class().concepts])
    pairs = [(7, 1)] + [(i % 7, example_class().concepts[-2](i % 7)) for i in range(29)]
    cases += [(off, Dataset.from_pairs(pairs), audit)]
    chosen, one_example = set(), 0
    for i, (cls, data, params) in enumerate(cases):
        ctx = prepare_context(cls)
        t = min(sample_budget(params, ctx.tree.height).t, len(data))
        one_example += t == len(data)  # every subset holds one example
        for runs in (2, 7, 64):
            rec = _Recorder(make_rng([i, runs]))
            batch = _batch_traces(cls, data, params, rec, runs, context=ctx)
            assert len(batch) == runs
            kinds = [kind for kind, _ in rec.log]
            assert kinds[: runs + 1] == ["permutation"] * runs + ["random"]
            deals, (medians, *rest) = _deals(rec.log, len(data), t)
            assert len(medians[1]) == runs  # the medians' uniforms, at once
            later = [float(u) for _, u in rest for u in np.atleast_1d(u)]
            replay = _Replay(later)
            for r, trace in enumerate(batch):
                ids = deals[r]
                replay.uniforms[replay.used : replay.used] = [float(medians[1][r])]
                one = improper_learn(cls, data, params, replay, context=ctx, subset_ids=ids)
                assert json.dumps(one.to_json()) == json.dumps(trace.to_json()), (i, runs, r)
                chosen.add(trace.chosen_point is None)
            assert replay.used == len(replay.uniforms)
    assert chosen == {True, False}  # runs that abstained and runs that selected
    assert one_example == 4


def _round_robin_sizes(n, t):
    return np.bincount(np.arange(n) % t, minlength=t)


def _chi2_below_bound(freq, runs):
    """Whether ``freq``'s chi-square against equal cells is below its 1e-4 upper quantile."""
    expected = runs / len(freq)
    return ((np.asarray(freq) - expected) ** 2).sum() / expected < stats.chi2.isf(1e-4, len(freq) - 1)


def test_dealt_summaries_are_those_of_the_drawn_partition():
    # each run's summaries are _subset_summaries of the ids its draws give,
    # with n / t from 85 down to 2
    classes = (
        example_class(),
        thresholds_class(64),
        random_tree_class(40, max_children=3, concept_rate=0.5, seed=7),
    )
    for i, cls in enumerate(classes):
        ctx = prepare_context(cls)
        target = cls.concepts[len(cls.concepts) // 2]
        data = sample_dataset(cls, target, Distribution.uniform(cls.domain_size), 600, make_rng(i))
        labels = data.labels.copy()
        labels[::50] ^= 1  # some subsets no concept is consistent with
        codes = learners._codes(learners._examples(ctx, Dataset(data.points, labels)))
        forced = 0
        for t in (7, 46, 300):
            for runs in (1, 3):
                rec = _Recorder(make_rng([i, t, runs]))
                got = learners._dealt_summaries(ctx, _as_examples(codes), t, rec, runs)
                got = got.reshape(runs, t)
                deals, rest = _deals(rec.log, len(codes), t)
                assert len(deals) == runs and rest == []
                for r, ids in enumerate(deals):
                    assert np.array_equal(np.bincount(ids, minlength=t), _round_robin_sizes(600, t))
                    assert np.array_equal(got[r], learners._subset_summaries(ctx, codes, ids, t))
                forced += int((got >= 0).sum())
        assert forced > 0, i


def test_deal_reads_each_examples_code_across_chunks(monkeypatch):
    # the deal reads each example's code from the row table itself: on a
    # class whose point map merges points, so that the table is wider than
    # the tree, and over three chunks, each run's summaries are those of the
    # two-index gather's codes under its draws; these sizes would go by
    # revealed codes, so the switch is held on the shuffle, and the revealed
    # deal's histogram, read a chunk at a time, counts those same codes
    monkeypatch.setattr(learners, "_lazy", lambda n, t, k: False)
    raw = _raw_variant(random_tree_class(40, max_children=3, concept_rate=0.5, seed=7), make_rng(2))
    ctx = prepare_context(raw)
    assert ctx.tour_code.shape[1] > len(ctx.tree.tour)
    n = 150_000
    target = raw.concepts[len(raw.concepts) // 2]
    data = sample_dataset(raw, target, Distribution.uniform(raw.domain_size), n, make_rng(3))
    labels = data.labels.copy()
    labels[::9973] ^= 1  # some subsets no concept is consistent with
    examples = learners._examples(ctx, Dataset(data.points, labels))
    codes = ctx.tour_code[labels, data.points]
    assert np.array_equal(learners._codes(examples), codes)
    rows = 2 * len(ctx.tree.tour) + 2
    assert np.array_equal(learners._histogram(examples, rows), np.bincount(codes, minlength=rows))
    for t in (46, 5000):
        for runs in (1, 2):
            rec = _Recorder(make_rng([t, runs]))
            got = learners._dealt_summaries(ctx, examples, t, rec, runs).reshape(runs, t)
            deals, rest = _deals(rec.log, n, t)
            assert len(deals) == runs and rest == []
            for r, ids in enumerate(deals):
                assert np.array_equal(got[r], learners._subset_summaries(ctx, codes, ids, t))
            assert len(np.unique(got)) > 1, (t, runs)  # subsets disagree


@pytest.mark.parametrize(
    "width, key", [(128, np.uint8), (129, np.uint16), (32768, np.uint16), (32769, np.uint32)]
)
def test_flat_index_is_the_narrowest_key_that_holds_the_table(width, key):
    # at the edges of the key's dtype, on a four-concept chain whose top
    # point is on the tree, so that a key one dtype too narrow wraps a
    # 1-label near the top onto another code; points in each dtype that
    # a sample may hand over, over lengths on both sides of SAMPLE_CHUNK
    cls = ConceptClass.from_ones(width, [set(), {0}, {0, 1}, {0, 1, width - 1}])
    ctx = prepare_context(cls)
    rows = 2 * len(ctx.tree.tour) + 2
    rng = make_rng(width)
    chunk = learners.SAMPLE_CHUNK
    for dtype in (np.uint8, np.uint16, np.uint32, np.int64):
        top = min(width, np.iinfo(dtype).max + 1)
        for n in (chunk - 1, chunk + 1, 2 * chunk + 3):
            points = rng.integers(max(top - 300, 0), top, n).astype(dtype)
            labels = rng.integers(0, 2, n, dtype=np.uint8)
            examples = learners._examples(ctx, Dataset(points, labels))
            index = learners._flat_index(examples)
            assert index.dtype == key, (dtype, n)
            assert np.array_equal(index, labels * np.int64(width) + points)
            codes = ctx.tour_code[labels, points]
            assert np.array_equal(learners._codes(examples), codes)
            assert np.array_equal(
                learners._histogram(examples, rows), np.bincount(codes, minlength=rows)
            )


def dealt_summaries_reference(tree, codes, t, rng, runs):
    """The summaries of ``runs`` deals of the examples of presence codes
    ``codes`` by the tests' :func:`partition`, kept as the reference: one
    ``forced_nodes`` call over a column per subset, a row of ``t`` per run."""
    sample = Dataset(codes, np.zeros(len(codes), dtype=np.uint8))  # partition reads only its size
    pres = np.zeros((2 * len(tree.tour) + 2, runs, t), dtype=bool)
    for r in range(runs):
        pres[codes, r, partition(sample, t, rng)] = True
    return forced_nodes(tree, pres.reshape(len(pres), -1))[0].reshape(runs, t)


def _multisets(summaries, t):
    """How often each multiset of ``t`` subset summaries occurs among the runs."""
    return Counter(map(tuple, np.sort(np.reshape(summaries, (-1, t)), axis=1).tolist()))


def _same_law(a, b):
    """Whether two samples of outcome counts pass a two-sample chi-square test
    at level 1e-4, with the outcomes seen under 10 times in all pooled."""
    cells = sorted(set(a) | set(b))
    common = [c for c in cells if a[c] + b[c] >= 10]
    table = [[a[c] for c in common], [b[c] for c in common]]
    rare = [sum(x[c] for c in cells if c not in common) for x in (a, b)]
    if sum(rare):
        table[0].append(rare[0])
        table[1].append(rare[1])
    if len(table[0]) < 2:
        return set(a) == set(b)
    return stats.chi2_contingency(table)[1] > 1e-4


# presence codes on the modified example class's tree (k = 7, positions =
# points): a 0-label at position p is code p, a 1-label 8 + p; 7 and 15 are
# the labels off the tree. Nodes 0 and 3 and 4 hang under the root, 1 and
# 2 under 0, 5 and 6 under the improper node 4. The realizable sample is
# the path of 5, so a subset whose deepest 1-label is the improper 4 is
# summarised by which of 5 and 6 its 0-labels leave live.
REALIZABLE_CODES = [12, 12, 12, 13, 13, 6, 6, 0, 1, 2, 3, 7, 5]
LAW_CASES = {
    "realizable": REALIZABLE_CODES,
    # a 0-label on 4, above every deepest 1-label, and a 1-label at 1, off their path
    "unrealizable": REALIZABLE_CODES + [4, 9],
    "off-tree 1-label": REALIZABLE_CODES + [15, 15],
    "only 0-labels": [0, 5, 6, 6, 7, 1],
}


@pytest.mark.parametrize("case", sorted(LAW_CASES))
def test_revealed_summaries_follow_the_law_of_the_deal(case):
    # the multiset of subset summaries has one law under the revealed deal
    # and under a shuffle dealt round-robin, with 3 subsets of 4 or 5 examples
    tree = prepare_context(modified_example_class()).tree
    codes = np.array(LAW_CASES[case])
    t, runs = 3, 1500
    h = np.bincount(codes, minlength=16)
    got = learners._revealed_summaries(tree, h, t, make_rng([1, len(codes)]), runs)
    want = dealt_summaries_reference(tree, codes, t, make_rng([2, len(codes)]), runs)
    a, b = _multisets(got, t), _multisets(want, t)
    assert _same_law(a, b), (case, a, b)
    if case != "only 0-labels":
        assert len(b) > 2  # the law is not one point mass


def test_revealed_summaries_follow_the_law_of_the_deal_on_a_random_tree():
    # on a random tree with improper nodes, realizable and with two flipped labels
    cls = random_tree_class(40, max_children=3, concept_rate=0.5, seed=7)
    ctx = prepare_context(cls)
    assert not ctx.tree.proper_mask[ctx.tree.tour].all()
    w = 0.6 ** ctx.tree.depth[ctx.point_map]
    target = cls.concepts[len(cls.concepts) // 2]
    data = sample_dataset(cls, target, Distribution(w / w.sum()), 40, make_rng(4))
    rows, t, runs = 2 * len(ctx.tree.tour) + 2, 4, 1000
    for flips in (0, 2):
        labels = data.labels.copy()
        labels[:flips] ^= 1
        examples = learners._examples(ctx, Dataset(data.points, labels))
        got = learners._revealed_summaries(
            ctx.tree, learners._histogram(examples, rows), t, make_rng([3, flips]), runs)
        codes = learners._codes(examples)
        want = dealt_summaries_reference(ctx.tree, codes, t, make_rng([4, flips]), runs)
        a, b = _multisets(got, t), _multisets(want, t)
        assert _same_law(a, b), (flips, a, b)
        assert len(b) > 2


def test_dealt_summaries_follow_the_law_of_the_deal_on_both_sides_of_the_switch():
    # at 2 subsets on a 7-point tree the switch lies at 384 examples: below
    # it _dealt_summaries deals by a shuffle, from it by revealed codes, and on
    # both sides the summaries have the reference law; the few 1-labels and
    # 0-labels that matter sit among many 0-labels off the tree
    ctx = prepare_context(modified_example_class())
    t, runs = 2, 1500
    for n in (383, 384):
        assert learners._lazy(n, t, 7) == (n == 384)
        codes = np.array(REALIZABLE_CODES + [4, 15] + [7] * (n - len(REALIZABLE_CODES) - 2))
        got = learners._dealt_summaries(ctx, _as_examples(codes), t, make_rng([5, n]), runs)
        want = dealt_summaries_reference(ctx.tree, codes, t, make_rng([6, n]), runs)
        a, b = _multisets(got, t), _multisets(want, t)
        assert _same_law(a, b), (n, a, b)
        assert len(b) > 2


def test_dealt_summaries_take_their_path_by_public_sizes_only():
    # two samples of equal n and t whose histograms differ go the same way,
    # on each side of the switch: by one shuffle, or by reveals, of which
    # the sample with no 1-label needs none
    ctx = prepare_context(example_class())
    for n, t in ((383, 2), (384, 2), (2359, 337), (150_000, 337)):
        draws = []
        for codes in (np.arange(n) % 16, np.zeros(n, dtype=np.int64)):
            rec = _Recorder(make_rng(0))
            learners._dealt_summaries(ctx, _as_examples(codes), t, rec, 1)
            draws.append({kind for kind, _ in rec.log})
        lazy = learners._lazy(n, t, 7)
        assert draws == ([{"reveal"}, set()] if lazy else [{"permutation"}] * 2), (n, t)


def test_proper_split_is_uniform_and_independent_of_the_deal(example_cls, monkeypatch):
    # at a budget of t = 2 subsets and N2 = 2 stage-2 examples, a proper
    # run on 6 examples splits off one of 15 pairs and deals the other 4
    # two by two, one of 6 ways: all 90 joint outcomes occur about equally
    # often, so the pair is uniform and the deal does not depend on it
    small = learners.SampleBudget(t=2, N1=4, N2=2, T=2, per_subset=2)
    monkeypatch.setattr(learners, "sample_budget", lambda params, height: small)
    data = Dataset.from_pairs([(p, example_cls.concepts[5](p)) for p in range(6)])
    ctx = prepare_context(example_cls)
    runs, cells, freq = 1500, 90, Counter()
    for seed in range(runs):
        rec = _Recorder(make_rng([6, seed]))
        proper_learn(example_cls, data, PARAMS, rec, context=ctx)
        (kind, second), *log = rec.log
        assert kind == "choice" and len(second) == 2
        (ids,), _ = _deals(log, 4, 2)
        first = np.delete(np.arange(6), second)
        freq[tuple(sorted(second.tolist())), tuple(first[ids == 0].tolist())] += 1
    assert len(freq) == cells
    assert _chi2_below_bound(list(freq.values()), runs)


def test_proper_learn_deals_the_examples_it_did_not_hold_out():
    # below the switch the improper stage shuffles the codes of exactly the
    # examples that the split did not draw, in their order, and deals them
    # round-robin: each run's summaries are _subset_summaries of those codes
    # under the recorded permutation
    loose = LearnParams(alpha=0.3, beta=0.9, privacy=PrivacyParams(1.9, 0.5))
    cls = random_tree_class(40, max_children=3, concept_rate=0.5, seed=7)
    ctx = prepare_context(cls)
    w = 0.6 ** ctx.tree.depth[ctx.point_map]
    target = cls.concepts[len(cls.concepts) // 2]
    data = sample_dataset(cls, target, Distribution(w / w.sum()), 400, make_rng(8))
    labels = data.labels.copy()
    labels[::40] ^= 1  # some subsets no concept is consistent with
    data = Dataset(data.points, labels)
    codes = learners._codes(learners._examples(ctx, data))
    budget = sample_budget(loose, ctx.tree.height)
    kept = len(data) - min(budget.N2, len(data) // 2)
    t = min(budget.t, kept)
    assert t < kept and not learners._lazy(kept, t, len(ctx.tree.tour))
    seen = set()
    for seed in range(5):
        rec = _Recorder(make_rng([8, seed]))
        trace = proper_learn(cls, data, loose, rec, context=ctx)
        (kind, second), *log = rec.log
        assert kind == "choice" and len(second) == len(data) - kept
        (ids,), _ = _deals(log, kept, t)
        want = learners._subset_summaries(ctx, np.delete(codes, second), ids, t)
        got = [-1 if q is None else q for q in trace.stage1.subset_deepest]
        assert got == want.tolist(), seed
        seen.update(got)
    assert len(seen) > 2, seen  # the subsets' summaries differ


def test_proper_stage_one_histogram_is_the_sample_minus_stage_two(example_cls, monkeypatch):
    # past the switch the improper stage deals the codes of every example
    # that the split did not draw, counted without a copy of the rest
    small = learners.SampleBudget(t=2, N1=400, N2=3, T=2, per_subset=200)
    monkeypatch.setattr(learners, "sample_budget", lambda params, height: small)
    real, seen = learners._revealed_summaries, []
    monkeypatch.setattr(
        learners, "_revealed_summaries", lambda tree, h, *a: seen.append(h) or real(tree, h, *a)
    )
    ctx = prepare_context(example_cls)
    target = example_cls.concepts[5]
    data = sample_dataset(example_cls, target, Distribution.uniform(7), 400, make_rng(1))
    rec = _Recorder(make_rng(2))
    proper_learn(example_cls, data, PARAMS, rec, context=ctx)
    (kind, second), *log = rec.log
    assert kind == "choice" and len(second) == 3 and log[0][0] == "reveal"
    keep = np.ones(len(data), dtype=bool)
    keep[second] = False
    codes = learners._codes(learners._examples(ctx, data))
    assert learners._lazy(int(keep.sum()), 2, 7)
    assert len(seen) == 1 and np.array_equal(seen[0], np.bincount(codes[keep], minlength=16))


def test_improper_runs_of_one_is_improper_learn(example_cls):
    data = Dataset.from_pairs([(i % 7, example_cls.concepts[-2](i % 7)) for i in range(30)])
    params = LearnParams(alpha=0.2, beta=0.1, privacy=PrivacyParams(1.0, 1e-5))
    for seed in range(20):
        a, b = make_rng(seed), make_rng(seed)
        (batch,) = _batch_traces(example_cls, data, params, a, 1)
        assert batch.to_json() == improper_learn(example_cls, data, params, b).to_json()
        assert a.bit_generator.state == b.bit_generator.state


def test_improper_runs_validate_before_touching_data(example_cls):
    rng = make_rng(0)
    bad = LearnParams(alpha=0.2, beta=0.2, privacy=PrivacyParams(2.0, 1e-5))
    with pytest.raises(ValueError, match="epsilon"):
        _batch_traces(example_cls, None, bad, rng, 4)
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
                traces = _batch_traces(example_cls, data, params, b, k, context=ctx)
                assert got == [trace.hypothesis.ones for trace in traces], (i, k)
                assert a.bit_generator.state == b.bit_generator.state
                seen.update(trace.chosen_point is None for trace in traces)
    assert seen == {True, False}  # runs that abstained and runs that selected
