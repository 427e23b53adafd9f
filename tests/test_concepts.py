import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vc1learn import (
    Concept,
    ConceptClass,
    Dataset,
    Distribution,
    ExperimentConfig,
    GeneratorSpec,
    Hypothesis,
    LearnParams,
    PrivacyParams,
    canonicalize,
    comparable,
    example_class,
    f_represent,
    generate_class,
    is_canonical,
    leq,
    make_rng,
    sample_dataset,
    thresholds_class,
)
from vc1learn.generators import GENERATOR_KINDS

from conftest import order_points

X1, X2, X3, X4, X5, X6, X7 = range(7)


def test_canonicalize_drops_duplicate_concepts():
    cls = ConceptClass.from_ones(3, [{0}, {0}, {1, 2}])
    canon, _ = canonicalize(cls)
    assert len(canon.concepts) == 2
    assert canon.concepts[0].ones == frozenset({0})


def test_canonicalize_merges_identical_columns():
    # columns of points 1 and 2 are identical, lowest index survives
    cls = ConceptClass.from_ones(4, [{0}, {1, 2}, {3}])
    canon, merge = canonicalize(cls)
    assert canon.domain_size == 3
    assert list(merge) == [0, 1, 1, 2]
    assert canon.concepts[1].ones == frozenset({1})
    # all three columns share their count and first concept; only 1 and 2 merge
    canon, merge = canonicalize(ConceptClass.from_ones(3, [{0, 1, 2}, {0}, {1, 2}]))
    assert list(merge) == [0, 1, 1]
    assert [c.ones for c in canon.concepts] == [{0, 1}, {0}, {1}]


def test_canonicalize_example_class_unchanged():
    cls = example_class()
    canon, merge = canonicalize(cls)
    assert canon.domain_size == 7
    assert [c.ones for c in canon.concepts] == [c.ones for c in cls.concepts]
    assert list(merge) == list(range(7))


def test_canonicalize_flags_constant_points():
    # point 2 is always 0, point 3 always 1
    cls = ConceptClass.from_ones(4, [{0, 3}, {1, 3}, {0, 1, 3}])
    canon, merge = canonicalize(cls)
    assert canon.constant_labels == {int(merge[2]): 0, int(merge[3]): 1}
    assert set(order_points(canon)) == {int(merge[0]), int(merge[1])}


def test_canonicalize_empty_class_errors():
    with pytest.raises(ValueError, match="empty concept class"):
        ConceptClass(np.zeros((0, 2), dtype=bool), ())
    with pytest.raises(ValueError, match="empty concept class"):
        ConceptClass.from_ones(2, [])


def test_canonicalize_idempotent(corpus):
    for cls in corpus[:40]:
        canon, _ = canonicalize(cls)
        again, merge = canonicalize(canon)
        assert is_canonical(canon)
        assert [c.ones for c in again.concepts] == [c.ones for c in canon.concepts]
        assert list(merge) == list(range(canon.domain_size))


def test_f_represent_identity_for_all_zeros():
    cls = example_class()
    f = cls.concepts[7]  # the empty concept
    assert f.ones == frozenset()
    out = f_represent(cls, f)
    assert [c.ones for c in out.concepts] == [c.ones for c in cls.concepts]


def test_f_represent_pointwise_xor():
    cls = example_class()
    f = cls.concepts[0]  # {x1}
    out = f_represent(cls, f)
    # independent check: XOR every concept with f by hand
    for before, after in zip(cls.concepts, out.concepts):
        expected = {x for x in range(7) if (x in before.ones) != (x in f.ones)}
        assert after.ones == frozenset(expected)
    assert out.concepts[0].ones == frozenset()
    assert out.concepts[4].ones == frozenset({X5})


def test_f_represent_contains_all_zeros_concept(corpus):
    for cls in corpus[:30]:
        for f in cls.concepts[:3]:
            out = f_represent(cls, f)
            assert frozenset() in {c.ones for c in out.concepts}


def test_f_represent_involution():
    cls = example_class()
    for f in cls.concepts:
        assert f_represent(f_represent(cls, f), f) == cls


def test_f_represent_requires_membership():
    cls = example_class()
    # {0, 4, -1} would wrap onto the member {0, 4, 6}; 7 is past the domain
    for ones in ({0, 1}, {0, 4, -1}, {0, 7}):
        with pytest.raises(ValueError, match="must belong"):
            f_represent(cls, Concept(frozenset(ones)))


def test_class_equality_and_hash():
    cls = example_class()
    same = ConceptClass(cls.matrix.copy(), list(cls.ids), cls.name)
    assert same == cls and hash(same) == hash(cls)
    flipped = cls.matrix.copy()
    flipped[3, 5] ^= True
    ids = list(cls.ids)
    ids[2] = "other"
    for other in (
        ConceptClass(flipped, cls.ids, cls.name),
        ConceptClass(cls.matrix, ids, cls.name),
        ConceptClass(cls.matrix, cls.ids, "other"),
    ):
        assert other != cls


def test_classes_of_equal_packed_bytes_on_different_domains_differ():
    # 7 and 8 points pack {0} and the empty set into the same bytes
    seven, eight = (ConceptClass.from_ones(n, [{0}, set()]) for n in (7, 8))
    assert np.array_equal(seven.packed, eight.packed)
    assert seven != eight and hash(seven) != hash(eight)


def test_class_stores_its_rows_packed():
    cls = thresholds_class(4096)
    assert cls.packed.nbytes == 4097 * 512
    assert [f.name for f in dataclasses.fields(cls)] == ["packed", "domain_size", "ids", "name"]
    assert not cls.packed.flags.writeable


def test_matrix_and_rows_equal_the_input_for_every_generator_kind(monkeypatch):
    # every class a generator builds, canonicalize's inputs and outputs
    # among them, unpacks to the matrix it was built from
    built = []
    init = ConceptClass.__init__

    def recording_init(self, matrix, ids, name=None):
        built.append((self, np.array(matrix, dtype=bool)))
        init(self, matrix, ids, name)

    monkeypatch.setattr(ConceptClass, "__init__", recording_init)
    for kind, (sized, _) in sorted(GENERATOR_KINDS.items()):
        for n in (1, 8, 13) if sized else (None,):
            # the memoised wrapper would hand back classes built earlier
            generate_class.__wrapped__(GeneratorSpec(kind, n=n, seed=3))
    assert len(built) > 10
    for cls, m in built:
        assert cls.matrix.dtype == bool and np.array_equal(cls.matrix, m)
        assert all(np.array_equal(cls.row(i), m[i]) for i in range(len(m)))
        assert cls.domain_size == m.shape[1]
        with pytest.raises(ValueError, match="read-only"):
            cls.matrix[0, 0] = True


def test_index_of_gives_first_member():
    cls = ConceptClass.from_ones(3, [{0}, {1}, {0}, set()])
    assert [cls.index_of(o) for o in ({0}, [1], set(), {2})] == [0, 1, 3, None]
    # -1 would wrap onto point 2, and 3 is past the domain
    assert cls.index_of({-1}) is None and cls.index_of({0, 3}) is None


def test_index_of_finds_no_member_at_a_point_that_is_no_integer():
    # by from_ones's rule: 1.5 and 4.9 once cast to 1 and 4, and True to 1
    cls = example_class()
    assert cls.index_of([1]) == 1 and cls.index_of([np.int64(0), 4]) == 4
    for ones in ([1.5], [True], [0.0, 4.9], [np.float64(1)]):
        assert cls.index_of(ones) is None
    # such a concept is refused when built, before it can reach sample_dataset
    with pytest.raises(ValueError, match="'ones' must be a set of integers"):
        sample_dataset(cls, Concept(frozenset({0.5})), Distribution.uniform(7), 5, make_rng(0))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ConceptClass(np.zeros(3, dtype=bool), ["a"]), "matrix must be 2-d"),
        (lambda: ConceptClass(np.zeros((2, 3), dtype=bool), ["a"]), "one id per concept"),
        (lambda: ConceptClass(np.zeros((1, 3), dtype=bool), ["a", "b"]), "one id per concept"),
        (
            lambda: ConceptClass.from_ones(-1, [set()]),
            "'domain_size' must be an integer of at least 0, not -1",
        ),
        (lambda: ConceptClass.from_ones(2.5, [set()]), "of at least 0, not 2.5"),
        (lambda: ConceptClass.from_ones(True, [set()]), "of at least 0, not True"),
        # the id count is checked before any id is read
        (lambda: ConceptClass.from_ones(3, [{0}, {1}], ids=["a"]), "one id per concept"),
        (lambda: Dataset(np.array([0, 1]), np.array([0])), "1-d arrays of equal length"),
        (lambda: Dataset(np.zeros((2, 1), int), np.zeros((2, 1), int)), "1-d arrays"),
        (lambda: leq(example_class(), 0, 7), "'point' must be an integer in [0, 6], not 7"),
        (lambda: leq(example_class(), -1, 0), "'point' must be an integer in [0, 6], not -1"),
        # numpy raised IndexError at 1.5 and read True as point 1
        (lambda: leq(example_class(), 1.5, 0), "'point' must be an integer in [0, 6], not 1.5"),
        (lambda: leq(example_class(), 0, True), "'point' must be an integer in [0, 6], not True"),
        # built before: a point that is no integer or a collection that is no set
        (lambda: Concept(frozenset({0.5})), "'ones' must be a set of integers"),
        (lambda: Concept(frozenset({True, 2})), "'ones' must be a set of integers"),
        (lambda: Concept([0, 1]), "'ones' must be a set of integers, not [0, 1]"),
        (lambda: Concept(frozenset({0}), id=3), "'id' must be a string, not 3"),
        (lambda: Hypothesis(frozenset({"1"})), "'ones' must be a set of integers"),
        (lambda: Hypothesis(frozenset({0}), proper_index=0.0), "'proper_index' must be an integer"),
    ],
    ids=["matrix-1d", "ids-short", "ids-long", "negative-domain", "float-domain", "bool-domain",
         "from-ones-ids", "dataset-lengths", "dataset-2d", "order-point-past",
         "order-point-negative", "order-point-float", "order-point-bool", "concept-float-point",
         "concept-bool-point", "concept-list", "concept-id-int", "hypothesis-str-point",
         "hypothesis-index-float"],
)
def test_concept_inputs_are_refused(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_every_config_field_is_checked_by_its_annotation():
    # _check_fields reads annotation strings, so a field of a kind it does
    # not handle (a later ``bool``, say) or a module without ``from
    # __future__ import annotations`` would leave the field unchecked: each
    # field, the nested configs and the 1-sets among them, must refuse a
    # value of no type by name
    privacy = PrivacyParams(1.0, 1e-5)
    params = LearnParams(0.25, 0.25, privacy)
    spec = GeneratorSpec("example")
    values = (
        privacy, params, spec, ExperimentConfig(spec, params), Concept(frozenset({0}), "c"),
        Hypothesis(frozenset({0}), 0),
    )
    for obj in values:
        for f in dataclasses.fields(obj):
            with pytest.raises(ValueError, match=f"^'{f.name}' must be "):
                dataclasses.replace(obj, **{f.name: object()})
    # a nested config of another class, or its fields as a tuple, built
    # before and failed later with AttributeError
    for bad in ((1.0, 1e-5), params):
        with pytest.raises(ValueError, match="^'privacy' must be a PrivacyParams, not "):
            LearnParams(0.2, 0.2, privacy=bad)
    with pytest.raises(ValueError, match="^'generator' must be a GeneratorSpec, not "):
        ExperimentConfig(params, params)
    with pytest.raises(ValueError, match="^'params' must be a LearnParams, not "):
        ExperimentConfig(spec, privacy)


def test_leq_example_values(example_cls):
    # every concept containing x5 also contains x1, but not conversely
    assert leq(example_cls, X5, X1)
    assert not leq(example_cls, X1, X5)
    # siblings on different branches
    assert not leq(example_cls, X4, X5)
    assert not leq(example_cls, X5, X4)
    assert not comparable(example_cls, X4, X5)
    assert comparable(example_cls, X1, X7)
    for x in range(7):
        assert leq(example_cls, x, x)
        assert comparable(example_cls, x, x)


def test_leq_rejects_constant_points():
    cls, _ = canonicalize(ConceptClass.from_ones(3, [{0, 2}, {1, 2}, {0, 1, 2}]))
    const = next(iter(cls.constant_labels))
    live = order_points(cls)[0]
    with pytest.raises(ValueError, match="order universe"):
        leq(cls, const, live)


def _order_matrix(cls):
    pts = order_points(cls)
    return {
        (a, b): leq(cls, a, b) for a in pts for b in pts
    }


@pytest.mark.parametrize("which", ["example", "corpus"])
def test_leq_is_a_partial_order(which, example_cls, corpus):
    classes = [example_cls] if which == "example" else []
    if which == "corpus":
        classes = [canonicalize(c)[0] for c in corpus if c.domain_size <= 16][:25]
    for cls in classes:
        rel = _order_matrix(cls)
        pts = order_points(cls)
        for a in pts:
            assert rel[(a, a)]
            for b in pts:
                if rel[(a, b)] and rel[(b, a)]:
                    assert a == b  # antisymmetry
                for c in pts:
                    if rel[(a, b)] and rel[(b, c)]:
                        assert rel[(a, c)]  # transitivity


def test_incomparable_points_share_no_concept(corpus):
    # in any member representation, two incomparable points are never both 1
    for cls in corpus[:40]:
        base, _ = canonicalize(cls)
        rep, _ = canonicalize(f_represent(base, base.concepts[0]))
        pts = order_points(rep)
        if len(pts) > 24:
            continue
        m = rep.matrix
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                if not comparable(rep, a, b):
                    assert not np.any(m[:, a] & m[:, b])


def test_upsets_are_chains(corpus):
    # the fact that makes the tree construction well defined
    for cls in corpus[:40]:
        base, _ = canonicalize(cls)
        rep, _ = canonicalize(f_represent(base, base.concepts[0]))
        pts = order_points(rep)
        if len(pts) > 24:
            continue
        for x in pts:
            ups = [y for y in pts if y != x and leq(rep, x, y)]
            for i, a in enumerate(ups):
                for b in ups[i + 1 :]:
                    assert comparable(rep, a, b)


def _is_canonical_reference(cls):
    # the definition, one point column at a time
    columns = [tuple(c(p) for c in cls.concepts) for p in range(cls.domain_size)]
    distinct_concepts = len({c.ones for c in cls.concepts}) == len(cls.concepts)
    return distinct_concepts and len(set(columns)) == len(columns)


@settings(max_examples=60, deadline=None)
@given(
    ones_sets=st.lists(
        st.frozensets(st.integers(0, 5)), min_size=1, max_size=10
    )
)
def test_canonicalize_random_classes_property(ones_sets):
    cls = ConceptClass.from_ones(6, ones_sets)
    canon, merge = canonicalize(cls)
    assert is_canonical(canon)
    assert is_canonical(cls) == _is_canonical_reference(cls)
    assert len(merge) == 6
    # merging preserves every concept's value at every original point
    for orig, c_new in zip(
        [c for i, c in enumerate(cls.concepts) if c.ones not in
         {d.ones for d in cls.concepts[:i]}],
        canon.concepts,
    ):
        for p in range(6):
            assert (p in orig.ones) == (int(merge[p]) in c_new.ones)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([0, 1]), np.array([0, 2]))
    with pytest.raises(ValueError):
        Dataset(np.array([-1]), np.array([0]))
    data = Dataset.from_pairs([(0, 1)])
    with pytest.raises(ValueError):
        data.points[0] = 3  # arrays are frozen


def test_dataset_checks_values_before_casting():
    # each of these used to be cast quietly, or to raise OverflowError
    for points, labels in (
        ([0, 1], [256, 257]),  # uint8 wrap: labels 0 and 1
        ([0, 1], [0.5, 1.0]),  # truncated to 0
        ([1.7, 2.0], [0, 1]),  # truncated to point 1
    ):
        with pytest.raises(ValueError):
            Dataset(np.array(points), np.array(labels))
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        Dataset.from_pairs([(0, -1)])
    with pytest.raises(ValueError, match="nonnegative integers"):
        Dataset.from_pairs([(10**20, 0)])
    # bool labels and integer points of any width are taken as they are;
    # unsigned points of up to 32 bits keep their dtype
    data = Dataset(np.array([3, 0], dtype=np.uint16), np.array([True, False]))
    assert data.pairs() == [(3, 1), (0, 0)]
    assert data.points.dtype == np.uint16 and data.labels.dtype == np.uint8
    for dtype, kept in ((np.uint8, np.uint8), (np.uint32, np.uint32), (np.uint64, np.int64),
                        (np.int8, np.int64), (np.int32, np.int64)):
        assert Dataset(np.array([3, 0], dtype=dtype), np.array([1, 0])).points.dtype == kept
    with pytest.raises(ValueError, match="nonnegative integers"):
        Dataset(np.array([2**63], dtype=np.uint64), np.array([0]))
    assert len(Dataset.from_pairs([])) == 0


def test_dataset_hash_agrees_with_equality_across_point_dtypes():
    labels = np.array([1, 0, 1], dtype=np.uint8)
    same = [Dataset(np.array([3, 0, 7], dtype=d), labels) for d in (np.uint8, np.uint16, np.int64)]
    assert [d.points.dtype for d in same] == [np.uint8, np.uint16, np.int64]
    for a in same:
        for b in same:
            assert a == b and hash(a) == hash(b)
    assert len(set(same)) == 1
    other = Dataset(np.array([3, 0, 6], dtype=np.uint8), labels)
    assert other != same[0] and len(set(same + [other])) == 2


def test_dataset_and_distribution_leave_the_callers_arrays_writeable():
    from vc1learn import Distribution

    points, labels = np.array([0, 1, 2]), np.array([0, 1, 0], dtype=np.uint8)
    data = Dataset(points, labels)
    weights = np.full(4, 0.25)
    dist = Distribution(weights)
    for own, held in ((points, data.points), (labels, data.labels), (weights, dist.weights)):
        assert own.flags.writeable and not held.flags.writeable
        with pytest.raises(ValueError):
            held[0] = 1
    # a dataset holds a view; a distribution copies, as it caches its CDF
    assert np.shares_memory(points, data.points) and np.shares_memory(labels, data.labels)
    assert not np.shares_memory(weights, dist.weights)
    # bool labels are held as a uint8 view of the caller's array
    flags = np.array([True, False, True])
    held = Dataset(points, flags).labels
    assert held.dtype == np.uint8 and np.shares_memory(flags, held)
    assert held.tolist() == [1, 0, 1] and flags.flags.writeable
    points[0] = 2  # the caller may still write into its own array
    assert data.points[0] == 2


def test_from_ones_rejects_points_that_are_not_integers():
    for bad in (1.5, True, "2", np.float64(1.0)):
        with pytest.raises(ValueError, match="'b' has non-integer points"):
            ConceptClass.from_ones(3, [[0], [0, bad]], ["a", "b"])
    cls = ConceptClass.from_ones(3, [[np.int64(2)], range(2)])
    assert [c.ones for c in cls.concepts] == [{2}, {0, 1}]
