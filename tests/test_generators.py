import numpy as np
import pytest

from vc1learn import (
    Distribution,
    GeneratorSpec,
    canonicalize,
    example_class,
    f_represent,
    generate_class,
    is_canonical,
    littlestone_dimension,
    make_rng,
    make_tree,
    modified_example_class,
    point_functions_class,
    random_tree_class,
    sample_dataset,
    thresholds_class,
    vc_dimension,
)


def test_thresholds_class_shape():
    cls = thresholds_class(8)
    assert cls.domain_size == 8
    assert len(cls.concepts) == 9  # includes all-ones and all-zeros
    assert cls.concepts[0].ones == frozenset(range(8))
    assert cls.concepts[8].ones == frozenset()
    assert is_canonical(cls)
    assert littlestone_dimension(cls) == 3


def test_point_functions_class_shape():
    cls = point_functions_class(4)
    assert len(cls.concepts) == 5
    assert is_canonical(cls)
    assert littlestone_dimension(cls) == 1
    assert vc_dimension(cls) == 1


@pytest.mark.parametrize("seed", range(8))
def test_random_tree_classes_are_vc1(seed):
    cls = random_tree_class(9, max_children=3, concept_rate=0.4, seed=seed)
    assert is_canonical(cls)
    assert vc_dimension(cls) == 1
    make_tree(cls)  # structural chain check never trips


def test_random_tree_full_rate_is_maximum():
    cls = random_tree_class(12, max_children=3, concept_rate=1.0, seed=3)
    tree = make_tree(cls)
    assert all(tree.proper.values())
    assert tree.root_proper


def test_random_tree_determinism():
    a = random_tree_class(10, 3, 0.5, seed=9)
    b = random_tree_class(10, 3, 0.5, seed=9)
    assert a == b
    c = random_tree_class(10, 3, 0.5, seed=10)
    assert a != c


def test_random_tree_chain_when_single_child():
    cls = random_tree_class(6, max_children=1, concept_rate=0.0, seed=1)
    tree = make_tree(cls)
    assert tree.height == len(tree.tour)  # a single chain


def test_generate_class_dispatch():
    assert generate_class(GeneratorSpec("example")) == example_class()
    assert generate_class(GeneratorSpec("modified_example")) == modified_example_class()
    assert generate_class(GeneratorSpec("thresholds", n=4)) == thresholds_class(4)
    assert generate_class(GeneratorSpec("points", n=4)) == point_functions_class(4)
    with pytest.raises(ValueError):
        generate_class(GeneratorSpec("nope"))
    with pytest.raises(ValueError):
        generate_class(GeneratorSpec("thresholds"))


def test_example_classes_are_canonical():
    for cls in (example_class(), modified_example_class()):
        canon, merge = canonicalize(cls)
        assert list(merge) == list(range(cls.domain_size))
        assert len(canon.concepts) == len(cls.concepts)


def test_sample_dataset_basics(rng):
    cls = thresholds_class(8)
    dist = Distribution.uniform(8)
    c = cls.concepts[3]
    empty = sample_dataset(cls, c, dist, 0, rng)
    assert len(empty) == 0

    mass = Distribution(np.array([0, 0, 1.0, 0, 0, 0, 0, 0]))
    data = sample_dataset(cls, c, mass, 50, rng)
    assert set(data.points.tolist()) == {2}
    assert set(data.labels.tolist()) == {c(2)}
    assert data.realizable_by == c.id


def test_sample_dataset_frequencies(rng):
    cls = thresholds_class(4)
    w = np.array([0.1, 0.2, 0.3, 0.4])
    data = sample_dataset(cls, cls.concepts[2], Distribution(w), 10_000, rng)
    freq = np.bincount(data.points, minlength=4) / len(data)
    sigma = np.sqrt(w * (1 - w) / len(data))
    assert np.all(np.abs(freq - w) <= 3 * sigma + 1e-9)


def test_sample_dataset_rejects_foreign_concept(rng):
    cls = thresholds_class(4)
    from vc1learn import Concept

    # {-1} would wrap onto the member {3}; 4 is past the domain
    for ones in ({0, 2}, {-1}, {3, 4}):
        with pytest.raises(ValueError, match="must belong"):
            sample_dataset(cls, Concept(frozenset(ones)), Distribution.uniform(4), 5, rng)


def test_labels_match_concept(rng):
    cls = random_tree_class(10, 3, 0.6, seed=2)
    c = cls.concepts[-1]
    data = sample_dataset(cls, c, Distribution.uniform(cls.domain_size), 500, rng)
    for p, l in data.pairs():
        assert l == c(p)
