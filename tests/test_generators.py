import re
import tracemalloc

import numpy as np
import pytest

from vc1learn import (
    ConceptClass,
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
    prepare_context,
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
    assert cls.index_of(()) is not None  # the root's empty path


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
    spec = GeneratorSpec("random_tree", n=9, max_children=2, concept_rate=0.3, seed=4)
    assert generate_class(spec) == random_tree_class(9, 2, 0.3, 4)
    with pytest.raises(ValueError):
        generate_class(GeneratorSpec("nope"))
    for kind in ("thresholds", "points", "random_tree"):
        with pytest.raises(ValueError, match=f"{kind} generator needs n"):
            generate_class(GeneratorSpec(kind))


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
    with pytest.raises(ValueError):
        sample_dataset(cls, c, dist, -1, rng)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="'n' must be an integer of at least 0, not -5"):
        sample_dataset(cls, c, dist, -5, rng)
    assert rng.bit_generator.state == state

    mass = Distribution(np.array([0, 0, 1.0, 0, 0, 0, 0, 0]))
    data = sample_dataset(cls, c, mass, 50, rng)
    assert set(data.points.tolist()) == {2}
    assert set(data.labels.tolist()) == {c(2)}
    assert data.pairs() == [(2, c(2))] * 50


def test_sample_dataset_frequencies(rng):
    cls = thresholds_class(4)
    w = np.array([0.1, 0.2, 0.3, 0.4])
    data = sample_dataset(cls, cls.concepts[2], Distribution(w), 10_000, rng)
    freq = np.bincount(data.points, minlength=4) / len(data)
    sigma = np.sqrt(w * (1 - w) / len(data))
    assert np.all(np.abs(freq - w) <= 3 * sigma + 1e-9)


def _sweep_weights() -> np.ndarray:
    # the proper sweep's weights: 0.15 ** depth over a random tree's domain
    ctx = prepare_context(random_tree_class(200, 3, 0.4, seed=8102))
    w = 0.15 ** ctx.depth_vec[ctx.point_map].astype(np.float64)
    return w / w.sum()


def _tiny_weights() -> np.ndarray:
    w = np.full(4096, 1e-300)
    w[[3, 2000]] = 0.5
    return w


WEIGHT_CASES = {
    "uniform_4096": lambda: np.full(4096, 1.0 / 4096),
    # unlike 4096 points, u * 1000 rounds up onto the next bucket at some edges
    "uniform_1000": lambda: np.full(1000, 1e-3),
    "sweep": _sweep_weights,
    "zeros": lambda: np.resize([0.0, 0.25, 0.0, 0.75, 0.0], 1000) / 200,
    "point_mass": lambda: np.eye(4096)[4095],
    "tiny": _tiny_weights,
}


@pytest.mark.parametrize("n", [0, 1, 65_536, 65_537, 300_000])
@pytest.mark.parametrize("case", sorted(WEIGHT_CASES))
def test_sample_dataset_equals_rng_choice(case, n):
    w = WEIGHT_CASES[case]()
    cls = generate_class(GeneratorSpec("thresholds", n=len(w)))
    expected_rng = np.random.default_rng([n, 9])
    expected = expected_rng.choice(len(w), size=n, p=w)
    rng = np.random.default_rng([n, 9])
    data = sample_dataset(cls, cls.concepts[1], Distribution(w), n, rng)
    assert data.points.dtype == np.min_scalar_type(len(w) - 1)
    assert np.array_equal(data.points, expected)
    assert rng.bit_generator.state == expected_rng.bit_generator.state


class _PresetUniforms:
    """Stands in for a generator whose ``random`` hands out preset uniforms."""

    def __init__(self, u: np.ndarray) -> None:
        self.u = u
        self.at = 0

    def random(self, size: int) -> np.ndarray:
        self.at += size
        return self.u[self.at - size : self.at]


@pytest.mark.parametrize("case", sorted(WEIGHT_CASES))
def test_sample_dataset_at_cdf_and_bucket_edges(case):
    # uniforms on and next to every CDF value and guide-bucket edge, where
    # a rounded bucket or a misplaced equality would pick the wrong point
    w = WEIGHT_CASES[case]()
    cdf = w.cumsum()
    cdf /= cdf[-1]  # as rng.choice computes it
    edges = np.concatenate([cdf, np.arange(len(w) + 1) / len(w)])
    u = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, 1)])
    u = u[(u >= 0) & (u < 1)]
    cls = generate_class(GeneratorSpec("thresholds", n=len(w)))
    data = sample_dataset(cls, cls.concepts[1], Distribution(w), len(u), _PresetUniforms(u))
    assert np.array_equal(data.points, cdf.searchsorted(u, side="right"))


def test_distribution_rejects_nan_weights():
    # rng.choice rejected them at the draw; the inverse-CDF draw does not look
    with pytest.raises(ValueError, match="sum to 1"):
        Distribution(np.array([0.5, np.nan, 0.5]))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: thresholds_class(0), "'n' must be an integer of at least 1, not 0"),
        (lambda: point_functions_class(0), "'n' must be an integer of at least 1, not 0"),
        (lambda: random_tree_class(0), "'n' must be an integer of at least 1, not 0"),
        (
            lambda: random_tree_class(5, max_children=0),
            "'max_children' must be an integer of at least 1, not 0",
        ),
        # numpy's TypeError or AxisError before, and thresholds(True) was built
        (lambda: thresholds_class(2.5), "'n' must be an integer of at least 1, not 2.5"),
        (lambda: thresholds_class(True), "'n' must be an integer of at least 1, not True"),
        (lambda: point_functions_class(2.5), "'n' must be an integer of at least 1, not 2.5"),
        (lambda: random_tree_class(5.5), "'n' must be an integer of at least 1, not 5.5"),
        # built a class named random_tree(5,1.5,0.5,0)
        (
            lambda: random_tree_class(5, max_children=1.5),
            "'max_children' must be an integer of at least 1, not 1.5",
        ),
        (lambda: GeneratorSpec("thresholds", n=0), "'n' must be an integer of at least 1, not 0"),
        (lambda: GeneratorSpec("nope"), "unknown generator kind 'nope'"),
        (lambda: GeneratorSpec("points"), "points generator needs n"),
        (
            lambda: GeneratorSpec("random_tree", n=5, concept_rate=2.0),
            "concept_rate must be in [0, 1]",
        ),
        (lambda: random_tree_class(5, concept_rate=1.5), "concept_rate must be in [0, 1]"),
        (lambda: random_tree_class(5, concept_rate=-0.1), "concept_rate must be in [0, 1]"),
        (lambda: Distribution(np.full((2, 2), 0.25)), "weights must be a non-empty 1-d array"),
        (lambda: Distribution(np.array([1.5, -0.5])), "weights must be nonnegative"),
        (
            lambda: sample_dataset(
                example_class(), example_class().concepts[0], Distribution.uniform(6), 3,
                make_rng(0),
            ),
            "distribution support must match the domain",
        ),
        (
            lambda: GeneratorSpec("thresholds", n=2.5),
            "'n' must be an integer of at least 1, not 2.5",
        ),
        (
            lambda: GeneratorSpec("random_tree", n=10, max_children=1.5),
            "'max_children' must be an integer of at least 1, not 1.5",
        ),
        (lambda: GeneratorSpec("random_tree", n=10, seed=True), "'seed' must be an integer"),
        (
            lambda: GeneratorSpec("random_tree", n=10, concept_rate="x"),
            "'concept_rate' must be a number, not 'x'",
        ),
        # was TypeError: unhashable type, inside generate_class
        (lambda: GeneratorSpec(["x"]), "'kind' must be a string, not ['x']"),
        *[
            (
                lambda n=n: sample_dataset(
                    example_class(), example_class().concepts[0], Distribution.uniform(7), n,
                    make_rng(0),
                ),
                f"'n' must be an integer of at least 0, not {n!r}",
            )
            for n in (2.5, 3.0, True)
        ],
    ],
    ids=["thresholds-n", "points-n", "random-tree-n", "max-children", "thresholds-n-float",
         "thresholds-n-bool", "points-n-float", "random-tree-n-float",
         "random-tree-max-children-float", "spec-n-zero", "spec-kind-unknown", "spec-needs-n",
         "spec-rate-high", "rate-high", "rate-low", "weights-2d", "weights-negative", "support",
         "spec-n-float",
         "spec-max-children-float", "spec-seed-bool", "spec-rate-str", "spec-kind-list",
         "sample-n-float", "sample-n-integral-float", "sample-n-bool"],
)
def test_generator_inputs_are_refused(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_sample_dataset_memory_is_bounded(rng):
    # the uniforms are drawn in chunks: the output arrays take 8.6 MiB at
    # n = 10**6, and an unchunked draw holds several times that on top
    cls = generate_class(GeneratorSpec("thresholds", n=4096))
    dist = Distribution.uniform(4096)
    sample_dataset(cls, cls.concepts[7], dist, 1000, rng)
    tracemalloc.start()
    try:
        data = sample_dataset(cls, cls.concepts[7], dist, 10**6, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) == 10**6
    assert peak <= 14 * 2**20


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


def _random_tree_by_rebuilt_slots(n, max_children, concept_rate, seed):
    """``random_tree_class`` rebuilding its open-slot list for every point."""
    rng = make_rng(seed)
    order = rng.permutation(n)
    paths = np.zeros((n + 1, n), dtype=bool)
    child_count = [0] * (n + 1)
    attached = [n]
    for x in order.tolist():
        slots = [v for v in attached if child_count[v] < max_children]
        p = slots[int(rng.integers(len(slots)))]
        paths[x] = paths[p]
        paths[x, x] = True
        child_count[p] += 1
        attached.append(x)
    kept = [x for x in range(n) if child_count[x] == 0 or rng.random() < concept_rate]
    name = f"random_tree({n},{max_children},{concept_rate},{seed})"
    ids = ["empty"] + [f"path{x}" for x in kept]
    return canonicalize(ConceptClass(paths[[n] + kept], ids, name=name))[0]


def test_random_tree_class_matches_the_rebuilt_slot_list():
    # the slot list kept in attach order, a node dropped when it fills, is
    # the rebuilt list at every step, so the draws and the class are equal
    for n in (1, 2, 5, 33, 300):
        for k in (1, 2, 3, 5):
            for seed in range(4):
                want = _random_tree_by_rebuilt_slots(n, k, 0.5, seed)
                assert random_tree_class(n, k, 0.5, seed) == want, (n, k, seed)
