import numpy as np
import pytest

from vc1learn import (
    ConceptClass,
    canonicalize,
    example_class,
    f_represent,
    modified_example_class,
    point_functions_class,
    random_tree_class,
    thresholds_class,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def example_cls() -> ConceptClass:
    cls, _ = canonicalize(example_class())
    return cls


@pytest.fixture(scope="session")
def modified_cls() -> ConceptClass:
    cls, _ = canonicalize(modified_example_class())
    return cls


def represented_class(ctx) -> ConceptClass:
    """The canonical class whose tree a learner context holds, built from concepts."""
    return canonicalize(f_represent(ctx.base, ctx.f))[0]


def order_points(cls: ConceptClass) -> list[int]:
    """The class's non-constant points: the universe of the partial order."""
    return [p for p in range(cls.domain_size) if p not in cls.constant_labels]


def renamed_tree(tree, cols, n):
    """The arrays of ``tree`` with node ``i`` renamed ``cols[i]``, over ``n`` points."""

    def spread(values, fill):
        out = np.full(n, fill, dtype=values.dtype)
        out[cols] = values
        return out

    parent = np.where(tree.parent >= 0, cols[tree.parent], -1)
    return {
        "parent": spread(parent, -1),
        "depth": spread(tree.depth, 0),
        "tour": cols[tree.tour],
        "tin": spread(tree.tin, -1),
        "tout": spread(tree.tout, -1),
        "proper_mask": spread(tree.proper_mask, False),
    }


def build_corpus(count: int = 200, max_domain: int = 64) -> list[ConceptClass]:
    """A deterministic bank of VC-1 classes mixing the three generators."""
    classes: list[ConceptClass] = []
    for k in (1, 2, 3, 5, 8, 12, 16, 24, 33, 48, 64):
        if k <= max_domain:
            classes.append(thresholds_class(k))
    for k in (1, 2, 4, 7, 12, 20, 32):
        if k <= max_domain:
            classes.append(point_functions_class(k))
    seed = 0
    sizes = (2, 3, 4, 6, 8, 11, 16, 23, 32, 45, 64)
    rates = (0.0, 0.25, 0.5, 0.8, 1.0)
    children = (1, 2, 3, 5)
    while len(classes) < count:
        n = sizes[seed % len(sizes)]
        if n <= max_domain:
            classes.append(
                random_tree_class(
                    n,
                    max_children=children[seed % len(children)],
                    concept_rate=rates[seed % len(rates)],
                    seed=seed,
                )
            )
        seed += 1
    return classes[:count]


@pytest.fixture(scope="session")
def corpus() -> list[ConceptClass]:
    return build_corpus()


@pytest.fixture(scope="session")
def small_corpus() -> list[ConceptClass]:
    """Classes small enough for the exhaustive dimension oracles."""
    return [c for c in build_corpus(120, max_domain=12) if c.domain_size <= 12]
