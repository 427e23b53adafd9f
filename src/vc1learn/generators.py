"""Concept-class generators and dataset sampling.

Three families cover the interesting regimes: threshold functions (a
single deep chain), point functions (a flat star), and random
root-path-closure classes over random trees, whose properness pattern is
tunable. Two hand-built seven-point fixtures exercise the worked
examples used throughout the tests. Every generated class has VC
dimension 1 by construction and is returned in canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .concepts import Concept, ConceptClass, Dataset, _check_fields, _check_int, canonicalize
from .oracles import Distribution
from .rng import make_rng

# sample_dataset draws its uniforms in chunks of this many
SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one generated class, checked when built: the fields by
    ``concepts._check_fields``, then the kind is known, ``n`` is given
    when the kind needs it, and ``concept_rate`` is in [0, 1]."""

    kind: str  # a key of GENERATOR_KINDS
    n: int | None = field(default=None, metadata={"lo": 1})
    max_children: int = field(default=3, metadata={"lo": 1})
    concept_rate: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if GENERATOR_KINDS[self.kind][0] and self.n is None:
            raise ValueError(f"{self.kind} generator needs n")
        if not 0.0 <= self.concept_rate <= 1.0:
            raise ValueError("concept_rate must be in [0, 1]")


def thresholds_class(n: int) -> ConceptClass:
    """Threshold functions x >= t over [0, n), including both boundary concepts."""
    n = GeneratorSpec("thresholds", n).n
    m = np.arange(n) >= np.arange(n + 1)[:, None]
    ids = [f"ge{t}" for t in range(n + 1)]
    return ConceptClass(m, ids, name=f"thresholds({n})")


def point_functions_class(n: int) -> ConceptClass:
    """Indicator functions of single points plus the empty concept."""
    n = GeneratorSpec("points", n).n
    m = np.vstack([np.zeros(n, dtype=bool), np.eye(n, dtype=bool)])
    ids = ["empty"] + [f"pt{x}" for x in range(n)]
    return ConceptClass(m, ids, name=f"points({n})")


def random_tree_class(
    n: int, max_children: int = 3, concept_rate: float = 0.5, seed: int = 0
) -> ConceptClass:
    """Root-path closures of a random rooted tree over ``n`` points.

    Every leaf path and the empty concept are always included, keeping
    every tree leaf realized; interior paths enter with probability
    ``concept_rate`` (1 gives the maximum class). The result is
    canonicalized, so indistinguishable points may merge and the domain
    may end up smaller than ``n``.
    """
    spec = GeneratorSpec("random_tree", n, max_children, concept_rate, seed)
    n, max_children, concept_rate, seed = spec.n, spec.max_children, spec.concept_rate, spec.seed
    rng = make_rng(seed)
    order = rng.permutation(n)
    # paths[x]: x's root path, filled as x attaches; row n is the virtual root
    paths = np.zeros((n + 1, n), dtype=bool)
    child_count = [0] * (n + 1)
    slots = [n]  # the attached points with room for a child, in attach order
    for x in order.tolist():
        i = int(rng.integers(len(slots)))
        p = slots[i]
        paths[x] = paths[p]
        paths[x, x] = True
        child_count[p] += 1
        if child_count[p] == max_children:
            slots.pop(i)
        slots.append(x)

    # a draw for interior points only
    kept = [x for x in range(n) if child_count[x] == 0 or rng.random() < concept_rate]
    cls = ConceptClass(
        paths[[n] + kept],
        ["empty"] + [f"path{x}" for x in kept],
        name=f"random_tree({n},{max_children},{concept_rate},{seed})",
    )
    return canonicalize(cls)[0]


def example_class() -> ConceptClass:
    """Seven points, eight concepts: the worked four-layer tree fixture."""
    ones_sets = [
        {0},
        {1},
        {2},
        {0, 3},
        {0, 4},
        {0, 4, 5},
        {0, 4, 6},
        set(),
    ]
    ids = ["h1", "h2", "h3", "h4", "h5", "h6", "h7", "h8"]
    return ConceptClass.from_ones(7, ones_sets, ids, name="example")


def modified_example_class() -> ConceptClass:
    """The example fixture with the {x1, x5} concept removed.

    Dropping it makes one interior tree node unrealized, which is the
    smallest instance where the proper learner's subtree descent matters.
    """
    kept = [c for c in example_class().concepts if c.ones != {0, 4}]
    return ConceptClass.from_ones(
        7, [c.ones for c in kept], [c.id for c in kept], name="modified_example"
    )


# each generator kind: whether its spec needs n, and the class it builds
GENERATOR_KINDS = {
    "thresholds": (True, lambda spec: thresholds_class(spec.n)),
    "points": (True, lambda spec: point_functions_class(spec.n)),
    "random_tree": (True, lambda spec: random_tree_class(
        spec.n, spec.max_children, spec.concept_rate, spec.seed)),
    "example": (False, lambda spec: example_class()),
    "modified_example": (False, lambda spec: modified_example_class()),
}


@lru_cache
def generate_class(spec: GeneratorSpec) -> ConceptClass:
    """Materialize a generator recipe.

    The last 128 results are memoised: specs are frozen and classes
    immutable, so one recipe gives one class object.
    """
    return GENERATOR_KINDS[spec.kind][1](spec)


def sample_dataset(
    cls: ConceptClass,
    concept: Concept,
    dist: Distribution,
    n: int,
    rng: np.random.Generator,
) -> Dataset:
    """Draw ``n`` i.i.d. points from ``dist`` labeled by a member concept.

    Points are drawn by inversion: each uniform ``u`` from
    ``rng.random`` picks point ``count(cdf <= u)``, with ``cdf`` the
    normalised cumulative sum of the weights. That is the law, the
    arithmetic and the random stream of ``rng.choice(k, size=n,
    p=dist.weights)``, so at a fixed seed the points, and the generator's
    state after the draw, equal that call's. The count is looked up in
    ``dist.inverse_cdf``'s guide table, and the few guesses it gets wrong
    are settled by binary search. Uniforms are drawn ``SAMPLE_CHUNK`` at a
    time, so the draw's working memory does not grow with ``n``. The
    points are stored in the narrowest unsigned dtype that holds
    ``domain_size - 1`` (uint16 up to 65,536 points); the labels are the
    concept's bool row at the points, which the dataset holds as a uint8 view.
    A non-integer or negative ``n`` raises ``ValueError`` before any draw.
    """
    n = _check_int("n", n, 0)
    i = cls.index_of(concept.ones)
    if i is None:
        raise ValueError("labeling concept must belong to class")
    if len(dist) != cls.domain_size:
        raise ValueError("distribution support must match the domain")
    padded, guide = dist.inverse_cdf
    cdf = padded[1:-1]
    k = len(cdf)
    points = np.empty(n, dtype=np.min_scalar_type(k - 1))
    for start in range(0, n, SAMPLE_CHUNK):
        u = rng.random(min(SAMPLE_CHUNK, n - start))
        idx = guide[(u * k).astype(np.intp)]
        # the guess is right iff cdf[idx - 1] <= u < cdf[idx]; padded[j] is cdf[j - 1]
        wrong = np.flatnonzero((padded[idx] > u) | (padded[idx + 1] <= u))
        idx[wrong] = cdf.searchsorted(u[wrong], side="right")
        points[start : start + len(u)] = idx
    return Dataset(points, cls.row(i)[points])
