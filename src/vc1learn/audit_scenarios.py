"""Ready-made neighboring-dataset scenarios for the privacy auditor.

Each builder returns ``(mechanism, data_a, data_b, claimed)``: an opaque
randomized map from datasets to finite outcomes in :func:`dp_audit`'s
batched form, two datasets differing in one entry, and the budget the
mechanism is supposed to satisfy. The mechanisms of single primitives are
one-run functions lifted by :func:`repeated`, so their draws are those of
back-to-back calls; the learner scenarios run a batch of learner runs at
once. The randomized-response scenario has analytically known outcome
probabilities and calibrates the auditor itself.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Sequence

import numpy as np

from .concepts import ConceptClass, Dataset
from .generators import example_class
from .learners import LearnParams, LearnerContext, improper_learn_runs, prepare_context
from .mechanisms import (
    PrivacyParams,
    choosing_mechanism,
    exponential_mechanism,
    laplace_sample,
    private_median,
)
from .oracles import repeated

# (mechanism(data, rng, k) -> k outcomes, data_a, data_b, claimed budget)
AuditScenario = tuple[
    Callable[[Dataset, np.random.Generator, int], Sequence[Hashable]],
    Dataset,
    Dataset,
    PrivacyParams,
]


def randomized_response_scenario(epsilon: float = 1.0) -> AuditScenario:
    """Flip a single stored bit with probability 1 / (1 + e^eps)."""
    keep = math.exp(epsilon) / (1.0 + math.exp(epsilon))

    def mech(data: Dataset, rng: np.random.Generator) -> int:
        bit = int(data.labels[0])
        return bit if rng.random() < keep else 1 - bit

    d0 = Dataset.from_pairs([(0, 0)])
    d1 = Dataset.from_pairs([(0, 1)])
    return repeated(mech), d0, d1, PrivacyParams(epsilon, 0.0)


def laplace_scenario(epsilon: float = 1.0) -> AuditScenario:
    """Noisy count of 1-labels; sensitivity 1, scale 1/eps."""

    def mech(data: Dataset, rng: np.random.Generator) -> float:
        return float(data.labels.sum()) + laplace_sample(1.0 / epsilon, rng)

    base = [(i, i % 2) for i in range(10)]
    other = list(base)
    other[0] = (0, 1)
    return (
        repeated(mech),
        Dataset.from_pairs(base),
        Dataset.from_pairs(other),
        PrivacyParams(epsilon, 0.0),
    )


def exponential_mechanism_scenario(epsilon: float = 1.0) -> AuditScenario:
    """Select among four values scored by their multiplicity in the data."""

    def mech(data: Dataset, rng: np.random.Generator) -> int:
        cands = [
            (v, float((data.points == v).sum())) for v in range(4)
        ]
        return int(exponential_mechanism(cands, 1.0, epsilon, rng))

    base = [(i % 4, 0) for i in range(8)]
    other = list(base)
    other[0] = (1, 0)
    return (
        repeated(mech),
        Dataset.from_pairs(base),
        Dataset.from_pairs(other),
        PrivacyParams(epsilon, 0.0),
    )


def choosing_scenario(epsilon: float = 1.0, delta: float = 1e-6) -> AuditScenario:
    """Bounded-quality selection with multiplicity scores (1-bounded), beta 0.1."""

    def mech(data: Dataset, rng: np.random.Generator) -> int | None:
        scores = {
            v: int((data.points == v).sum()) for v in range(4)
        }
        out = choosing_mechanism(scores, 1, len(data), PrivacyParams(epsilon, delta), 0.1, rng)
        return None if out is None else int(out)

    base = [(0, 0)] * 30 + [(1, 0)] * 3
    other = list(base)
    other[-1] = (2, 0)
    return (
        repeated(mech),
        Dataset.from_pairs(base),
        Dataset.from_pairs(other),
        PrivacyParams(epsilon, delta),
    )


def median_scenario(epsilon: float = 1.0) -> AuditScenario:
    """Private median of twenty small integers; the mechanism is pure DP."""

    def mech(data: Dataset, rng: np.random.Generator) -> int:
        return private_median(
            [int(p) for p in data.points],
            domain_max=8,
            alpha=1.0 / 3.0,
            privacy=PrivacyParams(epsilon, 0.0),
            beta=0.1,
            rng=rng,
        )

    base = [(3, 0)] * 10 + [(5, 0)] * 10
    other = list(base)
    other[0] = (8, 0)
    return (
        repeated(mech),
        Dataset.from_pairs(base),
        Dataset.from_pairs(other),
        PrivacyParams(epsilon, 0.0),
    )


def improper_learner_scenario(
    epsilon: float = 1.0,
    delta: float = 1e-5,
    n: int = 30,
    cls: ConceptClass | None = None,
    context: LearnerContext | None = None,
) -> AuditScenario:
    """The whole improper pipeline on a tiny instance; claimed (2 eps, 2 delta).

    The learner runs with alpha 0.2 and beta 0.1 on ``cls``, the example
    class by default. The two datasets are realizable labelings of ``n``
    examples differing in one example. Outcomes are the output hypothesis
    1-sets, a finite space. The mechanism hands each batch of ``k`` trials
    to :func:`improper_learn_runs` as ``k`` runs, so its draws are laid
    out as that function lays them out, not as ``k`` separate calls.
    """
    cls = cls if cls is not None else example_class()
    ctx = context if context is not None else prepare_context(cls)
    params = LearnParams(alpha=0.2, beta=0.1, privacy=PrivacyParams(epsilon, delta))

    def mech(data: Dataset, rng: np.random.Generator, k: int) -> list[frozenset[int]]:
        traces = improper_learn_runs(cls, data, params, rng, k, context=ctx)
        return [trace.hypothesis.ones for trace in traces]

    target = cls.concepts[-2]
    pairs = [(i % cls.domain_size, target(i % cls.domain_size)) for i in range(n)]
    other = list(pairs)
    swap = (pairs[0][0] + 1) % cls.domain_size
    other[0] = (swap, target(swap))  # both sides stay realizable by the target
    return (
        mech,
        Dataset.from_pairs(pairs),
        Dataset.from_pairs(other),
        PrivacyParams(2.0 * epsilon, 2.0 * delta),
    )


def unrealizable_neighbour_scenario(
    epsilon: float = 1.0, delta: float = 1e-5
) -> AuditScenario:
    """The improper pipeline next to an unrealizable neighbour; claimed (2 eps, 2 delta).

    The realizable sample of :func:`improper_learner_scenario` on the
    example class, with n = 2,359 examples, and the same sample with the
    first example's label flipped. As n is at least the domain size, the
    flipped point also appears with its true label, so no concept realizes
    the neighbour; privacy must hold there too. n is seven times the
    subset count of the example class's budget (t = 337), so subsets hold
    about seven examples and the one holding the flipped example is
    usually inconsistent: the learner's fallback summary for such subsets
    is what this neighbour exercises.
    """
    mech, data, _, claimed = improper_learner_scenario(epsilon, delta, n=2359)
    flipped = data.labels.copy()
    flipped[0] ^= 1
    return mech, data, Dataset(data.points, flipped), claimed
