"""Ready-made neighboring-dataset scenarios for the privacy auditor.

Each builder returns ``(mechanism, data_a, data_b, claimed)``: an opaque
randomized map from datasets to finite outcomes in :func:`dp_audit`'s
batched form, two datasets differing in one entry, and the budget the
mechanism is supposed to satisfy. The mechanisms of single primitives run
a batch of ``k`` trials on the primitives' row forms, with the draws of
``k`` back-to-back calls of the one-run primitive; the learner scenarios
run a batch of learner runs at once. The randomized-response scenario has
analytically known outcome probabilities and calibrates the auditor itself.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Sequence

import numpy as np

from .concepts import ConceptClass, Dataset
from .generators import example_class
from .learners import LearnParams, LearnerContext, _checked_context, _codes, _hypotheses
from .learners import _improper_runs
from .mechanisms import PrivacyParams, _choosing_rows, _laplace, _median_rows, _softmax_rows

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

    def mech(data: Dataset, rng: np.random.Generator, k: int) -> list[int]:
        bit = int(data.labels[0])
        return np.where(rng.random(k) < keep, bit, 1 - bit).tolist()

    d0 = Dataset.from_pairs([(0, 0)])
    d1 = Dataset.from_pairs([(0, 1)])
    return mech, d0, d1, PrivacyParams(epsilon, 0.0)


def laplace_scenario(epsilon: float = 1.0) -> AuditScenario:
    """Noisy count of 1-labels; sensitivity 1, scale 1/eps, drawn as ``laplace_sample``."""

    def mech(data: Dataset, rng: np.random.Generator, k: int) -> list[float]:
        count = float(data.labels.sum())
        return [count + _laplace(u, 1.0 / epsilon) for u in rng.random(k).tolist()]

    base = [(i, i % 2) for i in range(10)]
    other = list(base)
    other[0] = (0, 1)
    return (
        mech,
        Dataset.from_pairs(base),
        Dataset.from_pairs(other),
        PrivacyParams(epsilon, 0.0),
    )


def exponential_mechanism_scenario(epsilon: float = 1.0) -> AuditScenario:
    """Select among four values scored by their multiplicity, as ``exponential_mechanism``."""

    def mech(data: Dataset, rng: np.random.Generator, k: int) -> list[int]:
        scores = np.array([float((data.points == v).sum()) for v in range(4)])
        return _softmax_rows(np.tile(epsilon * scores / 2.0, (k, 1)), rng).tolist()

    base = [(i % 4, 0) for i in range(8)]
    other = list(base)
    other[0] = (1, 0)
    return (
        mech,
        Dataset.from_pairs(base),
        Dataset.from_pairs(other),
        PrivacyParams(epsilon, 0.0),
    )


def choosing_scenario(epsilon: float = 1.0, delta: float = 1e-6) -> AuditScenario:
    """``choosing_mechanism`` over 0 to 3 scored by multiplicity (1-bounded), beta 0.1."""

    def mech(data: Dataset, rng: np.random.Generator, k: int) -> list[int | None]:
        scores = np.array([[int((data.points == v).sum()) for v in range(4)]])
        privacy = PrivacyParams(epsilon, delta)
        picks = _choosing_rows(np.repeat(scores, k, axis=0), 1, len(data), privacy, 0.1, rng)
        return [None if i < 0 else i for i in picks]

    base = [(0, 0)] * 30 + [(1, 0)] * 3
    other = list(base)
    other[-1] = (2, 0)
    return (
        mech,
        Dataset.from_pairs(base),
        Dataset.from_pairs(other),
        PrivacyParams(epsilon, delta),
    )


def median_scenario(epsilon: float = 1.0) -> AuditScenario:
    """``private_median`` of twenty integers in [0, 8]; the mechanism is pure DP."""

    def mech(data: Dataset, rng: np.random.Generator, k: int) -> list[int]:
        values = np.tile(data.points.astype(np.int64), (k, 1))
        return _median_rows(values, 8, epsilon, rng).tolist()

    base = [(3, 0)] * 10 + [(5, 0)] * 10
    other = list(base)
    other[0] = (8, 0)
    return (
        mech,
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
    1-sets, a finite space. The mechanism runs each batch of ``k`` trials
    as the ``k`` runs of :func:`improper_learn_runs`, with its draws and
    its hypotheses, but reads only the runs' chosen points and lifts each
    distinct one once, building no traces. The parameters are checked
    when the scenario is built.
    """
    cls = cls if cls is not None else example_class()
    params = LearnParams(alpha=0.2, beta=0.1, privacy=PrivacyParams(epsilon, delta))
    ctx = _checked_context(cls, params, context)

    def mech(data: Dataset, rng: np.random.Generator, k: int) -> list[frozenset[int]]:
        *_, picks = _improper_runs(ctx, _codes(ctx, data), params, rng, k)
        return [h.ones for h in _hypotheses(ctx, picks)]

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
