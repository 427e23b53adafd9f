"""Brute-force ground truth: combinatorial dimensions, exact errors, auditing.

Everything here is deliberately independent of the main code paths it
checks: dimensions by exhaustive enumeration, deterministic points by the
literal definition, and privacy by frequency estimation over repeated
mechanism runs. All oracles are exponential by design and guarded to desk
scale.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Hashable, Sequence

import numpy as np

from .concepts import Concept, ConceptClass, Dataset, Hypothesis, NotRealizableError, _check_int

VC_SCALE_LIMIT = 24
TD_SCALE_LIMIT = 16
# dp_audit: joint confidence of its event bounds, quantile bins for real
# outcomes, and the most trials it asks of the mechanism in one call
AUDIT_CONFIDENCE = 0.99
AUDIT_BINS = 64
AUDIT_BATCH = 256


@dataclass(frozen=True)
class DimensionReport:
    """Exact combinatorial dimensions of one class."""

    vc: int
    littlestone: int
    thresholds: int


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability distribution over domain points.

    ``weights`` is held as a read-only copy, so that the cached
    :attr:`inverse_cdf` always matches it: later writes into the caller's
    array, which stays writeable, change neither sampling nor errors.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=np.float64)
        if w.ndim != 1 or len(w) == 0:
            raise ValueError("weights must be a non-empty 1-d array")
        if w.min() < 0:
            raise ValueError("weights must be nonnegative")
        if not abs(w.sum() - 1.0) <= 1e-12:  # NaN fails here too
            raise ValueError("weights must sum to 1 within 1e-12")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        n = _check_int("n", n, 1)
        return cls(np.full(n, 1.0 / n))

    def __len__(self) -> int:
        return len(self.weights)

    @cached_property
    def inverse_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """``rng.choice``'s CDF between sentinels, and a guide table into it.

        The first array is ``[-inf, cdf..., inf]`` with ``cdf =
        cumsum(weights) / its last entry``, computed as ``rng.choice``
        computes it. The second, over ``k`` points, is ``guide[b] =
        count(cdf <= b / k)`` for ``b`` in ``0..k`` (Chen and Asau, 1974).
        """
        cdf = self.weights.cumsum()
        cdf /= cdf[-1]
        k = len(cdf)
        guide = cdf.searchsorted(np.arange(k + 1) / k, side="right")
        padded = np.concatenate(([-np.inf], cdf, [np.inf]))
        padded.flags.writeable = False
        guide.flags.writeable = False
        return padded, guide


def _guard(cls: ConceptClass, limit: int) -> None:
    if cls.domain_size > limit:
        raise ValueError("oracle scale exceeded")


def _masks(cls: ConceptClass) -> frozenset[int]:
    """The distinct concepts of ``cls`` as ints, bit ``p`` set where the concept holds ``p``."""
    return frozenset(sum(1 << p for p in c.ones) for c in cls.concepts)


def vc_dimension(cls: ConceptClass) -> int:
    """Exact VC dimension by subset enumeration.

    Scans subset sizes upward and stops at the first size with no
    shattered subset: no subset whose distinct projections ``mask &
    subset`` over the concepts number ``2**size``.
    """
    _guard(cls, VC_SCALE_LIMIT)
    masks = _masks(cls)
    n = cls.domain_size
    vc = 0
    # shattering k points takes 2**k distinct concepts
    for k in range(1, min(n, len(masks).bit_length() - 1) + 1):
        subsets = (sum(1 << p for p in s) for s in itertools.combinations(range(n), k))
        if not any(len({m & s for m in masks}) == 1 << k for s in subsets):
            break
        vc = k
    return vc


def littlestone_dimension(cls: ConceptClass) -> int:
    """Exact mistake-bound dimension by memoized label-restriction recursion.

    Zero for classes of at most one concept; otherwise one plus the best
    min over the two label restrictions of a splitting point.
    """
    _guard(cls, VC_SCALE_LIMIT)
    bits = [1 << x for x in range(cls.domain_size)]

    @cache
    def ldim(concepts: frozenset[int]) -> int:
        best = 0
        for bit in bits:
            with_one = frozenset(c for c in concepts if c & bit)
            if with_one and len(with_one) < len(concepts):
                best = max(best, 1 + min(ldim(concepts - with_one), ldim(with_one)))
        return best

    return ldim(_masks(cls))


def thresholds_dimension(cls: ConceptClass) -> int:
    """Length of the longest threshold pattern, by memoised backtracking search.

    Searches for points x_1..x_k and concepts c_1..c_k with
    ``c_i(x_j) = 1`` exactly when ``j >= i``, choosing c_1, x_1, c_2,
    x_2, ... in turn. The memo is exact: what is left to choose depends
    only on two masks, the points chosen so far, which every later
    concept must avoid, and the points every chosen concept holds, where
    every later point must lie. So each pair of masks is searched once.
    """
    _guard(cls, TD_SCALE_LIMIT)
    concept_masks = sorted(_masks(cls), reverse=True)

    @cache
    def longest(chosen: int, allowed: int) -> int:
        best = 0
        for cmask in concept_masks:
            if cmask & chosen:
                continue
            frontier = allowed & cmask
            while frontier:
                xbit = frontier & -frontier
                frontier ^= xbit
                best = max(best, 1 + longest(chosen | xbit, allowed & cmask))
        return best

    return longest(0, (1 << cls.domain_size) - 1)


def floor_log2(value: int) -> int:
    """Floor of log2 for the dimension sandwich; 0 by convention at 0."""
    return value.bit_length() - 1 if value >= 1 else 0


def dimension_report(cls: ConceptClass) -> DimensionReport:
    return DimensionReport(
        vc=vc_dimension(cls),
        littlestone=littlestone_dimension(cls),
        thresholds=thresholds_dimension(cls),
    )


def error_on_distribution(
    hypothesis: Hypothesis | Concept, concept: Concept, dist: Distribution
) -> float:
    """Probability mass of the symmetric difference of the two 1-sets.

    Raises ``ValueError`` on a point of either 1-set that lies outside the
    support, even where both sets hold it; both classes hold only integer
    points, by their construction check.
    """
    ones = hypothesis.ones | concept.ones
    if ones and (min(ones) < 0 or max(ones) >= len(dist.weights)):
        raise ValueError("point outside distribution support")
    diff = hypothesis.ones ^ concept.ones
    if not diff:
        return 0.0
    return float(dist.weights[np.fromiter(diff, dtype=np.int64)].sum())


def deterministic_oracle(class_f: ConceptClass, dataset: Dataset) -> frozenset[int]:
    """Literal definition: intersect the 1-sets of all consistent concepts."""
    pairs = dataset.pairs()
    consistent = [
        c
        for c in class_f.concepts
        if all(c(x) == y for x, y in pairs)
    ]
    if not consistent:
        raise NotRealizableError("dataset not realizable by class")
    forced = set(consistent[0].ones)
    for c in consistent[1:]:
        forced &= c.ones
    return frozenset(forced)


def optimal_composition(epsilon_step: float, k: int, delta_prime: float) -> float:
    """The exact optimal epsilon of k adaptive eps-DP steps at ``delta'``.

    That is the smallest eps' for which every k-fold adaptive composition
    of eps-DP mechanisms is (eps', delta')-DP. By Kairouz-Oh-Viswanath
    (2015) the worst case is k-fold randomized response, whose outcome
    with ``l`` truthful answers has probability ``P(l)``, Binomial(k,
    e^eps / (1 + e^eps)), and privacy loss ``(2 l - k) eps``; so
    (eps', delta') holds iff
    ``sum_l P(l) (1 - e^(eps' - (2 l - k) eps))_+ <= delta'``, the
    homogeneous case of Murtagh-Vadhan (2016). That sum falls as eps'
    grows; bisection returns the smallest eps' it found to satisfy it,
    which is never below the optimum by more than rounding.
    """
    # false for NaN too, on which the bisection below would never end
    k = _check_int("k", k, 0)
    if not (epsilon_step >= 0 and delta_prime > 0):
        raise ValueError("composition parameters must be positive")
    if k == 0 or epsilon_step == 0:
        return 0.0
    # scipy.stats is imported here, not at module level: the import takes
    # about a second, longer than the rest of `import vc1learn`
    from scipy.stats import binom as binom_dist

    truthful = np.arange(k + 1)
    pmf = binom_dist.pmf(truthful, k, 1.0 / (1.0 + math.exp(-epsilon_step)))
    loss = (2 * truthful - k) * epsilon_step

    def delta_at(eps: float) -> float:
        return float(np.sum(pmf * -np.expm1(np.minimum(eps - loss, 0.0))))

    lo, hi = 0.0, k * epsilon_step
    if delta_at(lo) <= delta_prime:
        return lo
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if delta_at(mid) <= delta_prime:
            hi = mid
        else:
            lo = mid


def _clopper_pearson(successes: int, trials: int, tail: float, upper: bool) -> float:
    """One bound of the two-sided Clopper-Pearson interval at per-bound tail
    probability ``tail``: the lower one, or with ``upper`` the upper one.

    The bounds are Beta quantiles, taken with ``betaincinv``, the inverse
    that ``scipy.stats.beta.ppf`` calls, without importing scipy.stats.
    """
    from scipy.special import betaincinv

    if upper:
        if successes == trials:
            return 1.0
        return float(betaincinv(successes + 1, trials - successes, 1.0 - tail))
    if successes == 0:
        return 0.0
    return float(betaincinv(successes, trials - successes + 1, tail))


def _direction_bound(
    counts_a: Counter,
    counts_b: Counter,
    trials: int,
    delta: float,
    outcomes: Sequence[Hashable],
    tail: float,
) -> float:
    """Best confident lower bound on the privacy loss from A toward B.

    A prefix event with ``cum_a - cum_b <= delta * trials`` is skipped
    before either Clopper-Pearson bound is taken: the lower bound never
    exceeds ``cum_a / trials`` and the upper bound is never below
    ``cum_b / trials``, so its ``(lower - delta) / upper`` is at most 1
    and its log-ratio at most 0, which :func:`dp_audit` clamps to 0
    anyway. Skipped events still count in ``tail``'s Bonferroni
    correction, so the skip changes no estimate.
    """
    ranked = sorted(
        outcomes,
        key=lambda o: (counts_a[o] + 1e-9) / (counts_b[o] + 1e-9),
        reverse=True,
    )
    best = -math.inf
    cum_a = 0
    cum_b = 0
    for o in ranked:
        cum_a += counts_a[o]
        cum_b += counts_b[o]
        if cum_a - cum_b <= delta * trials:
            continue
        numer = _clopper_pearson(cum_a, trials, tail, upper=False) - delta
        if numer <= 0:
            continue
        q_hi = _clopper_pearson(cum_b, trials, tail, upper=True)
        best = max(best, math.log(numer / max(q_hi, 1e-300)))
    return best


def repeated(
    mechanism: Callable[[Dataset, np.random.Generator], Hashable],
) -> Callable[[Dataset, np.random.Generator, int], list[Hashable]]:
    """The batched form of a one-run mechanism: ``k`` calls in a row on one stream."""

    def batched(data: Dataset, rng: np.random.Generator, k: int) -> list[Hashable]:
        return [mechanism(data, rng) for _ in range(k)]

    return batched


def _audit_outcomes(mechanism, data: Dataset, rng: np.random.Generator, trials: int) -> list:
    """``trials`` outcomes on ``data``, at most :data:`AUDIT_BATCH` per call."""
    out: list = []
    for start in range(0, trials, AUDIT_BATCH):
        k = min(AUDIT_BATCH, trials - start)
        batch = list(mechanism(data, rng, k))  # an ndarray batch becomes a list
        if len(batch) != k:
            raise ValueError(f"mechanism returned {len(batch)} outcomes for {k} trials")
        out += batch
    return out


def dp_audit(
    mechanism: Callable[[Dataset, np.random.Generator, int], Sequence[Hashable]],
    data_a: Dataset,
    data_b: Dataset,
    trials: int,
    delta: float,
    rng: np.random.Generator,
) -> float:
    """Statistical lower bound on the privacy loss between two neighbors.

    Runs the mechanism ``trials`` times on each dataset, estimates outcome
    probabilities, and maximizes ``ln((P[A in E] - delta) / P[B in E])``
    over ratio-ordered prefix events in both directions, with
    Clopper-Pearson bounds at joint confidence ``AUDIT_CONFIDENCE``
    (Bonferroni-corrected across the tested events). The result refutes a
    claimed budget only when it exceeds the claimed epsilon; it can never
    certify privacy. Real-valued outcomes are discretized into
    ``AUDIT_BINS`` quantile bins first. Only an event whose count on one
    side exceeds the other's by more than ``delta * trials`` can raise
    the estimate, so only such events are bounded, and ``scipy.special``,
    where the bounds come from, is imported only when some event's gap
    exceeds that. An audit whose two sides give the same counts imports
    neither it nor ``scipy.stats``.

    The mechanism is batched: ``mechanism(data, rng, k)`` returns ``k``
    independent outcomes, a sequence or a 1-d array, and is asked for at
    most ``AUDIT_BATCH`` at a time, all on the stream spawned for that
    dataset. :func:`repeated` lifts a one-run ``mechanism(data, rng)``
    without changing its draws. A ``trials`` that is not an integer of at
    least 1 (a bool included) or a ``delta`` outside [0, 1) (NaN included)
    raises ``ValueError`` before any draw.
    """
    _check_int("trials", trials, 1)
    if not 0 <= delta < 1:  # false for NaN too
        raise ValueError("delta must be in [0, 1)")
    rng_a, rng_b = rng.spawn(2)
    out_a = _audit_outcomes(mechanism, data_a, rng_a, trials)
    out_b = _audit_outcomes(mechanism, data_b, rng_b, trials)

    if out_a and isinstance(out_a[0], (float, np.floating)):
        pooled = np.asarray(out_a + out_b, dtype=np.float64)
        edges = np.quantile(pooled, np.linspace(0.0, 1.0, AUDIT_BINS + 1)[1:-1])
        out_a = [int(v) for v in np.digitize(out_a, edges)]
        out_b = [int(v) for v in np.digitize(out_b, edges)]

    counts_a = Counter(out_a)
    counts_b = Counter(out_b)
    outcomes = sorted(set(counts_a) | set(counts_b), key=repr)
    # two directions, prefix events per outcome, two CP bounds per event
    tail = (1.0 - AUDIT_CONFIDENCE) / max(1, 4 * len(outcomes))
    best = max(
        _direction_bound(counts_a, counts_b, trials, delta, outcomes, tail),
        _direction_bound(counts_b, counts_a, trials, delta, outcomes, tail),
    )
    return max(0.0, best)
