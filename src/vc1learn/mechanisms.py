"""Differential-privacy primitives.

Laplace noise, the exponential mechanism, a bounded-quality selection
mechanism with an abstain outcome, a private median over a finite
ordered domain, and composition accounting. Mechanisms are pure
given their random stream; concurrent calls need distinct streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from .concepts import _all_integers, _check_fields, _check_int

# the gate of choosing_mechanism: noise scale and threshold factor, times 1 / eps
GATE_NOISE_SCALE = 4.0
GATE_THRESHOLD_SCALE = 4.0


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) privacy budget.

    Zero epsilon is allowed so that composition arithmetic can express a
    free stage; mechanisms that actually spend budget require it positive.
    Both are checked and stored as floats by ``concepts._check_fields``.
    """

    epsilon: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        _check_fields(self)
        if not self.epsilon >= 0:  # false for NaN too
            raise ValueError("epsilon must be nonnegative")
        if not 0 <= self.delta < 1:
            raise ValueError("delta must be in [0, 1)")


def laplace_sample(scale: float, rng: np.random.Generator) -> float:
    """One draw from the Laplace density ``exp(-|x|/b) / 2b``.

    :func:`_laplace` at a single uniform draw, so a fixed stream position
    always yields the same noise. A scale that is not positive and finite
    raises ``ValueError`` before the draw.
    """
    if not 0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    return _laplace(rng.random(), scale)


def _laplace(u: float, scale: float) -> float:
    """The Laplace inverse CDF at uniform ``u``, in scalar ``math``
    arithmetic: numpy's ``log1p`` differs from ``math.log1p`` in the last
    ulp on some inputs, so all noise goes through this one function."""
    w = max(2.0 * u - 1.0, -1.0 + 2.0 ** -53)
    return -scale * math.copysign(1.0, w) * math.log1p(-abs(w))


def exponential_mechanism(
    candidates: Sequence[tuple[Hashable, float]],
    sensitivity: float,
    epsilon: float,
    rng: np.random.Generator,
) -> Hashable:
    """Select an id with probability proportional to exp(eps * score / (2 * sens)).

    Scores are shifted by their maximum before exponentiation, so scores as
    large as the dataset never overflow. A NaN or infinite score, an
    infinite epsilon, or an ``epsilon * score / (2 * sens)`` that overflows
    raises ``ValueError`` before the draw.
    """
    if not candidates:
        raise ValueError("empty candidate list")
    if not sensitivity > 0:
        raise ValueError("sensitivity must be positive")
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be nonnegative and finite")
    ids = [c[0] for c in candidates]
    scores = np.array([[c[1] for c in candidates]], dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite, not NaN or infinite")
    with np.errstate(all="ignore"):
        if not np.isfinite(epsilon * scores / (2.0 * sensitivity)).all():
            raise ValueError("epsilon * score / (2 * sensitivity) overflows")
    return ids[int(_em_rows(scores, sensitivity, epsilon, rng.random(1))[0])]


def _em_rows(
    scores: np.ndarray, sensitivity: float, epsilon: float, u: np.ndarray
) -> np.ndarray:
    """The exponential mechanism on each row of ``scores``, at uniforms ``u``.

    Row ``r``'s logits are ``epsilon * score / (2 * sensitivity)``, and its
    index is ``u[r]`` searched in the row's normalised CDF: per row, the
    arithmetic of ``rng.choice(k, p=normalised weights)`` at the uniform
    it would draw, so ``u = rng.random(rows)`` draws what as many
    ``rng.random()`` calls draw. A row's sum is numpy's pairwise sum over
    that row, as for a 1-d array.
    """
    cdf = _softmax_cdf(epsilon * scores / (2.0 * sensitivity))
    # a CDF is nondecreasing, so this count is searchsorted(u, side="right")
    return np.add.reduce(cdf <= u[:, None], axis=1)


def _softmax_cdf(logits: np.ndarray) -> np.ndarray:
    """Each row's CDF as ``rng.choice`` computes it from the normalised weights.

    Raises ``ValueError``, as ``rng.choice`` does, on a row whose maximum
    is not finite: one with a NaN or +inf logit or only -inf ones.
    """
    # the ufuncs' own reduce and accumulate: what max, sum and cumsum
    # call, without their per-call overhead on short rows
    top = np.maximum.reduce(logits, axis=1, keepdims=True)
    if not np.isfinite(top).all():
        raise ValueError("probabilities contain NaN")
    weights = np.exp(logits - top)
    cdf = np.add.accumulate(weights / np.add.reduce(weights, axis=1, keepdims=True), axis=1)
    cdf /= cdf[:, -1:]
    return cdf


def choosing_mechanism(
    scores: Mapping[Hashable, int],
    k: int,
    n: int,
    privacy: PrivacyParams,
    beta: float,
    rng: np.random.Generator,
) -> Hashable | None:
    """Privately select a high-scoring solution of a k-bounded quality, or abstain.

    ``scores`` maps each solution to its nonnegative score on a dataset of
    ``n`` elements. The quality is k-bounded when adding one element to
    the dataset raises at most ``k`` scores, each by exactly 1; the
    (eps, delta) budget holds for such add-one neighbours.

    Gate-then-choose: the maximum score plus Laplace noise of scale
    ``GATE_NOISE_SCALE / eps`` is tested against the threshold
    ``(GATE_THRESHOLD_SCALE / eps) * ln(4 k n / (beta eps delta))``; below
    it the mechanism abstains (returns ``None``), otherwise half the budget
    runs the exponential mechanism over the solutions with nonzero score
    (at most k*n of them). With probability at least 1 - beta the returned
    solution scores within :func:`choosing_utility_bound` of the maximum.
    Raises ``ValueError`` before any draw unless k >= 1 and n >= 0 are
    integers, every score is nonnegative and finite, eps is in (0, 2), delta > 0 and beta
    is in (0, 1).
    """
    k, n = _check_int("k", k, 1), _check_int("n", n, 0)
    # NaN would open the gate, and +inf fail the selection after the draws
    if any(not 0 <= v < math.inf for v in scores.values()):
        raise ValueError("scores must be nonnegative and finite")
    row = np.array([list(scores.values())])  # shape (1, m); not cast, so floats stay floats
    (i,) = _choosing_rows(row, k, n, privacy, beta, rng)
    return None if i < 0 else list(scores)[i]


def _check_gate(privacy: PrivacyParams, beta: float) -> None:
    """The selection's rule: eps in (0, 2), delta > 0, beta in (0, 1), beta * eps * delta > 0."""
    if not 0 < privacy.epsilon < 2:
        raise ValueError("epsilon must be in (0, 2)")
    if privacy.delta <= 0:
        raise ValueError("delta must be positive")
    if not 0 < beta < 1:
        raise ValueError("beta must be in (0, 1)")
    if beta * privacy.epsilon * privacy.delta == 0:
        raise ValueError("beta * epsilon * delta underflows")


def _gate_log(k: int, n: int, privacy: PrivacyParams, beta: float) -> float:
    """``ln(4 k max(n, 1) / (beta eps delta))``, the log term of the gate's
    threshold and of :func:`choosing_utility_bound`."""
    return math.log(4.0 * k * max(n, 1) / (beta * privacy.epsilon * privacy.delta))


def _choosing_rows(
    scores: np.ndarray,
    k: int,
    n: int,
    privacy: PrivacyParams,
    beta: float,
    rng: np.random.Generator,
) -> list[int]:
    """:func:`choosing_mechanism` on each row of nonnegative ``scores``, in row order.

    ``scores`` is a 2-d array. The parameters are checked and the
    threshold computed once. Each row reads its gate uniform and, when
    the gate passes with a best score of at least 1, its selection
    uniform from a buffer, which one ``rng.random(m)`` fills for the
    ``m`` rows still to gate: the stream is consumed as by one
    :func:`choosing_mechanism` call per row. Returns the index of each
    row's chosen solution, or -1 when it abstained.
    """
    _check_gate(privacy, beta)
    eps = privacy.epsilon
    scale = GATE_NOISE_SCALE / eps
    threshold = (GATE_THRESHOLD_SCALE / eps) * _gate_log(k, n, privacy, beta)
    best = np.maximum.reduce(scores, axis=1, initial=0).tolist()
    picks = [-1] * len(best)
    buffer: list[float] = []  # the uniforms still to read, last first

    def uniform(rows_left: int) -> float:
        if not buffer:
            buffer.extend(reversed(rng.random(rows_left).tolist()))
        return buffer.pop()

    for r, top in enumerate(best):
        gate = uniform(len(best) - r)
        if top < 1 or top + _laplace(gate, scale) < threshold:
            continue
        # exponential_mechanism at eps / 2 over the positive scores
        active = np.flatnonzero(scores[r] >= 1)
        u = np.array([uniform(len(best) - r)])
        picks[r] = int(active[_em_rows(scores[r, active][None], 1.0, eps / 2.0, u)[0]])
    return picks


def choosing_utility_bound(k: int, n: int, privacy: PrivacyParams, beta: float) -> float:
    """``(16 / eps) * ln(4 k max(n, 1) / (beta eps delta))``: the score gap
    :func:`choosing_mechanism` guarantees with probability 1 - beta, for any
    eps > 0. A bound that is not finite raises ``ValueError``."""
    if k < 1 or privacy.epsilon <= 0 or privacy.delta <= 0 or not 0 < beta < 1:
        raise ValueError("the bound needs k >= 1, eps > 0, delta > 0 and beta in (0, 1)")
    try:
        bound = (16.0 / privacy.epsilon) * _gate_log(k, n, privacy, beta)
    except (OverflowError, ZeroDivisionError):
        bound = math.inf
    if not math.isfinite(bound):
        raise ValueError("the bound or its log term overflows at these parameters")
    return bound


def private_median(
    values: Sequence[int],
    domain_max: int,
    alpha: float,
    privacy: PrivacyParams,
    beta: float,
    rng: np.random.Generator,
) -> int:
    """A private alpha-median of integer values in [0, domain_max].

    The exponential mechanism over [0, domain_max] with rank utility
    ``min(#{v <= m}, #{v >= m})``, which has sensitivity 1 and peaks at true
    medians, giving a pure epsilon-DP mechanism. With probability at least
    1 - beta the output m has at least a (1/2 - alpha) fraction of the
    values on each side, provided the input is at least
    :func:`required_median_size` large; ``beta`` enters only through that
    requirement, not the sampling itself. Bad input raises ``ValueError``
    before the draw.
    """
    values = list(values)
    if not values:
        raise ValueError("empty values")
    _check_median(alpha, privacy)
    if not _all_integers(values):
        raise ValueError("values must be integers")
    if min(values) < 0 or max(values) > domain_max:
        raise ValueError("values outside [0, domain_max]")
    if not math.isfinite(privacy.epsilon * len(values)):  # the largest logit
        raise ValueError("epsilon times the value count overflows")
    rows = np.asarray([values], dtype=np.int64)
    return int(_median_rows(rows, domain_max, privacy.epsilon, rng)[0])


def _check_median(alpha: float, privacy: PrivacyParams) -> None:
    """The median's parameter rule: eps positive and finite, alpha in (0, 1/2]."""
    if not 0 < privacy.epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if not 0 < alpha <= 0.5:
        raise ValueError("alpha must be in (0, 1/2]")


def _median_rows(
    values: np.ndarray, domain_max: int, epsilon: float, rng: np.random.Generator
) -> np.ndarray:
    """:func:`private_median`'s draw for each row of ``values``, unchecked.

    Row ``r`` holds integers in [0, domain_max]; its rank utilities come
    from one count per domain value, and the draws from one
    ``rng.random(rows)``, so a single row draws exactly as one
    :func:`private_median` call does.
    """
    rows, m = values.shape
    width = domain_max + 1
    offset = np.arange(0, rows * width, width)[:, None]
    counts = np.bincount((values + offset).ravel(), minlength=rows * width)
    counts = counts.reshape(rows, width)
    n_le = np.add.accumulate(counts, axis=1)
    utility = np.minimum(n_le, m - n_le + counts)  # #{v <= z} and #{v >= z}
    return _em_rows(utility, 1.0, epsilon, rng.random(rows))


def required_median_size(
    domain_max: int, alpha: float, beta: float, privacy: PrivacyParams
) -> int:
    """Sufficient input size for :func:`private_median`'s guarantee.

    The rank-utility exponential mechanism misses an alpha-median with
    probability at most (domain_max + 1) * exp(-eps * alpha * n / 2), so
    ``n >= (2 / (alpha * eps)) * ln((domain_max + 1) / beta)`` suffices.
    Grows additively by O(1 / (alpha * eps)) per doubling of the domain.
    """
    domain_max = _check_int("domain_max", domain_max, 0)
    _check_median(alpha, privacy)
    if not 0 < beta < 1:
        raise ValueError("beta must be in (0, 1)")
    try:
        return math.ceil(2.0 / (alpha * privacy.epsilon) * math.log((domain_max + 1) / beta))
    except (OverflowError, ZeroDivisionError):
        raise ValueError("the median's sample size overflows at these parameters") from None


def alpha_median_set(values: Sequence[int], alpha: float) -> set[int]:
    """Brute-force reference: all integer alpha-medians within the value range."""
    vals = sorted(values)
    n = len(vals)
    need = (0.5 - alpha) * n
    out = set()
    for m in range(min(vals), max(vals) + 1):
        n_le = sum(1 for v in vals if v <= m)
        n_ge = sum(1 for v in vals if v >= m)
        if min(n_le, n_ge) >= need:
            out.add(m)
    return out


def advanced_composition(
    epsilon_step: float, delta_step: float, k: int, delta_prime: float
) -> PrivacyParams:
    """Budget of k adaptive runs of an (eps, delta)-DP mechanism.

    Returns ``(min(k eps, sqrt(2 k ln(1/delta')) eps + k eps (e^eps - 1)),
    k delta + delta')``: the smaller of basic composition and the full
    Dwork-Rothblum-Vadhan bound, each a valid budget. The often-quoted
    ``sqrt(2 k ln(1/delta')) eps`` drops the second term and can fall
    below the exact optimum (30.3 against 37.9 at eps 1, k 40,
    delta' 1e-5), so it is not used.
    """
    k = _check_int("k", k, 0)
    if not (epsilon_step >= 0 and delta_step >= 0 and delta_prime > 0):
        raise ValueError("composition parameters must be positive")
    eps = float(k * epsilon_step)
    if epsilon_step < math.log(2.0):  # from ln 2 on, e^eps - 1 >= 1 and basic wins
        drv = math.sqrt(2.0 * k * math.log(1.0 / delta_prime)) * epsilon_step
        eps = min(eps, drv + k * epsilon_step * math.expm1(epsilon_step))
    return PrivacyParams(epsilon=eps, delta=k * delta_step + delta_prime)
