"""Private PAC learners for VC-dimension-1 classes.

Two learners share a pipeline: represent the class relative to a member
concept, reduce it (:func:`prepare_context`, for any class) and read off
the order tree, and privately locate a node whose root path
back-transforms to an accurate hypothesis on the class's own domain.

* :func:`improper_learn` partitions the sample (see :func:`_deal`),
  summarizes each subset by its deepest forced point, takes a private
  median of those depths, and privately selects among the points at the
  median depth. Its output may fall outside the class. It is one run of
  the private batch core :func:`_improper_runs` (whose docstring gives
  the order of the draws), through which the audit scenarios replay it.
* :func:`proper_learn` draws its stage-2 examples as a uniform subset,
  runs the improper stage on the rest and, when the selected
  node's path is not realized by a class member, descends the pruned
  subtree with noisy weight tests and exponential mechanisms until a
  realized leaf is reached. The subtree and its weights are read off
  tour slices of the class tree, the weights from the stage-2 presence
  codes. Its output is always a class member.

Both see an example only as its presence code (:attr:`LearnerContext.tour_code`),
and both return full execution traces so that statistical tests can
inspect every intermediate quantity.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property, lru_cache

import numpy as np

from .concepts import (
    Concept,
    ConceptClass,
    Dataset,
    Hypothesis,
    _check_fields,
    _check_int,
    canonical_layout,
)
from .generators import SAMPLE_CHUNK
from .mechanisms import (
    PrivacyParams,
    _check_gate,
    _choosing_rows,
    _median_rows,
    advanced_composition,
    choosing_utility_bound,
    exponential_mechanism,
    laplace_sample,
    required_median_size,
)
from .tree import (
    ClassTree,
    SubTree,
    _check_in_tree,
    forced_nodes,
    make_subtree,
    node_stats,
    presence_codes,
    root_path,
    tree_from_matrix,
)


# the depth median's alpha: given enough subsets, at least 1/2 - 1/3 of
# the subset depths lie on each side of the private median's output
MEDIAN_ALPHA = 1.0 / 3.0


@dataclass(frozen=True)
class LearnParams:
    """Accuracy (alpha), confidence (beta), and per-mechanism privacy knobs.

    The sizing constants are fixed by the analysis, not by these values:
    the selection gate's 16, the depth median's :data:`MEDIAN_ALPHA` of
    1/3 and a unit factor on the second-stage size (see
    :func:`sample_budget`). ``concepts._check_fields`` checks the fields.
    """

    alpha: float
    beta: float
    privacy: PrivacyParams

    def __post_init__(self) -> None:
        _check_fields(self)
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if not 0 < self.beta < 1:
            raise ValueError("beta must be in (0, 1)")


@dataclass(frozen=True)
class SampleBudget:
    """Derived sample sizes: subset count, stage sizes, and loop bound."""

    t: int
    N1: int
    N2: int
    T: int
    per_subset: int


def uniform_convergence_size(alpha: float, beta: float) -> int:
    """Examples per subset so empirical alpha/10-agreement implies alpha accuracy.

    The classical uniform-convergence bound for a VC-dimension-1 class:
    ``(48 / alpha) * (10 * ln(48 e / alpha) + ln(5 / beta))``.
    """
    return math.ceil(
        (48.0 / alpha) * (10.0 * math.log(48.0 * math.e / alpha) + math.log(5.0 / beta))
    )


@lru_cache(typed=True)
def sample_budget(params: LearnParams, tree_depth_bound: int) -> SampleBudget:
    """Sizing for a class whose tree depth is at most ``tree_depth_bound``.

    The subset count ``t`` is the larger of the private-median requirement
    for a :data:`MEDIAN_ALPHA` (1/3) median on the depth domain and the
    selection gate requirement ``(16 / eps) * ln(4 t / (beta eps delta))``
    of :func:`choosing_utility_bound`, the latter solved by iterating the
    max to its fixed point. ``N1 = t * per_subset`` and
    ``N2 = (ln(1/alpha) + ln(1/beta)) / (alpha^2 eps)``. A size that
    overflows or is infinite raises ``ValueError``: the parameters are
    checked, so the sizing functions' own ``ValueError`` means one, as at
    delta 0, whose gate log is infinite. Results are memoised by argument
    type too, so that a bool or a float never reads an integer's entry.
    """
    tree_depth_bound = _check_int("tree_depth_bound", tree_depth_bound, 0)
    priv = params.privacy
    try:
        t_median = required_median_size(
            tree_depth_bound + 1, MEDIAN_ALPHA, params.beta, priv
        )
        t = max(t_median, 1)
        while True:
            t_next = max(t_median, math.ceil(choosing_utility_bound(1, t, priv, params.beta)))
            if t_next <= t:
                break
            t = t_next

        per_subset = uniform_convergence_size(params.alpha, params.beta)
        n2 = math.ceil(
            (math.log(1.0 / params.alpha) + math.log(1.0 / params.beta))
            / (params.alpha**2 * priv.epsilon)
        )
    except (OverflowError, ZeroDivisionError, ValueError):
        raise ValueError("the sample sizes overflow at these parameters") from None
    return SampleBudget(
        t=t,
        N1=t * per_subset,
        N2=n2,
        T=math.ceil(2.0 / params.alpha),
        per_subset=per_subset,
    )


@dataclass(frozen=True, eq=False)
class LearnerContext:
    """Precomputed representation shared by every run on one class.

    Holds the member concept used for relabeling, the point map from each
    class point to its representative (see :func:`prepare_context`), and
    the marked order tree on the class's own points, with per-point depths.
    Building it once and passing it to the learners amortizes the tree
    construction across repeated runs. The represented class's concepts
    are never built: the learners need only the tree and the point map.
    """

    base: ConceptClass
    f_index: int
    point_map: np.ndarray
    tree: ClassTree

    @cached_property
    def f(self) -> Concept:
        """The member concept, ``base.concepts[f_index]``."""
        return self.base.concepts[self.f_index]

    @cached_property
    def f_row(self) -> np.ndarray:
        row = self.base.row(self.f_index).view(np.uint8)
        row.flags.writeable = False
        return row

    @cached_property
    def abstained(self) -> Hypothesis:
        """The hypothesis of a run whose selection abstained: the root's."""
        return _back_transform(self, None)

    @property
    def depth_vec(self) -> np.ndarray:
        """``tree.depth``, under the name the benchmark workloads read."""
        return self.tree.depth

    @cached_property
    def tour_code(self) -> np.ndarray:
        """``tour_code[l, p]``: the presence code of input example ``(p, l)``,
        :func:`presence_codes` of ``point_map[p]`` with the relabeled label
        ``l ^ f_row[p]``."""
        flipped = np.stack([self.f_row, self.f_row ^ 1])
        c = presence_codes(self.tree, self.point_map, flipped)
        c.flags.writeable = False
        return c


def prepare_context(cls: ConceptClass, f_index: int = 0) -> LearnerContext:
    """Build the reusable learner context for any class.

    ``f_index`` picks the member concept, a row of ``cls``, that the class
    is represented against; the learners' guarantees do not depend on the
    choice. The class's packed rows are XORed with the member's packed row,
    the result is reduced by the rule of :func:`canonicalize`, so ``cls``
    need not be canonical, and the proper-flagged tree is read off the
    distinct rows and their layout; it raises ``ValueError`` at VC
    dimension 2 or more. No dense concept-by-point array is built on the
    way. The tree is on the class's own points: ``point_map`` sends each
    point to its representative, the lowest point with the same column.
    """
    f_index = _check_int("f_index", f_index, 0, len(cls) - 1)
    packed = cls.packed ^ cls.packed[f_index]
    rows, rep, count, first = canonical_layout(packed, cls.domain_size)
    rep.flags.writeable = False
    return LearnerContext(
        base=cls,
        f_index=f_index,
        point_map=rep,
        tree=tree_from_matrix(packed[rows], rep, count, first),
    )


def _jsonable(value):
    """Trace data as JSON: dataclass fields, frozensets sorted, tuples as lists."""
    if is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True, eq=False)
class ImproperTrace:
    """Everything the improper pipeline computed, for inspection and tests."""

    reference_concept: Concept
    reference_index: int
    subset_depths: tuple[int, ...]
    subset_deepest: tuple[int | None, ...]
    median_depth: int
    candidates: tuple[int, ...]
    scores: tuple[int, ...]
    chosen_point: int | None  # None when the selection abstained (root fallback)
    hypothesis: Hypothesis

    def to_json(self) -> dict:
        return _jsonable(self)


@dataclass(frozen=True, eq=False)
class ProperTrace:
    """Improper stage output plus the subtree descent path."""

    chosen_point: int | None
    subtree: SubTree | None
    path: tuple[tuple[int, str, int], ...]  # (node, case, selected child)
    leaf: int | None
    hypothesis: Hypothesis
    stage1: ImproperTrace | None = None

    def to_json(self) -> dict:
        return _jsonable(self)


# ``(table, labels, points)``: example j's presence code is table[labels[j], points[j]]
Examples = tuple[np.ndarray, np.ndarray, np.ndarray]


def _examples(ctx: LearnerContext, dataset: Dataset | None) -> Examples:
    """The dataset's examples on ``ctx.tour_code``, after the domain check."""
    if dataset is None:
        raise ValueError("dataset must be non-empty")
    if len(dataset) and dataset.points.max() >= ctx.base.domain_size:
        raise ValueError("dataset point outside class domain")
    return ctx.tour_code, dataset.labels, dataset.points


def _codes(examples: Examples) -> np.ndarray:
    """Each example's ``table[label, point]``, as one flat take."""
    table, labels, points = examples
    index = np.multiply(labels, table.shape[1], dtype=np.intp)
    index += points
    return table.reshape(-1).take(index)


def _subset_summaries(
    ctx: LearnerContext, codes: np.ndarray, ids: np.ndarray, t: int
) -> np.ndarray:
    """Deepest forced points of ``t`` subsets at once.

    The example of presence code ``codes[j]`` belongs to subset
    ``ids[j]``. Every concept consistent with subset ``i`` labels the root
    path of ``deepest[i]`` with 1 (-1 when nothing is forced). A subset
    that no concept is consistent with gets that same data-independent
    summary, so that one changed example moves one summary and the learner
    never raises on the data. An empty subset gets -1, a one-example
    subset its code's ``tree.lone_deepest``, and only the subsets of two
    or more examples get a presence column for :func:`forced_nodes`,
    which runs only when some subset holds two or more examples.
    """
    tree = ctx.tree
    many = np.bincount(ids, minlength=t) > 1
    deepest = np.full(t, -1)
    deepest[ids] = tree.lone_deepest[codes]  # kept where a subset has one example
    if not many.any():
        return deepest
    column = np.cumsum(many) - 1
    held = many[ids]
    pres = np.zeros((2 * len(tree.tour) + 2, column[-1] + 1), dtype=bool)
    pres[codes[held], column[ids[held]]] = True
    # forced_nodes gives inconsistent subsets deepest -1, like empty ones
    deepest[many] = forced_nodes(tree, pres)[0]
    return deepest


def _back_transform(ctx: LearnerContext, x: int | None) -> Hypothesis:
    """Lift node ``x``'s root path (empty for None) back to the input domain."""
    if x is None:
        row = np.zeros(len(ctx.tree.tin), dtype=bool)
    else:
        row = root_path(ctx.tree, x)
    values = row[ctx.point_map] ^ ctx.f_row
    return Hypothesis(
        ones=frozenset(np.flatnonzero(values).tolist()),
        proper_index=ctx.base.concept_index.get(np.packbits(values).tobytes()),
    )


def _checked_context(
    cls: ConceptClass,
    params: LearnParams,
    context: LearnerContext | None,
) -> LearnerContext:
    """Before a learner touches the data: check ``params`` by :func:`_check_gate`
    and :func:`sample_budget`, then return the context for ``cls``."""
    _check_gate(params.privacy, params.beta)
    ctx = context if context is not None else prepare_context(cls)
    if ctx.base is not cls and ctx.base != cls:
        raise ValueError("context was prepared for a different class")
    sample_budget(params, ctx.tree.height)
    return ctx


def improper_learn(
    cls: ConceptClass,
    dataset: Dataset | None,
    params: LearnParams,
    rng: np.random.Generator,
    *,
    context: LearnerContext | None = None,
    subset_ids: np.ndarray | None = None,
    force_median: int | None = None,
    greedy: bool = False,
) -> ImproperTrace:
    """Privately learn a hypothesis that may fall outside the class.

    One run spends (2 eps, 2 delta): an (eps, delta) private median of the
    per-subset depths plus an (eps, delta) bounded-quality selection among
    the points at that depth, for replace-one neighbours of the sample: the
    changed example lies in one subset and moves its one summary, so each
    median utility moves by at most 1 and two candidate scores by 1 each
    (:func:`choosing_mechanism` states its budget for add-one neighbours,
    which move one score). Given the budgeted sample size the output is
    alpha-accurate with probability about 1 - (t + 2) beta; with fewer
    examples the subset count is capped at the sample size, which keeps
    the privacy guarantee and voids the accuracy one.

    ``cls`` may be any class :func:`prepare_context` takes; the data and
    the hypothesis are on its domain, and ``proper_index`` is the first
    equal row of ``cls``. Candidates and chosen point are tree nodes, the
    representative points of ``cls`` (see :func:`prepare_context`).

    Raises ``ValueError`` before touching the data on parameters that
    :func:`_checked_context` refuses. A subset that no concept is
    consistent with is summarised as forcing nothing, so the run never
    raises on the data. It is :func:`_improper_runs` at one run, whose
    docstring gives the order of its draws.

    Keyword-only hooks exist for tests and pipelines: ``subset_ids``
    bypasses partitioning, with ``dataset`` the whole stage-1 sample and
    ``subset_ids[j]`` the subset of example ``j``, an integer array
    (anything else raises ``ValueError`` before any draw); the
    subset count is the largest id plus one. ``force_median`` pins the
    median outcome, ``greedy`` replaces the selection by its
    utility-optimal branch (the depth median is still drawn privately),
    and ``context`` passes a prebuilt :func:`prepare_context`; the
    default represents the class against its first concept.
    """
    ctx = _checked_context(cls, params, context)
    examples = _examples(ctx, dataset)
    batch = _improper_runs(ctx, examples, params, rng, 1, subset_ids, force_median, greedy)
    return _trace(ctx, batch)


def _improper_runs(
    ctx: LearnerContext,
    examples: Examples,
    params: LearnParams,
    rng: np.random.Generator,
    runs: int,
    subset_ids: np.ndarray | None = None,
    force_median: int | None = None,
    greedy: bool = False,
) -> tuple[np.ndarray, ...]:
    """The improper pipeline on :func:`_examples` for ``runs`` runs; hooks need ``runs`` 1.

    Returns arrays with a row per run: its subsets' deepest forced points
    (-1 for none) and their depths, its median depth, its candidate mask
    over the domain (the tree points at that depth; none for a median off
    [0, height]), every domain point's score (0 off the mask) and its
    chosen tree point (-1: abstained). The selection reads a row's
    positive scores in ascending point order, so the index it picks is
    the point. Each run
    partitions the data afresh and spends (2 eps, 2 delta), so a batch is
    for audits that replay the learner, not for releasing several
    hypotheses about one sample. The draws are the runs' deals in run
    order (:func:`_dealt_summaries`), then one median uniform per run,
    then each run's gate uniform and, when its gate passes, selection
    uniform, in run order, in buffered ``rng.random`` calls; a hook skips
    the draws of the stage it bypasses. ``examples`` is only read.
    Working memory is ``runs`` presence matrices of the subset count times
    the tree size, twice over for two or more runs, and what :func:`_deal`
    holds; with one example per subset, ``runs`` datasets. Under
    ``subset_ids`` a one-example subset is summarised by lookup, so its
    one presence matrix covers only the subsets of two or more examples.
    The scores and the mask add ``runs`` rows over the domain.
    """
    n = len(examples[2])
    if n == 0:
        raise ValueError("dataset must be non-empty")
    if force_median is not None:
        force_median = _check_int("force_median", force_median, 0)
    if subset_ids is not None:
        ids = np.asarray(subset_ids)
        if ids.dtype.kind not in "iu":
            raise ValueError("subset_ids must be integer ids")
        if ids.shape != (n,) or ids.min() < 0:
            raise ValueError("subset_ids must be one nonnegative id per example")
        t = int(ids.max()) + 1
        deepest = _subset_summaries(ctx, _codes(examples), ids, t)
    else:
        t = min(sample_budget(params, ctx.tree.height).t, n)
        deepest = _dealt_summaries(ctx, examples, t, rng, runs)
    tree = ctx.tree
    deepest = deepest.reshape(runs, t)
    depths = np.where(deepest >= 0, tree.depth[deepest], 0)
    if force_median is not None:
        medians = np.full(runs, force_median)
    else:
        medians = _median_rows(depths, tree.height, params.privacy.epsilon, rng)

    # a node's score counts the run's subsets whose forced path passes
    # through it: those whose deepest point lies in its tour interval
    width = len(tree.tour) + 1
    run_of, subset = np.nonzero(deepest >= 0)
    counts = np.bincount(
        run_of * width + tree.tin[deepest[run_of, subset]] + 1, minlength=runs * width
    )
    before = counts.reshape(runs, width).cumsum(axis=1)
    # the candidates are the tree points at the median depth; the rest score 0
    candidates = (tree.depth == medians[:, None]) & (tree.tin >= 0)
    scores = np.where(candidates, before[:, tree.tout] - before[:, tree.tin], 0)
    if greedy:
        chosen = np.where(scores.max(axis=1) > 0, scores.argmax(axis=1), -1)
    else:
        chosen = np.array(_choosing_rows(scores, 1, t, params.privacy, params.beta, rng))
    return deepest, depths, medians, candidates, scores, chosen


def _hypotheses(ctx: LearnerContext, picks: np.ndarray) -> list[Hypothesis]:
    """Each chosen point's hypothesis (-1: abstained), each distinct point lifted once."""
    picks = picks.tolist()
    lifted = {p: _back_transform(ctx, p) if p >= 0 else ctx.abstained for p in set(picks)}
    return [lifted[p] for p in picks]


def _trace(ctx: LearnerContext, batch: tuple[np.ndarray, ...]) -> ImproperTrace:
    """The trace of a one-run batch of :func:`_improper_runs`."""
    deepest, depths, z, candidates, scores, p = (a[0] for a in batch)
    c = np.flatnonzero(candidates)
    return ImproperTrace(
        reference_concept=ctx.f,
        reference_index=ctx.f_index,
        subset_depths=tuple(depths.tolist()),
        subset_deepest=tuple(q if q >= 0 else None for q in deepest.tolist()),
        median_depth=int(z),
        candidates=tuple(c.tolist()),
        scores=tuple(scores[c].tolist()),
        chosen_point=int(p) if p >= 0 else None,
        hypothesis=_hypotheses(ctx, batch[-1])[0],
    )


def _dealt_summaries(
    ctx: LearnerContext, examples: Examples, t: int, rng: np.random.Generator, runs: int
) -> np.ndarray:
    """:func:`_subset_summaries` of ``runs`` partitions of ``examples`` by
    :func:`_deal`; with one example per subset, ``runs`` shuffles of the
    examples' ``tree.lone_deepest`` summaries, drawing what ``runs`` calls
    of ``rng.permutation(n)`` draw."""
    if t == len(examples[2]):
        dealt = np.tile(ctx.tree.lone_deepest[_codes(examples)], (runs, 1))
        rng.permuted(dealt, axis=1, out=dealt)
        return dealt.ravel()
    pres = np.zeros((runs, 2 * len(ctx.tree.tour) + 2, t + 1), dtype=bool)
    _deal(pres, examples, rng)
    # point-major, a column per subset; a copy only for two or more runs
    deepest = forced_nodes(ctx.tree, pres.transpose(1, 0, 2).reshape(pres.shape[1], -1))[0]
    return deepest.reshape(runs, t + 1)[:, :t].ravel()


# the chance that a deal draws its slots again, at most
REDRAW_BOUND = 1e-6


@lru_cache
def _reserve(n: int, t: int) -> int:
    """The reserve slot count ``x`` of a deal of ``n`` examples into ``t`` subsets.

    A deal redraws when some subset's count of examples, Binomial(n, p)
    with ``p = 1 / (t + x)``, exceeds its size, at least ``m = n // t``.
    By the union bound over the ``t`` subsets and the Chernoff bound
    ``P(Binomial(n, p) >= k) <= exp(-n D(k / n || p))`` for ``k >= n p``,
    with ``D`` the Bernoulli relative entropy, that has probability at
    most ``t exp(-n D((m + 1) / n || p))``. ``x`` is the least positive
    count that puts this at or below :data:`REDRAW_BOUND`; the bound falls
    as ``x`` grows. At ``t`` 1 no deal redraws.
    """
    a = (n // t + 1) / n
    limit = math.log(REDRAW_BOUND / t)

    def bounded(x: int) -> bool:
        if a >= 1:
            return True
        p = 1.0 / (t + x)
        relative_entropy = a * math.log(a / p) + (1 - a) * math.log((1 - a) / (1 - p))
        return -n * relative_entropy <= limit

    return bisect.bisect_left(range(1, 2**62), True, key=bounded) + 1


def _deal(pres: np.ndarray, examples: Examples, rng: np.random.Generator) -> None:
    """Scatter ``examples`` into each run's block of ``pres`` as a fresh uniform partition.

    ``pres`` is a zeroed C-contiguous bool array of shape ``(runs, rows,
    t + 1)``, a row per code; run ``r``'s subset ``i`` sets ``pres[r, :,
    i]`` and ``pres[r, :, t]`` is spare. Subset ``i`` gets its round-robin
    size, ``n // t`` plus one for the first ``n % t``. The runs are dealt
    in order. Each example draws a slot uniformly from the ``t`` subsets
    and :func:`_reserve`'s ``x`` reserve slots, with ``rng.integers``
    ``SAMPLE_CHUNK`` examples at a time, in the narrowest dtype that holds
    ``t + x - 1``, and sets its cell, ``code * (t + 1) + slot`` in its
    run's block (the spare column for a reserve slot). Only the reserved
    cells are kept. If some subset got more than its size, the run's block
    is cleared and every slot drawn again. Otherwise the reserved examples,
    in order, take the missing places (``cell - t + fill``), put in the
    order ``rng.shuffle`` gives them. Permuting the examples leaves the law
    of this procedure unchanged, and it always lands on the round-robin
    sizes, so its law is uniform over those partitions: that of a shuffle
    dealt round-robin. Its draws do not depend on the examples, so one
    changed example still moves one subset. Beside ``pres`` it holds one
    chunk's cells and the reserved ones (5% of a budget-sized sample).
    """
    runs, _, width = pres.shape
    table, labels, points = examples
    n, t = len(points), width - 1
    x = _reserve(n, t)
    dtype = np.min_scalar_type(t + x - 1)
    sizes = n // t + (np.arange(t) < n % t)
    scaled = np.multiply(table, width, dtype=np.intp)
    for flat in pres.reshape(runs, -1):
        while True:
            counts = np.zeros(width, dtype=np.int64)
            reserved = []
            for start in range(0, n, SAMPLE_CHUNK):
                chunk = slice(start, start + SAMPLE_CHUNK)
                cells = _codes((scaled, labels[chunk], points[chunk]))
                slots = rng.integers(0, t + x, len(cells), dtype=dtype)
                np.minimum(slots, t, out=slots)
                cells += slots
                flat[cells] = True
                counts += np.bincount(slots, minlength=width)
                reserved.append(cells[slots == t])
            if (counts[:t] <= sizes).all():
                break
            flat[:] = False
        fill = np.repeat(np.arange(t), sizes - counts[:t])
        rng.shuffle(fill)
        fill -= t
        fill += np.concatenate(reserved)
        flat[fill] = True


def proper_learn(
    cls: ConceptClass,
    dataset: Dataset | None,
    params: LearnParams,
    rng: np.random.Generator,
    *,
    context: LearnerContext | None = None,
    subset_ids: np.ndarray | None = None,
    stage2: Dataset | None = None,
    force_chosen_point: int | None = None,
    greedy: bool = False,
) -> ProperTrace:
    """Privately learn a hypothesis that is always a class member.

    Splits the sample, runs the improper stage on one part, and returns
    that stage's own hypothesis, ``stage1.hypothesis``, when the selected
    node's root path is realized by a concept or the selection abstained.
    Otherwise it walks the pruned subtree for at most ``ceil(2/alpha)``
    iterations: each pass draws a Laplace-noised minimum child weight and
    either selects a light child by weight (stopping) or descends by
    minimum leaf value, both via the exponential mechanism.
    The final hypothesis is the path of the smallest-id leaf in the last
    node's tour slice. As in :func:`improper_learn`, the hypothesis and
    its ``proper_index`` refer to ``cls`` as given. A point outside the
    class domain, in either sample, or a missing or empty ``dataset``
    raises ``ValueError`` before any draw, on every path.

    The split gives the descent's weights ``min(N2, len(dataset) // 2)``
    examples, drawn as ``rng.choice(len(dataset), size, replace=False)``
    before the improper stage's draws, and deals the rest, in their order,
    to the improper stage. The stage-2 set is uniform over the subsets of
    its size, and the deal's law does not depend on which examples it
    gets, so the two are independent, as after one shuffle. ``stage2``
    bypasses it, and ``dataset`` is then the whole stage-1 sample; only
    with ``stage2`` may ``subset_ids`` be given, and it is passed to the
    improper stage. ``force_chosen_point``, a tree point, skips the
    improper stage; the parameter and context checks of
    :func:`improper_learn` still run first. ``greedy`` also replaces the
    descent's noisy tests and mechanisms by their utility-optimal
    branches. See :func:`improper_learn` for the remaining hooks.
    """
    ctx = _checked_context(cls, params, context)
    if subset_ids is not None and stage2 is None:
        raise ValueError("subset_ids requires stage2")
    if force_chosen_point is not None:
        _check_in_tree(ctx.tree, force_chosen_point)
    budget = sample_budget(params, ctx.tree.height)

    # checked before any draw, on every path and whether or not the run descends
    codes2 = None if stage2 is None else _codes(_examples(ctx, stage2))
    table, labels, points = first = _examples(ctx, dataset)
    if len(points) == 0:
        raise ValueError("dataset must be non-empty")
    if codes2 is None:
        second = rng.choice(len(points), min(budget.N2, len(points) // 2), replace=False)
        codes2 = _codes((table, labels[second], points[second]))
        keep = np.ones(len(points), dtype=bool)
        keep[second] = False
        first = (table, labels[keep], points[keep])

    trace1: ImproperTrace | None = None
    if force_chosen_point is not None:
        chosen: int | None = force_chosen_point
    else:
        batch = _improper_runs(ctx, first, params, rng, 1, subset_ids, greedy=greedy)
        trace1 = _trace(ctx, batch)
        chosen = trace1.chosen_point

    # a realized node (or the root, for None) is the answer; else descend
    sub, path, leaf = None, [], chosen
    if chosen is not None and not ctx.tree.proper_mask[chosen]:
        # relabeled 0s on the tree are the codes below the tour length
        k = len(ctx.tree.tour)
        zeros = np.bincount(codes2[codes2 < k], minlength=k)
        sub = make_subtree(ctx.tree, chosen)
        stats = node_stats(ctx.tree, sub, zeros)
        n2_size = len(codes2)
        eps = params.privacy.epsilon

        flag = chosen
        for _ in range(budget.T):
            if flag in sub.leaves:
                break
            kids = np.flatnonzero(ctx.tree.parent == flag)  # ascending ids
            w_min = int(stats.weight[kids].min())
            noisy = w_min if greedy else w_min + laplace_sample(1.0 / eps, rng)
            case = "nonuniform" if noisy <= params.alpha * n2_size else "uniform"
            # a light child ends the walk; otherwise descend by leaf value
            score = stats.weight if case == "nonuniform" else stats.min_leaf_value
            if greedy:  # argmin breaks ties toward the smallest id
                nxt = int(kids[np.argmin(score[kids])])
            else:
                cands = [(q, -float(score[q])) for q in kids.tolist()]
                nxt = int(exponential_mechanism(cands, 1.0, eps, rng))
            path.append((flag, case, nxt))
            flag = nxt
            if case == "nonuniform":
                break

        lo, hi = ctx.tree.tin[flag], ctx.tree.tout[flag]
        leaf = min(q for q in sub.leaves if lo <= ctx.tree.tin[q] < hi)

    # the improper stage already lifted a node the run did not descend from
    if trace1 is not None and leaf == chosen:
        hypothesis = trace1.hypothesis
    else:
        hypothesis = _back_transform(ctx, leaf)
    assert hypothesis.proper_index is not None
    return ProperTrace(
        chosen_point=chosen,
        subtree=sub,
        path=tuple(path),
        leaf=leaf,
        hypothesis=hypothesis,
        stage1=trace1,
    )


def total_privacy(
    params: LearnParams,
    budget: SampleBudget,
    delta_prime: float | None = None,
    loop_iterations: int | None = None,
) -> PrivacyParams:
    """End-to-end budget of the proper learner.

    The improper stage costs (2 eps, 2 delta). Each descent iteration runs
    one Laplace test and one exponential mechanism, each eps-DP, so the
    loop of T iterations composes to :func:`advanced_composition` of T
    steps of 2 eps with ``delta'``; the stages then add. ``loop_iterations``
    defaults to the budget's worst-case bound, and 0 gives the
    proper-exit path cost (2 eps, 2 delta) exactly.
    """
    t_loop = budget.T if loop_iterations is None else loop_iterations
    t_loop = _check_int("loop_iterations", t_loop, 0)
    eps = params.privacy.epsilon
    delta = params.privacy.delta
    if t_loop == 0:
        return PrivacyParams(epsilon=2.0 * eps, delta=2.0 * delta)
    if delta_prime is None:
        delta_prime = delta
    loop = advanced_composition(2.0 * eps, 0.0, t_loop, delta_prime)
    return PrivacyParams(
        epsilon=2.0 * eps + loop.epsilon, delta=2.0 * delta + loop.delta
    )
