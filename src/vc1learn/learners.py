"""Private PAC learners for VC-dimension-1 classes.

Two learners share a pipeline: represent the class relative to a member
concept, reduce it (:func:`prepare_context`, for any class) and read off
the order tree, and privately locate a node whose root path
back-transforms to an accurate hypothesis on the class's own domain.

* :func:`improper_learn` partitions the sample (see
  :func:`_dealt_summaries`), summarizes each subset by its deepest forced
  point, takes a private median of those depths, and privately selects
  among the points at the median depth. A partition is a shuffle of the
  examples' codes dealt round-robin, except that a budget-sized one is
  drawn in count space: only the codes that settle the summaries are
  revealed (:func:`_revealed_summaries`). Its output may fall outside the
  class.
  It is one run of the private batch core :func:`_improper_runs` (whose docstring gives
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


def _flat_index(examples: Examples) -> np.ndarray:
    """Each example's index ``label * width + point`` into its table's flat view.

    The key is in the narrowest unsigned dtype that holds ``table.size -
    1`` (uint16 on a 4,096-point domain, not intp), so it writes 2 bytes
    an example rather than 8, and the points are added into it in place.
    Labels are 0 or 1 and points lie below the width, so the casts lose
    nothing.
    """
    table, labels, points = examples
    dtype = np.min_scalar_type(table.size - 1)
    index = np.multiply(labels, table.shape[1], dtype=dtype, casting="unsafe")
    np.add(index, points, out=index, casting="unsafe")
    return index


def _codes(examples: Examples) -> np.ndarray:
    """Each example's ``table[label, point]``, as one flat take."""
    return examples[0].reshape(-1).take(_flat_index(examples))


def _histogram(examples: Examples, rows: int) -> np.ndarray:
    """How many examples have each of the ``rows`` codes, with no code per example.

    The examples' (label, point) pairs are counted by one ``np.bincount``
    of :func:`_flat_index`'s narrow key per ``SAMPLE_CHUNK`` examples, and
    the pair counts are then added up by the code the table gives each
    pair. ``np.bincount`` casts its input to intp first; chunk by chunk
    that cast stays in cache, where on the whole sample it would write 8
    bytes per example.
    """
    table, labels, points = examples
    pairs = np.zeros(table.size, dtype=np.int64)
    for start in range(0, len(points), SAMPLE_CHUNK):
        chunk = slice(start, start + SAMPLE_CHUNK)
        key = _flat_index((table, labels[chunk], points[chunk]))
        pairs += np.bincount(key, minlength=table.size)
    # float weights add up the counts exactly below 2**53
    return np.bincount(table.reshape(-1), weights=pairs, minlength=rows).astype(np.int64)


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
    the privacy guarantee and voids the accuracy one. The partition is
    uniform over those of the round-robin sizes (see
    :func:`_dealt_summaries`).

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
    held_out: np.ndarray | None = None,
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
    order (:func:`_dealt_summaries`: one shuffle of every run's codes, or
    hypergeometric reveals, by the sizes alone), then one median uniform
    per run, then each run's gate uniform and, when its gate passes,
    selection uniform, in run order, in buffered ``rng.random`` calls; a
    hook skips the draws of the stage it bypasses. ``examples`` is only
    read, and ``held_out`` indexes the examples that are not dealt (the
    proper learner's stage-2 split). Working memory for a shuffled deal is
    ``runs`` rows of the dealt examples' intp codes and, with fewer
    subsets than examples, one presence matrix of the tree size by
    ``runs`` times the subset count; for a deal by revealed codes, one
    chunk's narrow pair keys and ``np.bincount``'s intp copy of them, the
    pair and code counts and what :func:`_revealed_summaries` holds.
    Under ``subset_ids`` a one-example subset is summarised by lookup, so
    its one presence matrix covers only the subsets of two or more
    examples. The scores and the mask add ``runs`` rows over the domain.
    """
    n = len(examples[2]) - (0 if held_out is None else len(held_out))
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
        deepest = _dealt_summaries(ctx, examples, t, rng, runs, held_out)
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
    ctx: LearnerContext,
    examples: Examples,
    t: int,
    rng: np.random.Generator,
    runs: int,
    held_out: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`_subset_summaries` of ``runs`` uniform partitions of ``examples``
    into ``t`` subsets of the round-robin sizes, each run's row after the last.

    ``held_out`` indexes examples that are not dealt. Which draws make the
    partitions depends only on the sizes. Where :func:`_lazy` holds, they
    are :func:`_revealed_summaries` of the examples' code histogram, which
    reveals only the codes that settle the summaries. Otherwise the dealt
    examples' codes, in their order, are tiled ``runs`` times and each row
    is shuffled by one ``rng.permuted`` call, which draws what ``runs``
    calls of ``rng.permutation(n)`` draw; a row's ``j``-th code goes to
    subset ``j % t``. With one example per subset the summaries are then
    the codes' ``tree.lone_deepest``; otherwise one :func:`forced_nodes`
    call reads a presence column per subset of every run. The shuffle's
    draws do not read the codes, so one changed example moves one subset.
    """
    table, labels, points = examples
    tree = ctx.tree
    rows = 2 * len(tree.tour) + 2
    n = len(points) - (0 if held_out is None else len(held_out))
    if t < n and _lazy(n, t, len(tree.tour)):
        h = _histogram(examples, rows)
        if held_out is not None:
            h -= np.bincount(_codes((table, labels[held_out], points[held_out])), minlength=rows)
        return _revealed_summaries(tree, h, t, rng, runs)
    codes = _codes(examples)
    if held_out is not None:
        codes = np.delete(codes, held_out)
    # numpy shuffles 8-byte items on its fast path
    dealt = np.empty((runs, n), dtype=np.intp)
    dealt[:] = codes
    rng.permuted(dealt, axis=1, out=dealt)
    if t == n:
        return tree.lone_deepest.take(dealt.ravel())
    # run r's j-th dealt code sets column r * t + j % t
    pres = np.zeros((rows, runs * t), dtype=bool)
    pres[dealt, np.arange(0, runs * t, t)[:, None] + np.arange(n) % t] = True
    return forced_nodes(tree, pres)[0]


# the examples per subset from which a deal goes by revealed codes, per
# code it would reveal in the worst case, up to LAZY_REVEALS of them
LAZY_EXAMPLES = 12
LAZY_REVEALS = 32


def _lazy(n: int, t: int, k: int) -> bool:
    """Whether a deal of ``n`` examples into ``t`` subsets, on a tree of ``k``
    points, goes by :func:`_revealed_summaries` rather than by a shuffle.

    It reads only these public sizes, never the sample. A shuffle pays per
    example; a reveal pays per subset, and at most every one of the
    ``2 k + 2`` codes is revealed, a few on realizable data. So the
    revealed deal is taken from :data:`LAZY_EXAMPLES` examples per subset
    for each code it might reveal, counting at most :data:`LAZY_REVEALS`.
    """
    return n >= LAZY_EXAMPLES * t * min(2 * k + 2, LAZY_REVEALS)


def _revealed_summaries(
    tree: ClassTree, h: np.ndarray, t: int, rng: np.random.Generator, runs: int
) -> np.ndarray:
    """The subset summaries of ``runs`` deals of a sample whose code ``c``
    has ``h[c]`` copies, revealing only the codes that settle them.

    *The law.* A deal is uniform over the partitions into ``t`` subsets of
    the round-robin sizes, as a shuffle dealt round-robin
    (:func:`_dealt_summaries`). Given the copies already placed,
    the ``h[c]`` copies of a further code ``c`` fall on the subsets as a
    multivariate hypergeometric draw over their remaining capacities. So
    the codes may be revealed one at a time, each by
    ``rng.multivariate_hypergeometric(cap, h[c], method="marginals")``
    with its draw then taken off ``cap``, in an order, and up to a stop,
    that depend only on what is revealed so far: the revealed presences
    have the law they have under a whole deal (the principle of deferred
    decisions). A code with no copies is never revealed.

    *The order.* With ``k`` tour positions, a 1-label at position ``j``
    has code ``k + 1 + j`` and a 0-label code ``j``; ``2 k + 1`` and ``k``
    are the labels off the tree. A subset is *full* when it has no
    capacity left. First the on-tree 1-codes, from the last tour position
    down, until every subset holds one or is full; a subset's ``d`` is
    then the position of its first 1-code, -1 if it got none, as
    :func:`forced_nodes` takes the last position of a 1-label. Then, for
    each distinct ``d`` in ascending order, while some subset with that
    ``d`` is neither full nor *refuted*, that is, holds none of the codes
    that follow: the off-tree 1-code; in ascending order, the 0-codes at
    or above ``d`` and the 1-codes before ``d`` that are not on ``d``'s
    root path; then, when ``d`` is improper, the 0-codes in ``d``'s tour
    slice. A code revealed before is read again, not drawn again.

    *The stopping rule.* Let ``S`` be the codes revealed present in a
    subset and ``U`` any set of unrevealed codes; then :func:`forced_nodes`
    gives ``S`` and ``S`` with ``U`` the same summary. A subset with no
    capacity left holds no unrevealed code. If ``d`` is -1, every on-tree
    1-code with copies was revealed and none is in the subset, so it forces
    nothing either way. Otherwise every 1-code after ``d`` was revealed and
    is absent, so ``d`` stays the deepest 1-label. A refuted subset is
    inconsistent whatever else it holds: a 1-label off the tree or off
    ``d``'s root path breaks the chain test, and a 0-label at or above
    ``d`` leaves no live node below it. Otherwise every code that ``d``
    needs was revealed. The unrevealed 1-codes then lie on ``d``'s root
    path, which keeps the chain test as it was. The consistent concepts
    are the paths of the proper nodes in ``d``'s slice that no 0-label is
    at or above, and a 0-label blocks its own slice: one off the tree
    blocks nothing, and one outside ``d``'s root path and slice blocks no
    node of the slice. When ``d`` is improper, the 0-labels in its slice
    were revealed too, and the live nodes are as they were. When ``d`` is
    proper and live, it is the first live node and the lowest common
    ancestor with any other, so the summary is ``d`` whatever lies below
    it.

    :func:`forced_nodes` runs once, on the distinct revealed presence
    columns of all the runs. Working memory is a row over the subsets per
    revealed code and a presence matrix of the tree size by the distinct
    columns.
    """
    k = len(tree.tour)
    n = int(h.sum())
    sizes = n // t + (np.arange(t) < n % t)
    position = np.arange(k)
    tout = tree.tout[tree.tour]
    ones = (k + 1 + np.flatnonzero(h[k + 1 : 2 * k + 1])[::-1]).tolist()  # last first

    @lru_cache(maxsize=None)
    def needs(j):
        """The codes with copies that can refute ``d = j``, then its slice's 0-codes."""
        on_path = (position <= j) & (tout > j)
        refuting = np.concatenate((
            [2 * k + 1], np.flatnonzero(on_path), k + 1 + np.flatnonzero(~on_path & (position < j))
        ))
        below = [] if tree.proper_mask[tree.tour[j]] else j + 1 + np.flatnonzero(h[j + 1 : tout[j]])
        return refuting[h[refuting] > 0].tolist(), list(below)

    found = []
    for _ in range(runs):
        cap = sizes.copy()
        present = {}

        def read(c):
            if c not in present:
                x = rng.multivariate_hypergeometric(cap, h[c], method="marginals")
                cap[:] -= x
                present[c] = x > 0
            return present[c]

        d = np.full(t, -1)
        for c in ones:
            if ((d >= 0) | (cap == 0)).all():
                break
            d[read(c) & (d < 0)] = c - k - 1
        for j in sorted(set(d[d >= 0].tolist())):
            refuting, below = needs(j)
            pending = d == j  # neither full nor refuted
            for c in refuting:
                pending &= cap > 0
                if not pending.any():
                    break
                pending &= ~read(c)
            for c in below:
                pending &= cap > 0
                if not pending.any():
                    break
                read(c)
        found.append(present)
    codes = sorted(set().union(*found))
    columns = np.zeros((len(codes), runs * t), dtype=bool)
    for r, present in enumerate(found):
        for i, c in enumerate(codes):
            columns[i, r * t : (r + 1) * t] = present.get(c, False)
    distinct, inverse = np.unique(columns, axis=1, return_inverse=True)
    pres = np.zeros((len(h), distinct.shape[1]), dtype=bool)
    pres[codes] = distinct
    return forced_nodes(tree, pres)[0][inverse.reshape(-1)]


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
    before the improper stage's draws, and deals the rest to the improper
    stage: their codes less the stage-2 ones, in their order, to be
    shuffled, or, by revealed codes, as the whole sample's code counts
    less the stage-2 codes, with no copy of the rest. The
    stage-2 set is uniform over the subsets of its size, and the deal's
    law does not depend on which examples it gets, so the two are
    independent, as after one shuffle. ``stage2``
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
    second = None
    if codes2 is None:
        second = rng.choice(len(points), min(budget.N2, len(points) // 2), replace=False)
        codes2 = _codes((table, labels[second], points[second]))

    trace1: ImproperTrace | None = None
    if force_chosen_point is not None:
        chosen: int | None = force_chosen_point
    else:
        batch = _improper_runs(
            ctx, first, params, rng, 1, subset_ids, greedy=greedy, held_out=second
        )
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
