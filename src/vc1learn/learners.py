"""Private PAC learners for VC-dimension-1 classes.

Two learners share a pipeline: represent the class relative to a member
concept, reduce it (:func:`prepare_context`, for any class) and read off
the order tree, and privately locate a node whose root path
back-transforms to an accurate hypothesis on the class's own domain.

* :func:`improper_learn` partitions the sample, summarizes each subset by
  its deepest forced point, takes a private median of those depths, and
  privately selects among the points at the median depth. Its output may
  fall outside the class. Subsets stay flat: each example's presence code
  (its point's tour position and its relabeled label) is shuffled
  directly and dealt round-robin, and one scatter fills a point-major
  presence matrix, a row per code and a column per subset, whose
  summaries :func:`~vc1learn.tree.forced_nodes` computes for all subsets
  at once. :func:`improper_learn_runs` runs many in one such matrix: a
  batch core draws their medians and selections in one pass each, as
  arrays, and a trace builder turns those into the traces.
* :func:`proper_learn` runs the improper stage on one slice of the data
  and, when the selected node's path is not realized by a class member,
  descends the pruned subtree with noisy weight tests and exponential
  mechanisms until a realized leaf is reached. The subtree and its
  weights are read off tour slices of the class tree, the weights from
  the stage-2 presence codes. Its output is always a class member.

Both see an example only as its presence code, gathered once per dataset,
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
    canonical_layout,
)
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
    _tour_rows,
    forced_nodes,
    make_subtree,
    node_stats,
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
    :func:`sample_budget`).
    """

    alpha: float
    beta: float
    privacy: PrivacyParams

    def __post_init__(self) -> None:
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


@lru_cache
def sample_budget(params: LearnParams, tree_depth_bound: int) -> SampleBudget:
    """Sizing for a class whose tree depth is at most ``tree_depth_bound``.

    The subset count ``t`` is the larger of the private-median requirement
    for a :data:`MEDIAN_ALPHA` (1/3) median on the depth domain and the
    selection gate requirement ``(16 / eps) * ln(4 t / (beta eps delta))``
    of :func:`choosing_utility_bound`, the latter solved by iterating the
    max to its fixed point. ``N1 = t * per_subset`` and
    ``N2 = (ln(1/alpha) + ln(1/beta)) / (alpha^2 eps)``. Results are
    memoised; the parameter dataclasses are frozen.
    """
    if tree_depth_bound < 0:
        raise ValueError("tree_depth_bound must be nonnegative")
    priv = params.privacy
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
        row = self.base.matrix[self.f_index].astype(np.uint8)
        row.flags.writeable = False
        return row

    @cached_property
    def abstained(self) -> Hypothesis:
        """The hypothesis of a run whose selection abstained: the root's."""
        return _back_transform(self, None)

    @cached_property
    def by_depth(self) -> tuple[np.ndarray, np.ndarray]:
        """``(points, starts)``: the tree points by depth, ascending within a
        depth, then a padding -1; depth ``z``'s are ``points[starts[z]:
        starts[z + 1]]`` for ``z`` in [0, height + 1], none at height + 1."""
        tree = self.tree
        nodes = np.flatnonzero(tree.tin >= 0)
        counts = np.bincount(tree.depth[nodes], minlength=tree.height + 2)
        points = np.append(nodes[np.argsort(tree.depth[nodes], kind="stable")], -1)
        points.flags.writeable = False
        return points, np.concatenate(([0], counts.cumsum()))

    @property
    def depth_vec(self) -> np.ndarray:
        """``tree.depth``, under the name the benchmark workloads read."""
        return self.tree.depth

    @cached_property
    def tour_code(self) -> np.ndarray:
        """``tour_code[l, p]``: the presence row of input example ``(p, l)``.

        In :func:`forced_nodes`'s point-major layout, with ``k`` tour
        positions: the row of ``point_map[p]`` (``k`` off the tree), plus
        ``k + 1`` when the relabeled label ``l ^ f_row[p]`` is 1.
        """
        rows = _tour_rows(self.tree, self.point_map)
        flipped = np.stack([self.f_row, self.f_row ^ 1]).astype(np.int32)
        c = rows.astype(np.int32) + (len(self.tree.tour) + 1) * flipped
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
    if not 0 <= f_index < len(cls.concepts):
        raise ValueError("f_index out of range")
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


def _codes(ctx: LearnerContext, dataset: Dataset | None) -> np.ndarray:
    """Each example's presence code, ``tour_code[label, point]``, after the domain check."""
    if dataset is None:
        raise ValueError("dataset must be non-empty")
    if len(dataset) and dataset.points.max() >= ctx.base.domain_size:
        raise ValueError("dataset point outside class domain")
    return ctx.tour_code[dataset.labels, dataset.points]


def _subset_summaries(
    ctx: LearnerContext, codes: np.ndarray, ids: np.ndarray, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deepest forced points and their depths for ``t`` subsets at once.

    The example of presence code ``codes[j]`` belongs to subset
    ``ids[j]``. Returns ``(deepest, depths)``: every concept consistent
    with subset ``i`` labels the root path of ``deepest[i]`` with 1, and
    ``depths[i]`` is that point's tree depth (``deepest[i]`` is -1 and the
    depth 0 when nothing is forced). A subset that no concept is
    consistent with gets that same data-independent summary, so that one
    changed example moves one summary and the learner never raises on the
    data.
    """
    pres = np.zeros((2 * len(ctx.tree.tour) + 2, t), dtype=bool)
    pres[codes, ids] = True
    return _summaries(ctx, pres)


def _summaries(ctx: LearnerContext, pres: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Summaries of the subsets of a point-major presence matrix.

    ``pres`` has a column per subset and the rows of
    :attr:`LearnerContext.tour_code`: relabeled 0s, then 1s.
    """
    k = len(ctx.tree.tour)
    # forced_nodes gives inconsistent subsets deepest -1, like empty ones
    deepest, _ = forced_nodes(ctx.tree, pres[: k + 1], pres[k + 1 :])
    depths = np.where(deepest >= 0, ctx.tree.depth[deepest], 0)
    return deepest, depths


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
    """Validate the privacy parameters, then return the context for ``cls``.

    Runs before a learner touches the data: the selection's parameter
    rule, with the messages of :func:`choosing_mechanism`.
    """
    _check_gate(params.privacy, params.beta)
    ctx = context if context is not None else prepare_context(cls)
    if ctx.base is not cls and ctx.base != cls:
        raise ValueError("context was prepared for a different class")
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

    Raises ``ValueError`` before touching the data unless eps is in
    (0, 2) and delta is positive. A subset that no concept is consistent
    with is summarised as forcing nothing, so the run never raises on the
    data. The run draws, in order, the shuffle, the median's uniform, the
    gate's uniform and, when the gate passes, the selection's uniform; it
    is :func:`improper_learn_runs` at one run.

    Keyword-only hooks exist for tests and pipelines: ``subset_ids``
    bypasses partitioning, with ``dataset`` the whole stage-1 sample and
    ``subset_ids[j]`` the subset of example ``j``, an integer array
    (anything else raises ``ValueError`` before any draw); the
    subset count is the largest id plus one. ``force_median`` pins the
    median outcome, ``greedy`` replaces each mechanism by its
    utility-optimal branch, and ``context`` passes a prebuilt
    :func:`prepare_context`; the default represents the class against its
    first concept.
    """
    ctx = _checked_context(cls, params, context)
    codes = _codes(ctx, dataset)
    batch = _improper_runs(ctx, codes, params, rng, 1, subset_ids, force_median, greedy)
    return _traces(ctx, batch)[0]


def improper_learn_runs(
    cls: ConceptClass,
    dataset: Dataset | None,
    params: LearnParams,
    rng: np.random.Generator,
    runs: int,
    *,
    context: LearnerContext | None = None,
) -> list[ImproperTrace]:
    """``runs`` independent runs of :func:`improper_learn` on one dataset.

    Each run partitions the dataset afresh and spends (2 eps, 2 delta),
    so the ``runs`` outputs together spend ``runs`` times that: a batch is
    for audits and experiments that replay the learner, not for releasing
    several hypotheses about one sample. The runs shuffle the examples'
    presence codes as the rows of one array, with no subset-id array, and
    share one scatter into a point-major presence matrix (a row per code,
    a column per subset of every run), one :func:`forced_nodes` call, one
    array of candidate scores and one gate-and-selection pass, and the
    traces are built from the batch's arrays; so a batch of audit-sized
    runs costs far less per run than separate calls. Its working memory
    grows with ``runs`` times the dataset and times the subset count by
    the tree size.

    The draws are the runs' shuffles in run order (each what
    ``rng.permutation(len(dataset))`` draws), then one uniform per
    run for the medians, then each run's gate and selection uniforms in
    run order, in buffered ``rng.random`` calls; at one run that is
    :func:`improper_learn`'s order, and the trace is the same. Raises
    ``ValueError`` before touching the data when ``runs`` is below 1 or
    the privacy parameters are out of range.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    ctx = _checked_context(cls, params, context)
    return _traces(ctx, _improper_runs(ctx, _codes(ctx, dataset), params, rng, runs))


def _improper_runs(
    ctx: LearnerContext,
    codes: np.ndarray,
    params: LearnParams,
    rng: np.random.Generator,
    runs: int,
    subset_ids: np.ndarray | None = None,
    force_median: int | None = None,
    greedy: bool = False,
) -> tuple[np.ndarray, ...]:
    """The improper pipeline on presence codes for ``runs`` runs; hooks need ``runs`` 1.

    Returns arrays with a row per run: its subsets' deepest forced points
    (-1 for none) and their depths, its median depth, its candidates (the
    tree points at that depth, then at least one -1), their scores (0 for
    the padding) and its chosen tree point (-1: abstained).
    """
    if len(codes) == 0:
        raise ValueError("dataset must be non-empty")
    if subset_ids is not None:
        ids = np.asarray(subset_ids)
        if ids.dtype.kind not in "iu":
            raise ValueError("subset_ids must be integer ids")
        if ids.shape != codes.shape or ids.min() < 0:
            raise ValueError("subset_ids must be one nonnegative id per example")
        t = int(ids.max()) + 1
        deepest, depths = _subset_summaries(ctx, codes, ids, t)
    else:
        t = min(sample_budget(params, ctx.tree.height).t, len(codes))
        deepest, depths = _dealt_summaries(ctx, codes, t, rng, runs)
    deepest, depths = deepest.reshape(runs, t), depths.reshape(runs, t)

    tree = ctx.tree
    if force_median is not None:
        medians = np.full(runs, int(force_median))
        z = medians if 0 <= force_median <= tree.height else np.full(runs, tree.height + 1)
    else:
        medians = z = _median_rows(depths, tree.height, params.privacy.epsilon, rng)

    # a node's score counts the run's subsets whose forced path passes
    # through it: those whose deepest point lies in its tour interval
    width = len(tree.tour) + 1
    run_of, subset = np.nonzero(deepest >= 0)
    counts = np.bincount(
        run_of * width + tree.tin[deepest[run_of, subset]] + 1, minlength=runs * width
    )
    before = counts.reshape(runs, width).cumsum(axis=1)
    # candidates: the tree points at depth z (none at height + 1, for a
    # median off [0, height]), then -1s, which score 0 and are pick -1's
    points, starts = ctx.by_depth
    lo, hi = starts[z], starts[z + 1]
    slot = lo[:, None] + np.arange(int((hi - lo).max()) + 1)
    cand = points[np.where(slot < hi[:, None], slot, -1)]
    run = np.arange(runs)[:, None]
    inside = before[run, tree.tout[cand]] - before[run, tree.tin[cand]]
    scores = np.where(cand >= 0, inside, 0)
    if greedy:
        picks = np.where(scores.max(axis=1) > 0, scores.argmax(axis=1), -1)
    else:
        picks = np.array(_choosing_rows(scores, 1, t, params.privacy, params.beta, rng))
    chosen = cand[run[:, 0], picks]
    return deepest, depths, medians, cand, scores, chosen


def _hypotheses(ctx: LearnerContext, picks: np.ndarray) -> list[Hypothesis]:
    """Each chosen point's hypothesis (-1: abstained), each distinct point lifted once."""
    picks = picks.tolist()
    lifted = {p: _back_transform(ctx, p) if p >= 0 else ctx.abstained for p in set(picks)}
    return [lifted[p] for p in picks]


def _traces(ctx: LearnerContext, batch: tuple[np.ndarray, ...]) -> list[ImproperTrace]:
    """The traces of a batch of :func:`_improper_runs`, in run order."""
    deepest, depths, medians, cand, scores, picks = batch
    forced = np.where(deepest >= 0, deepest, None).tolist()
    traces = []
    lists = [a.tolist() for a in (medians, cand, scores, picks, depths)]
    for z, padded, row, p, d, f, h in zip(*lists, forced, _hypotheses(ctx, picks)):
        c = tuple(q for q in padded if q >= 0)
        traces.append(
            ImproperTrace(
                reference_concept=ctx.f,
                reference_index=ctx.f_index,
                subset_depths=tuple(d),
                subset_deepest=tuple(f),
                median_depth=z,
                candidates=c,
                scores=tuple(row[: len(c)]),
                chosen_point=p if p >= 0 else None,
                hypothesis=h,
            )
        )
    return traces


def _dealt_summaries(
    ctx: LearnerContext, codes: np.ndarray, t: int, rng: np.random.Generator, runs: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_subset_summaries` of ``runs`` fresh round-robin deals.

    The presence codes are shuffled as ``runs`` rows, with the draws of
    ``runs`` calls of ``rng.permutation(len(codes))``, and the code at
    position ``j`` of run ``r`` goes to subset ``j % t``: column
    ``r t + j % t`` of one presence matrix over all ``runs * t`` subsets.
    """
    dealt = np.tile(codes, (runs, 1))
    rng.permuted(dealt, axis=1, out=dealt)
    n = len(codes)
    whole = n - n % t
    run = np.arange(runs)[:, None, None]
    pres = np.zeros((2 * len(ctx.tree.tour) + 2, runs, t), dtype=bool)
    pres[dealt[:, :whole].reshape(runs, -1, t), run, np.arange(t)] = True
    if whole < n:
        pres[dealt[:, whole:], run[:, 0], np.arange(n - whole)] = True
    return _summaries(ctx, pres.reshape(len(pres), runs * t))


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
    force_median: int | None = None,
    greedy: bool = False,
) -> ProperTrace:
    """Privately learn a hypothesis that is always a class member.

    Splits the sample, runs the improper stage on the first part, and
    returns immediately when the selected node's root path is realized by
    a concept. Otherwise it walks the pruned subtree for at most
    ``ceil(2/alpha)`` iterations: each pass draws a Laplace-noised minimum
    child weight and either selects a light child by weight (stopping) or
    descends by minimum leaf value, both via the exponential mechanism.
    The final hypothesis is the path of the smallest-id leaf in the last
    node's tour slice. As in :func:`improper_learn`, the hypothesis and
    its ``proper_index`` refer to ``cls`` as given. A point outside the
    class domain, in either sample, raises ``ValueError`` before any draw.

    ``stage2`` bypasses the internal split, and ``dataset`` is then the
    whole stage-1 sample; only with ``stage2`` may ``subset_ids`` be given,
    and it is passed to the improper stage. ``force_chosen_point``, a
    tree point, skips the improper stage; the parameter and context checks
    of :func:`improper_learn` still run first. See :func:`improper_learn` for
    the remaining hooks.
    """
    ctx = _checked_context(cls, params, context)
    if subset_ids is not None and stage2 is None:
        raise ValueError("subset_ids requires stage2")
    if force_chosen_point is not None:
        _check_in_tree(ctx.tree, force_chosen_point)
    budget = sample_budget(params, ctx.tree.height)

    # checked before any draw and whether or not the run descends
    if stage2 is None:
        codes = _codes(ctx, dataset)
        if len(codes) == 0:
            raise ValueError("dataset must be non-empty")
        n2 = min(budget.N2, len(codes) // 2)
        perm = rng.permutation(len(codes))
        codes2, codes1 = codes[perm[:n2]], codes[perm[n2:]]
    else:
        codes2, codes1 = _codes(ctx, stage2), None

    trace1: ImproperTrace | None = None
    if force_chosen_point is not None:
        chosen: int | None = force_chosen_point
    else:
        if codes1 is None:  # the stage-1 sample was passed whole
            codes1 = _codes(ctx, dataset)
        batch = _improper_runs(ctx, codes1, params, rng, 1, subset_ids, force_median, greedy)
        trace1 = _traces(ctx, batch)[0]
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
    if t_loop < 0:
        raise ValueError("loop_iterations must be nonnegative")
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
