"""Seeded experiment sweeps producing CSV evidence.

A sweep fixes a generated class, draws fresh data per trial, runs a
learner, and scores the output hypothesis exactly against the sampling
distribution. Identical config and seed give identical rows; trials use
spawned random streams keyed by index, so results do not depend on
execution order.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .concepts import Dataset, _check_fields, _check_int
from .generators import GeneratorSpec, generate_class, sample_dataset
from .learners import (
    LearnParams,
    LearnerContext,
    _checked_context,
    improper_learn,
    proper_learn,
    sample_budget,
)
from .mechanisms import PrivacyParams
from .oracles import Distribution, error_on_distribution
from .rng import make_rng

@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a class, a labeling policy, learner knobs, and trial count;
    its fields are checked when built (:func:`~vc1learn.concepts._check_fields`)."""

    generator: GeneratorSpec
    params: LearnParams
    mode: str = "improper"  # improper | proper
    trials: int = field(default=1, metadata={"lo": 1})
    seed: int = 0
    concept_index: int | None = None  # None: a fresh random concept per trial
    weights: tuple[float, ...] | None = None  # None: uniform
    n_override: int | None = field(default=None, metadata={"lo": 1})  # None: the derived budget

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.mode not in ("improper", "proper"):
            raise ValueError("mode must be 'improper' or 'proper'")


@dataclass(frozen=True)
class ReportRow:
    trial: int
    mode: str
    n: int
    epsilon: float
    delta: float
    alpha: float
    beta: float
    error_d: float
    proper_flag: bool
    chosen_point: int | None
    runtime_ms: float
    seed: int


def _draw_subsets(
    ctx: LearnerContext,
    concept_row: np.ndarray,
    weights: np.ndarray,
    t: int,
    m: int,
    rng: np.random.Generator,
) -> tuple[Dataset, np.ndarray]:
    """``t`` subsets of ``m`` i.i.d. examples from ``weights``, labeled by
    ``concept_row``, each reduced to the examples its summary reads.

    The law. Relabeled, the target's 1-points are the root path ``P`` of a
    proper node, and every example is realizable. Let ``d`` be the deepest
    point of ``P`` a subset holds. With ``T_j`` the weight of the points of
    ``P`` deeper than ``p_j``, ``d`` is ``p_j`` or shallower (or absent)
    exactly when no draw falls on those deeper points: probability
    ``(1 - T_j) ** m``. So one inverse-CDF uniform per subset draws ``d``.
    No 0-label lies at or above ``d``, so :func:`~vc1learn.tree.forced_nodes`
    gives "none" without ``d`` and ``d`` at a proper ``d``. At an improper
    ``d`` the summary also reads which label-0 codes of ``d``'s tour
    interval the subset holds. Given ``d``, the ``m`` draws fall on the
    points not deeper on ``P``, at least one on ``d``: the first hit on
    ``d`` is a geometric truncated to ``[1, m]``, each later draw misses
    ``d`` by a binomial, and the misses spread by a multinomial over those
    codes plus one cell for everything else. That is one vectorised draw
    per distinct improper ``d``, costing ``d``'s subtree, not the domain.

    Returns what the learners' ``subset_ids`` hook takes: per subset, one
    example at ``d`` (relabeled 0 for "none") plus the 0-points drawn
    under an improper ``d``, and each example's subset id. Any point of a
    code serves, as the learners read only codes, so the summaries are
    the drawn ones. A subset left with one example is summarised by
    lookup, and only the subsets with 0-points beside ``d`` take a
    presence column in the learner. The draws: ``t`` uniforms, then, for
    each improper path point that some subset drew as ``d``, in path
    order, its uniforms, binomials and multinomials.
    """
    tree = ctx.tree
    k = len(tree.tour)
    codes = np.where(concept_row, ctx.tour_code[1], ctx.tour_code[0])
    mass = np.bincount(codes, weights=weights, minlength=2 * k + 2)
    zeros = mass[: k + 1]  # label 0, by tour position, then off the tree
    path = np.flatnonzero(mass[k + 1 : 2 * k + 1])  # P's drawable points, in depth order
    # kept[j]: the mass off the path points deeper than the j-th (j = 0: all of them)
    kept = zeros.sum() + np.concatenate(([0.0], mass[k + 1 + path].cumsum()))
    depth_index = np.searchsorted((kept / kept[-1]) ** m, rng.random(t), side="right")
    point_of = np.zeros(2 * k + 2, dtype=np.int64)
    point_of[codes] = np.arange(len(codes))  # some point of each code
    # a relabeled 0 stands for "none", which kept[0] > 0 allows only when one exists
    heads = np.concatenate(([np.argmax(codes <= k)], point_of[k + 1 + path]))
    points, ids = [heads[depth_index]], [np.arange(t)]
    improper = np.flatnonzero(~tree.proper_mask[tree.tour[path]]) + 1
    drawn = np.zeros(len(path) + 1, dtype=bool)
    drawn[depth_index] = True
    for j in improper[drawn[improper]]:
        pos = path[j - 1]
        cells = pos + 1 + np.flatnonzero(zeros[pos + 1 : tree.tout[tree.tour[pos]]])
        if not len(cells):
            continue
        rows = np.flatnonzero(depth_index == j)
        miss = kept[j - 1] / kept[j]  # a kept draw's chance to miss d, in (0, 1)
        log_miss = np.log(miss)
        first = np.ceil(np.log1p(rng.random(len(rows)) * np.expm1(m * log_miss)) / log_miss)
        first = np.clip(first, 1, m).astype(np.int64)
        misses = first - 1 + rng.binomial(m - first, miss)
        pvals = np.append(zeros[cells], 0.0) / kept[j - 1]  # the last cell takes the rest
        hit_row, hit_cell = np.nonzero(rng.multinomial(misses, pvals)[:, :-1])
        points.append(point_of[cells[hit_cell]])
        ids.append(rows[hit_row])
    points = np.concatenate(points)
    return Dataset(points, concept_row[points]), np.concatenate(ids)


def run_experiment(
    config: ExperimentConfig, *, context: LearnerContext | None = None
) -> list[ReportRow]:
    """Run all trials of a sweep and return one row per trial.

    Every parameter, and the context, is checked before the first draw.
    """
    cls = generate_class(config.generator)
    params = config.params
    ctx = _checked_context(cls, params, context)
    budget = sample_budget(params, ctx.tree.height)
    if config.weights is None:
        dist = Distribution.uniform(cls.domain_size)
    else:
        dist = Distribution(config.weights)
    if len(dist) != cls.domain_size:
        raise ValueError("distribution support must match the domain")
    # numpy would wrap -1 onto the last concept
    if config.concept_index is not None:
        _check_int("concept_index", config.concept_index, 0, len(cls) - 1)

    rows: list[ReportRow] = []
    streams = make_rng(config.seed).spawn(config.trials)
    for trial, trng in enumerate(streams):
        if config.concept_index is None:
            c_idx = int(trng.integers(len(cls)))
        else:
            c_idx = config.concept_index
        c_star = cls.concepts[c_idx]

        start = time.perf_counter()
        ids = stage2 = None
        if config.n_override is None:
            data, ids = _draw_subsets(
                ctx, cls.row(c_idx), dist.weights, budget.t, budget.per_subset, trng
            )
            n_used = budget.N1
            if config.mode == "proper":
                stage2 = sample_dataset(cls, c_star, dist, budget.N2, trng)
                n_used += budget.N2
        else:
            n_used = config.n_override
            data = sample_dataset(cls, c_star, dist, n_used, trng)
        if config.mode == "improper":
            learn = improper_learn
        else:
            learn = partial(proper_learn, stage2=stage2)
        trace = learn(cls, data, params, trng, context=ctx, subset_ids=ids)
        elapsed_ms = (time.perf_counter() - start) * 1e3

        rows.append(
            ReportRow(
                trial=trial,
                mode=config.mode,
                n=n_used,
                epsilon=params.privacy.epsilon,
                delta=params.privacy.delta,
                alpha=params.alpha,
                beta=params.beta,
                error_d=error_on_distribution(trace.hypothesis, c_star, dist),
                proper_flag=trace.hypothesis.proper_index is not None,
                chosen_point=trace.chosen_point,
                runtime_ms=elapsed_ms,
                seed=config.seed,
            )
        )
    return rows


def config_to_json(config: ExperimentConfig) -> dict:
    return asdict(config)


def _json_object(value: object, name: str) -> dict:
    """A copy of ``value`` if it is a JSON object; ``ValueError`` otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"malformed config: {name!r} must be an object")
    return dict(value)


def config_from_json(data: dict) -> ExperimentConfig:
    """The config that ``config_to_json`` wrote as ``data``.

    Keys with defaults may be left out. Each level must be a JSON object,
    and a missing ``generator``, ``params`` or ``privacy`` raises ``KeyError``.
    An unknown key, a missing one without a default, or a value that the
    classes refuse however built raises ``ValueError`` (``malformed config: ...``).
    """
    rest = _json_object(data, "config")
    gen = _json_object(rest.pop("generator"), "generator")
    pdata = _json_object(rest.pop("params"), "params")
    privacy = _json_object(pdata.pop("privacy"), "privacy")
    try:
        return ExperimentConfig(
            generator=GeneratorSpec(**gen),
            params=LearnParams(privacy=PrivacyParams(**privacy), **pdata),
            **rest,
        )
    except (TypeError, ValueError) as exc:  # TypeError: an unknown or missing key
        raise ValueError(f"malformed config: {exc}") from None


def _cell(value: object) -> str:
    """A report cell: floats by ``repr``, flags as 0/1, None empty, the rest by ``str``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def write_report_csv(
    rows: list[ReportRow],
    config: ExperimentConfig,
    path: str | Path,
    *,
    include_runtime: bool = False,
) -> None:
    """Write rows with a '#'-prefixed config echo; a column per :class:`ReportRow` field.

    Runtime is excluded by default so identical config and seed produce
    byte-identical files; ``include_runtime=True``, for profiling runs, adds it last.
    """
    columns = [f.name for f in fields(ReportRow) if f.name != "runtime_ms"]
    lines = [
        "# vc1learn experiment report",
        "# config: " + json.dumps(config_to_json(config), sort_keys=True),
        ",".join(columns + (["runtime_ms"] if include_runtime else [])),
    ]
    for r in rows:
        vals = [_cell(getattr(r, name)) for name in columns]
        if include_runtime:
            vals.append(f"{r.runtime_ms:.3f}")
        lines.append(",".join(vals))
    Path(path).write_text("\n".join(lines) + "\n")
