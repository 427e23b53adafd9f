"""The three benchmark workloads, each a closed loop of one client.

Each workload builds its inputs from the workload seed, and every op ``i``
draws from its own stream ``(seed, 1, i)``, so an op's output does not
depend on how many ops ran before it or on tracing. The warm-up op draws
from ``(seed, 0)``.

* ``chain-improper``: criterion 7's improper learner on thresholds(4096),
  the deepest tree and the largest concept matrices. Set-up dominates, and
  each op partitions a fresh budget-sized sample.
* ``sweep-proper``: criterion 8's proper sweep through
  ``run_experiment`` on six non-maximum random trees. Subsets are passed
  in, so ``partition`` is bypassed; weights proportional to 0.15**depth
  make the learner descend in some trials.
* ``audit-improper``: criterion 9's improper-learner audit on the
  seven-point example class, so per-call overhead dominates.

Importing this module imports vc1learn; the runner times that import as
part of set-up. Library functions are called through the package
(``vl.f``), so the tracer's rebinding of package attributes sees them.
"""

from __future__ import annotations

import math

import numpy as np

import vc1learn as vl
from vc1learn import Distribution, ExperimentConfig, GeneratorSpec, LearnParams, PrivacyParams
from vc1learn.audit_scenarios import improper_learner_scenario

# Criterion 7 and criterion 8 parameters, and their accuracy bars
# ceil((1 - beta - 0.05) * 100) out of 100.
IMPROPER = LearnParams(alpha=0.2, beta=0.2, privacy=PrivacyParams(1.0, 1e-5))
PROPER = LearnParams(alpha=0.25, beta=0.25, privacy=PrivacyParams(1.0, 1e-5))
IMPROPER_BAR = 0.75
PROPER_BAR = 0.70
AUDIT_SLACK = 0.3  # criterion 9: estimate <= claimed epsilon + 0.3
# what improper_learner_scenario(epsilon=1, delta=1e-5) runs the learner with
AUDIT_PARAMS = LearnParams(alpha=0.2, beta=0.1, privacy=PrivacyParams(1.0, 1e-5))


class Workload:
    """Set-up, per-op input generation, the op itself, and its checks."""

    name = ""

    def __init__(self, seed: int, toy: bool = False) -> None:
        self.seed = seed
        self.toy = toy

    def rng(self, i: int | None) -> np.random.Generator:
        """The op's random stream; ``None`` is the warm-up op."""
        return np.random.default_rng([self.seed, 0] if i is None else [self.seed, 1, i])

    def setup(self) -> None:
        raise NotImplementedError

    def load(self, i: int | None, rng: np.random.Generator):
        """Untimed inputs for op ``i`` (``None``: the warm-up op)."""
        return None

    def op(self, inputs, rng: np.random.Generator):
        raise NotImplementedError

    def check(self, inputs, out) -> tuple[bool, int, int, object]:
        """(op passed, accurate results, results, JSON summary for the digest)."""
        raise NotImplementedError

    def accurate_enough(self, good: int, total: int) -> bool:
        return True

    def sizes(self) -> dict:
        raise NotImplementedError


def _budget_sizes(cls, ctx, params) -> dict:
    budget = vl.sample_budget(params, ctx.tree.height)
    return {
        "n": cls.domain_size,
        "concepts": len(cls.concepts),
        "tree_height": ctx.tree.height,
        "t": budget.t,
        "per_subset": budget.per_subset,
        "N1": budget.N1,
        "N2": budget.N2,
    }


class ChainImproper(Workload):
    name = "chain-improper"

    def setup(self) -> None:
        self.cls = vl.generate_class(GeneratorSpec("thresholds", n=64 if self.toy else 4096))
        self.ctx = vl.prepare_context(self.cls)
        self.budget = vl.sample_budget(IMPROPER, self.ctx.tree.height)
        self.dist = Distribution.uniform(self.cls.domain_size)

    def load(self, i, rng):
        target = self.cls.concepts[int(rng.integers(len(self.cls.concepts)))]
        return target, vl.sample_dataset(self.cls, target, self.dist, self.budget.N1, rng)

    def op(self, inputs, rng):
        return vl.improper_learn(self.cls, inputs[1], IMPROPER, rng, context=self.ctx)

    def check(self, inputs, out):
        target = inputs[0]
        error = vl.error_on_distribution(out.hypothesis, target, self.dist)
        ok = (
            len(out.subset_depths) == self.budget.t
            and 0 <= out.median_depth <= self.ctx.tree.height
            and all(0 <= p < self.cls.domain_size for p in out.hypothesis.ones)
        )
        summary = {"target": target.id, "error": error, "trace": out.to_json()}
        return ok, int(error <= IMPROPER.alpha), 1, summary

    def accurate_enough(self, good, total):
        return good >= IMPROPER_BAR * total

    def sizes(self):
        return {**_budget_sizes(self.cls, self.ctx, IMPROPER), "examples_per_op": self.budget.N1}


def sweep_specs(count: int, sizes=(64, 128, 256), rates=(0.2, 0.4), first_seed=8100):
    """The first ``count`` random trees with at least one unrealized node.

    Candidates cycle through the sizes and concept rates with consecutive
    generator seeds, as criterion 8 selects its classes. The classes are
    fixed; the workload seed only drives targets and data.
    """
    found = []
    k = 0
    while len(found) < count:
        spec = GeneratorSpec(
            "random_tree",
            n=sizes[k % len(sizes)],
            max_children=2 + k % 3,
            concept_rate=rates[k % len(rates)],
            seed=first_seed + k,
        )
        k += 1
        cls = vl.generate_class(spec)
        ctx = vl.prepare_context(cls)
        if not all(ctx.tree.proper.values()):
            found.append((spec, cls, ctx))
    return found


def depth_weights(ctx, base: float = 0.15) -> tuple[float, ...]:
    """Sampling weights proportional to ``base ** depth`` over the input domain."""
    depth = ctx.depth_vec[ctx.point_map].astype(np.float64)
    w = base**depth
    return tuple(float(x) for x in w / w.sum())


class SweepProper(Workload):
    name = "sweep-proper"

    def setup(self) -> None:
        self.trials = 2 if self.toy else 5
        chosen = sweep_specs(1, sizes=(32,)) if self.toy else sweep_specs(6)
        self.classes = [(spec, ctx, depth_weights(ctx)) for spec, _, ctx in chosen]

    def load(self, i, rng):
        # ops cycle through the classes in a fixed order
        spec, ctx, weights = self.classes[(i or 0) % len(self.classes)]
        config = ExperimentConfig(
            generator=spec,
            params=PROPER,
            mode="proper",
            trials=self.trials,
            seed=int(rng.integers(2**63)),
            weights=weights,
        )
        return config, ctx

    def op(self, inputs, rng):
        config, ctx = inputs
        return vl.run_experiment(config, context=ctx)

    def check(self, inputs, rows):
        ok = len(rows) == self.trials and all(r.proper_flag for r in rows)
        good = sum(1 for r in rows if r.error_d <= PROPER.alpha)
        summary = [[r.trial, r.n, r.error_d, r.proper_flag, r.chosen_point] for r in rows]
        return ok, good, len(rows), summary

    def accurate_enough(self, good, total):
        return good >= PROPER_BAR * total

    def sizes(self):
        return {
            "classes": [
                {"spec": [s.n, s.max_children, s.concept_rate, s.seed], **_budget_sizes(c.base, c, PROPER)}
                for s, c, _ in self.classes
            ],
            "trials_per_op": self.trials,
        }


class AuditImproper(Workload):
    name = "audit-improper"

    def setup(self) -> None:
        self.trials = 8 if self.toy else 64
        self.cls = vl.example_class()
        self.ctx = vl.prepare_context(self.cls)
        self.mech, self.data_a, self.data_b, self.claimed = improper_learner_scenario(
            epsilon=1.0, delta=1e-5, n=30, cls=self.cls, context=self.ctx
        )

    def op(self, inputs, rng):
        return vl.dp_audit(self.mech, self.data_a, self.data_b, self.trials, self.claimed.delta, rng)

    def check(self, inputs, estimate):
        ok = math.isfinite(estimate) and estimate <= self.claimed.epsilon + AUDIT_SLACK
        return ok, 1, 1, estimate

    def sizes(self):
        n = len(self.data_a)
        t = min(vl.sample_budget(AUDIT_PARAMS, self.ctx.tree.height).t, n)
        return {
            "n": self.cls.domain_size,
            "concepts": len(self.cls.concepts),
            "tree_height": self.ctx.tree.height,
            "examples": n,
            "t": t,
            "per_subset": math.ceil(n / t),
            "trials_per_op": self.trials,
            "mechanism_calls_per_op": 2 * self.trials,
        }


WORKLOADS = {w.name: w for w in (ChainImproper, SweepProper, AuditImproper)}
