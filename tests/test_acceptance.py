"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Statistical checks use
fixed seeds; stated runtime envelopes are asserted.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from vc1learn import (
    Dataset,
    Distribution,
    ExperimentConfig,
    GeneratorSpec,
    LearnParams,
    NotRealizableError,
    PrivacyParams,
    advanced_composition,
    canonicalize,
    choosing_mechanism,
    choosing_utility_bound,
    deterministic_oracle,
    deterministic_points,
    dp_audit,
    example_class,
    exponential_mechanism,
    f_represent,
    floor_log2,
    improper_learn,
    laplace_sample,
    littlestone_dimension,
    make_rng,
    make_subtree,
    make_tree,
    optimal_composition,
    private_median,
    random_tree_class,
    required_median_size,
    run_experiment,
    sample_budget,
    thresholds_dimension,
    total_privacy,
    upward_closure,
    vc_dimension,
)
from vc1learn.audit_scenarios import (
    choosing_scenario,
    exponential_mechanism_scenario,
    improper_learner_scenario,
    laplace_scenario,
    median_scenario,
    randomized_response_scenario,
)
from vc1learn.learners import prepare_context

from conftest import build_corpus, represented_class

X1, X2, X3, X4, X5, X6, X7 = range(7)


@contextmanager
def criterion(num: int, description: str, limit_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"acceptance {num:02d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"acceptance {num:02d} PASS: {description} ({elapsed:.1f}s)")
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion {num} exceeded {limit_s}s"


def test_criterion_1_structure_suite(corpus):
    with criterion(1, "structure of 200 generated classes", limit_s=60.0):
        assert len(corpus) == 200
        assert max(c.domain_size for c in corpus) <= 64
        for cls in corpus:
            base, _ = canonicalize(cls)
            for f_idx in {0, len(base.concepts) // 2}:
                ctx = prepare_context(base, f_index=f_idx)
                rep, tree = represented_class(ctx), ctx.tree
                # make_tree validates every up-set is a chain; recheck depth
                points = tree.tour.tolist()
                for p in points:
                    par = tree.parent[p]
                    expect = 1 if par < 0 else tree.depth[par] + 1
                    assert tree.depth[p] == expect
                # every concept is the upward closure of its deepest element
                for c in rep.concepts:
                    if not c.ones:
                        continue
                    deepest = max(c.ones, key=lambda q: tree.depth[q])
                    assert c.ones == upward_closure(tree, deepest)
                # every leaf is proper
                for p in points:
                    if not (tree.parent == p).any():
                        assert tree.proper[p]
                # subtree leaves are exactly its proper nodes
                for p in points:
                    sub = make_subtree(tree, p)
                    assert sub.leaves == {q for q in sub.nodes if tree.proper[q]}
                    assert not any(tree.proper[q] for q in sub.nodes - sub.leaves)


def test_criterion_2_dimension_sandwich(small_corpus):
    with criterion(2, "dimension sandwich and depth bound, domain <= 12", limit_s=300.0):
        assert small_corpus and all(c.domain_size <= 12 for c in small_corpus)
        for cls in small_corpus:
            base, _ = canonicalize(cls)
            d_l = littlestone_dimension(base)
            td = thresholds_dimension(base)
            assert floor_log2(d_l) <= td <= 2 ** (d_l + 1)
            ctx = prepare_context(base)
            td_rep = thresholds_dimension(represented_class(ctx))
            assert ctx.tree.height <= td_rep


def test_criterion_3_representation_invariance(small_corpus):
    with criterion(3, "vc and littlestone invariant under representation, domain <= 10"):
        classes = [c for c in small_corpus if c.domain_size <= 10]
        assert classes
        for cls in classes:
            base, _ = canonicalize(cls)
            vc0 = vc_dimension(base)
            ld0 = littlestone_dimension(base)
            for f in base.concepts:
                rep = f_represent(base, f)
                assert vc_dimension(rep) == vc0
                assert littlestone_dimension(rep) == ld0


def test_criterion_4_mechanism_distributions():
    with criterion(4, "mechanism output distributions", limit_s=600.0):
        rng = make_rng(2024)

        # exponential mechanism vs closed form, total variation at 1e5 draws
        scores = [("a", 0.0), ("b", 1.0), ("c", 2.0), ("d", 3.0)]
        weights = np.exp([0.5 * s for _, s in scores])
        exact = weights / weights.sum()
        draws = [exponential_mechanism(scores, 1.0, 1.0, rng) for _ in range(100_000)]
        ids = [c[0] for c in scores]
        freq = np.array([draws.count(i) for i in ids]) / len(draws)
        assert 0.5 * np.abs(freq - exact).sum() <= 0.02

        # Laplace tail at t=2 over 1e6 draws
        tail = np.mean(
            [abs(laplace_sample(1.0, rng)) > 2.0 for _ in range(1_000_000)]
        )
        assert abs(tail - math.exp(-2)) <= 0.005

        # bounded-quality selection: utility bound violations
        beta = 0.1
        priv = PrivacyParams(1.0, 1e-6)
        violations = 0
        trials = 1000
        for _ in range(trials):
            n = int(rng.integers(20, 300))
            width = int(rng.integers(2, 30))
            raw = rng.multinomial(n, np.full(width, 1 / width))
            scores = {i: int(s) for i, s in enumerate(raw)}
            out = choosing_mechanism(scores, 1, n, priv, beta, rng)
            got = 0 if out is None else scores[out]
            if got < max(scores.values()) - choosing_utility_bound(1, n, priv, beta):
                violations += 1
        slack = 2 * math.sqrt(beta * (1 - beta) / trials)
        assert violations / trials <= beta + slack

        # private median alpha-property at its required size
        failures = 0
        for _ in range(trials):
            domain_max = int(rng.integers(4, 200))
            n = required_median_size(domain_max, 1 / 3, beta, priv)
            mode = int(rng.integers(3))
            if mode == 0:
                values = rng.integers(0, domain_max + 1, size=n)
            elif mode == 1:
                center = int(rng.integers(domain_max + 1))
                values = np.clip(
                    rng.normal(center, domain_max / 8, size=n), 0, domain_max
                ).astype(int)
            else:
                a, b = rng.integers(0, domain_max + 1, size=2)
                values = np.where(rng.random(n) < 0.5, a, b)
            values = values.tolist()
            m = private_median(values, domain_max, 1 / 3, priv, beta, rng)
            n_le = sum(1 for v in values if v <= m)
            n_ge = sum(1 for v in values if v >= m)
            if min(n_le, n_ge) < (0.5 - 1 / 3) * n:
                failures += 1
        assert failures / trials <= beta + slack


def _all_datasets(domain: int, max_len: int):
    pairs = [(x, y) for x in range(domain) for y in (0, 1)]
    for size in range(max_len + 1):
        for combo in itertools.combinations_with_replacement(pairs, size):
            yield Dataset.from_pairs(list(combo))


def test_criterion_5_oracle_equivalence(example_cls):
    with criterion(5, "deterministic-point oracle equivalence, exhaustive"):
        classes = [example_cls] + [
            random_tree_class(6, max_children=3, concept_rate=0.5, seed=s)
            for s in range(20)
        ]
        for cls in classes:
            tree = make_tree(cls)
            for data in _all_datasets(cls.domain_size, 3):
                try:
                    expected = deterministic_oracle(cls, data)
                except NotRealizableError:
                    with pytest.raises(NotRealizableError):
                        deterministic_points(cls, data, tree=tree)
                    continue
                got = deterministic_points(cls, data, tree=tree)
                assert got.points == expected


def test_criterion_6_worked_example(example_cls):
    with criterion(6, "worked seven-point pipeline with pinned median"):
        ctx = prepare_context(example_cls, f_index=7)
        layers = {}
        for p in ctx.tree.tour.tolist():
            layers.setdefault(int(ctx.tree.depth[p]), set()).add(p)
        assert layers == {1: {X1, X2, X3}, 2: {X4, X5}, 3: {X6, X7}}

        params = LearnParams(alpha=0.2, beta=0.2, privacy=PrivacyParams(1.0, 1e-5))
        # subset 0 holds x1; subset 1 holds x1, x5 and x7
        trace = improper_learn(
            example_cls,
            Dataset.from_pairs([(X1, 1), (X1, 1), (X5, 1), (X7, 1)]),
            params,
            make_rng(0),
            context=ctx,
            subset_ids=np.array([0, 1, 1, 1]),
            force_median=2,
            greedy=True,
        )
        assert trace.subset_depths == (1, 3)
        assert trace.candidates == (X4, X5)
        assert dict(zip(trace.candidates, trace.scores)) == {X4: 0, X5: 1}
        assert trace.chosen_point == X5
        assert trace.hypothesis.ones == frozenset({X1, X5})
        assert trace.hypothesis.proper_index == 4  # the {x1, x5} concept


IMPROPER_PARAMS = LearnParams(alpha=0.2, beta=0.2, privacy=PrivacyParams(1.0, 1e-5))
PROPER_PARAMS = LearnParams(alpha=0.25, beta=0.25, privacy=PrivacyParams(1.0, 1e-5))


def _random_specs(count, start_seed, rate_choices, sizes):
    specs = []
    seed = start_seed
    while len(specs) < count:
        specs.append(
            GeneratorSpec(
                "random_tree",
                n=sizes[len(specs) % len(sizes)],
                max_children=2 + len(specs) % 4,
                concept_rate=rate_choices[len(specs) % len(rate_choices)],
                seed=seed,
            )
        )
        seed += 1
    return specs


def test_criterion_7_improper_end_to_end():
    with criterion(7, "improper learner accuracy at the derived budget", limit_s=900.0):
        specs = [GeneratorSpec("thresholds", n=4096)] + _random_specs(
            20, 100, (0.3, 0.5, 0.8, 1.0), (16, 32, 64, 128, 256)
        )
        need = math.ceil((1 - IMPROPER_PARAMS.beta - 0.05) * 100)
        for spec in specs:
            rows = run_experiment(
                ExperimentConfig(
                    generator=spec,
                    params=IMPROPER_PARAMS,
                    mode="improper",
                    trials=100,
                    seed=7000 + (spec.seed or 0),
                )
            )
            good = sum(1 for r in rows if r.error_d <= IMPROPER_PARAMS.alpha)
            assert good >= need, f"{spec}: only {good}/100 within alpha"


def test_criterion_8_proper_end_to_end():
    with criterion(8, "proper learner membership and accuracy at budget"):
        specs = [GeneratorSpec("modified_example")]
        for cand in _random_specs(60, 300, (0.2, 0.4, 0.6), (16, 32, 64, 128, 256)):
            if len(specs) == 21:
                break
            cls = random_tree_class(cand.n, cand.max_children, cand.concept_rate, cand.seed)
            tree = prepare_context(cls).tree
            if not all(tree.proper.values()):  # non-maximum classes only
                specs.append(cand)
        assert len(specs) == 21
        need = math.ceil((1 - PROPER_PARAMS.beta - 0.05) * 100)
        for spec in specs:
            rows = run_experiment(
                ExperimentConfig(
                    generator=spec,
                    params=PROPER_PARAMS,
                    mode="proper",
                    trials=100,
                    seed=8000 + (spec.seed or 0),
                )
            )
            assert all(r.proper_flag for r in rows)  # member in 100% of runs
            good = sum(1 for r in rows if r.error_d <= PROPER_PARAMS.alpha)
            assert good >= need, f"{spec}: only {good}/100 within alpha"


def test_criterion_9_privacy_audits():
    with criterion(9, "privacy audits do not refute claimed budgets"):
        trials = 100_000

        mech, d0, d1, claimed = randomized_response_scenario(1.0)
        est = dp_audit(mech, d0, d1, 1_000_000, 0.0, make_rng(91))
        assert 0.8 <= est <= 1.05, f"calibration estimate {est}"

        scenarios = {
            "improper": improper_learner_scenario(epsilon=1.0, delta=1e-5, n=30),
            "laplace": laplace_scenario(1.0),
            "em": exponential_mechanism_scenario(1.0),
            "choosing": choosing_scenario(1.0, 1e-6),
            "median": median_scenario(1.0),
        }
        for idx, (name, (mech, d_a, d_b, claimed)) in enumerate(scenarios.items()):
            est = dp_audit(
                mech, d_a, d_b, trials, claimed.delta, make_rng(9100 + idx)
            )
            assert est <= claimed.epsilon + 0.3, f"{name}: {est} vs {claimed.epsilon}"


def test_criterion_10_budget_accounting():
    def composed(eps, k, dp):
        # min(basic, full Dwork-Rothblum-Vadhan); the truncated
        # sqrt(2 k ln(1/dp)) eps can fall below the exact optimum
        drv = math.sqrt(2 * k * math.log(1 / dp)) * eps + k * eps * (math.exp(eps) - 1)
        return min(k * eps, drv)

    with criterion(10, "composition accounting to 1e-12 relative error"):
        rng = make_rng(10)
        for _ in range(100):
            eps = float(rng.uniform(1e-3, 2.0))
            delta = float(rng.uniform(0, 1e-4))
            k = int(rng.integers(1, 500))
            dp = float(rng.uniform(1e-12, 0.1))
            out = advanced_composition(eps, delta, k, dp)
            expect = composed(eps, k, dp)
            assert abs(out.epsilon - expect) <= 1e-12 * expect
            assert out.epsilon >= optimal_composition(eps, k, dp)
            assert abs(out.delta - (k * delta + dp)) <= 1e-15

            params = LearnParams(
                alpha=float(rng.uniform(0.05, 0.4)),
                beta=0.1,
                privacy=PrivacyParams(eps, max(delta, 1e-9)),
            )
            budget = sample_budget(params, int(rng.integers(1, 5000)))
            total = total_privacy(params, budget, delta_prime=dp)
            loop_eps = composed(2 * eps, budget.T, dp)
            assert abs((total.epsilon - 2 * eps) - loop_eps) <= 1e-12 * loop_eps
            assert total.epsilon - 2 * eps >= optimal_composition(2 * eps, budget.T, dp)
            assert abs((total.delta - 2 * params.privacy.delta) - dp) <= 1e-15
            assert total_privacy(params, budget, loop_iterations=0) == PrivacyParams(
                2 * eps, 2 * params.privacy.delta
            )
