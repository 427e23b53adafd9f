import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vc1learn import (
    PrivacyParams,
    advanced_composition,
    alpha_median_set,
    choosing_mechanism,
    choosing_utility_bound,
    exponential_mechanism,
    laplace_sample,
    optimal_composition,
    private_median,
    required_median_size,
)
from vc1learn.mechanisms import (
    GATE_NOISE_SCALE,
    GATE_THRESHOLD_SCALE,
    _choosing_rows,
    _softmax_cdf,
)


def test_laplace_rejects_bad_scale(rng):
    with pytest.raises(ValueError):
        laplace_sample(0.0, rng)
    with pytest.raises(ValueError):
        laplace_sample(-1.0, rng)
    with pytest.raises(ValueError):
        laplace_sample(float("nan"), rng)
    # an infinite scale would return an infinite draw; rejected before it
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="positive and finite"):
        laplace_sample(math.inf, rng)
    assert rng.bit_generator.state == state


def test_laplace_median_and_tail(rng):
    draws = np.array([laplace_sample(1.0, rng) for _ in range(200_000)])
    assert abs(np.median(draws)) < 0.02
    # P(|X| > 2) = exp(-2)
    assert abs(np.mean(np.abs(draws) > 2.0) - math.exp(-2)) < 0.01


def test_laplace_scale_parameter(rng):
    draws = np.array([laplace_sample(3.0, rng) for _ in range(100_000)])
    # mean absolute deviation of Laplace(b) is b
    assert abs(np.mean(np.abs(draws)) - 3.0) < 0.1


def test_exponential_mechanism_symmetry(rng):
    outs = [
        exponential_mechanism([("a", 1.0), ("b", 1.0)], 1.0, 1.0, rng)
        for _ in range(100_000)
    ]
    assert abs(outs.count("a") / len(outs) - 0.5) < 0.01


def test_exponential_mechanism_closed_form(rng):
    # scores (0, 2), sensitivity 1, eps 1: odds e^0 : e^1
    p_b = math.e / (1 + math.e)
    outs = [
        exponential_mechanism([("a", 0.0), ("b", 2.0)], 1.0, 1.0, rng)
        for _ in range(100_000)
    ]
    assert abs(outs.count("b") / len(outs) - p_b) < 0.01


def test_exponential_mechanism_edge_cases(rng):
    assert exponential_mechanism([("only", -5.0)], 1.0, 1.0, rng) == "only"
    with pytest.raises(ValueError):
        exponential_mechanism([], 1.0, 1.0, rng)
    # huge scores must not overflow
    out = exponential_mechanism([("a", 1e6), ("b", 1e6 - 1)], 1.0, 1.0, rng)
    assert out in ("a", "b")
    # rejected before any arithmetic: no "invalid value" warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (float("nan"), float("inf"), float("-inf")):
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match="NaN"):
                exponential_mechanism([("a", bad), ("b", 1.0)], 1.0, 1.0, rng)
            assert rng.bit_generator.state == state  # rejected before the draw
    # a bad sensitivity or epsilon, NaN or infinite included, and logits
    # that overflow are rejected before the draw
    nan = float("nan")
    for sensitivity, eps, message in [
        (0.0, 1.0, "sensitivity"), (nan, 1.0, "sensitivity"),
        (1.0, -1.0, "epsilon"), (1.0, nan, "epsilon"), (1.0, math.inf, "epsilon"),
        (1e-300, 1e10, "overflows"), (1.0, 1e308, "overflows"),
    ]:
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            exponential_mechanism([("a", 1.0), ("b", 2.0)], sensitivity, eps, rng)
        assert rng.bit_generator.state == state


def test_choosing_mechanism_abstains_on_zero_scores(rng):
    scores = {z: 0 for z in range(5)}
    outs = [
        choosing_mechanism(scores, 1, 100, PrivacyParams(1.0, 1e-6), 0.1, rng)
        for _ in range(200)
    ]
    assert outs.count(None) >= 195


def test_choosing_mechanism_selects_dominant_solution(rng):
    scores = {"a": 100, "b": 1}
    scores.update({f"z{i}": 0 for i in range(118)})
    priv = PrivacyParams(1.0, 1e-6)
    outs = [choosing_mechanism(scores, 1, 120, priv, 0.1, rng) for _ in range(1000)]
    assert outs.count("a") >= 900


def test_choosing_mechanism_validates_parameters(rng):
    ok = PrivacyParams(1.0, 1e-6)
    for scores, k, n, priv, message in [
        ({"a": 1}, 1, 10, PrivacyParams(2.5, 1e-6), "epsilon must be in (0, 2)"),
        ({"a": 1}, 1, 10, PrivacyParams(1.0, 0.0), "delta must be positive"),
        ({"a": 1}, 0, 10, ok, "'k' must be an integer of at least 1, not 0"),
        ({"a": 1}, 1, -1, ok, "'n' must be an integer of at least 0, not -1"),
        # both ran silently, the gate's threshold at the fractional count
        ({"a": 1}, 1.5, 10, ok, "'k' must be an integer of at least 1, not 1.5"),
        ({"a": 1}, 1, 2.5, ok, "'n' must be an integer of at least 0, not 2.5"),
        ({"a": 1, "b": -1}, 1, 10, ok, "scores must be nonnegative"),
        # a NaN maximum fails both gate comparisons, which would pass the gate
        ({"a": math.nan, "b": 3}, 1, 10, PrivacyParams(1.0, 1e-3), "scores must be nonnegative"),
        # an infinite maximum passes the gate and fails the selection's draw
        ({"a": math.inf, "b": 1}, 1, 10, PrivacyParams(1.0, 1e-3), "scores must be nonnegative"),
    ]:
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=re.escape(message)):
            choosing_mechanism(scores, k, n, priv, 0.1, rng)
        assert rng.bit_generator.state == state
    for beta in (0.0, 1.0, math.nan):
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=re.escape("beta must be in (0, 1)")):
            choosing_mechanism({"a": 1}, 1, 10, ok, beta, rng)
        assert rng.bit_generator.state == state


def test_choosing_utility_bound_validates_parameters():
    assert choosing_utility_bound(1, 10, PrivacyParams(2.0, 1e-5), 0.1) > 0  # sizing takes eps 2
    for k, priv, beta in [
        (1, PrivacyParams(1.0, 0.0), 0.1),
        (1, PrivacyParams(0.0, 1e-6), 0.1),
        (1, PrivacyParams(1.0, 1e-6), 0.0),
        (1, PrivacyParams(1.0, 1e-6), 1.0),
        (0, PrivacyParams(1.0, 1e-6), 0.1),
        (1.5, PrivacyParams(1.0, 1e-6), 0.1),
    ]:
        with pytest.raises(ValueError):
            choosing_utility_bound(k, 10, priv, beta)
    with pytest.raises(ValueError, match="'k' must be an integer of at least 1, not 1.5"):
        choosing_utility_bound(1.5, 10, PrivacyParams(1.0, 1e-5), 0.1)
    # each returned a bound, the last two the one at n = 1
    for n in (10.5, True, -5):
        with pytest.raises(ValueError, match=re.escape(f"'n' must be an integer of at least 0, not {n!r}")):
            choosing_utility_bound(1, n, PrivacyParams(1.0, 1e-5), 0.1)


def test_choosing_utility_bound_monte_carlo(rng):
    # utility violations at most beta (plus sampling slack) on random instances
    beta = 0.1
    priv = PrivacyParams(1.0, 1e-6)
    violations = 0
    trials = 300
    for _ in range(trials):
        n = int(rng.integers(20, 200))
        n_solutions = int(rng.integers(2, 20))
        raw = rng.multinomial(n, np.full(n_solutions, 1 / n_solutions))
        scores = {i: int(s) for i, s in enumerate(raw)}
        out = choosing_mechanism(scores, 1, n, priv, beta, rng)
        got = 0 if out is None else scores[out]
        bound = choosing_utility_bound(1, n, priv, beta)
        if got < max(scores.values()) - bound:
            violations += 1
    assert violations / trials <= beta + 2 * math.sqrt(beta * (1 - beta) / trials)


def test_private_median_concentrated_values(rng):
    priv = PrivacyParams(1.0, 0.0)
    n = required_median_size(100, 1 / 3, 0.05, priv)
    outs = [
        private_median([5] * n, 100, 1 / 3, priv, 0.05, rng) for _ in range(200)
    ]
    assert outs.count(5) >= 0.95 * len(outs)


def test_private_median_bimodal(rng):
    priv = PrivacyParams(1.0, 0.0)
    values = [2] * 40 + [7] * 40
    admissible = alpha_median_set(values, 1 / 3)
    assert admissible == set(range(2, 8))  # brute-force rank counting
    outs = [
        private_median(values, 50, 1 / 3, priv, 0.05, rng) for _ in range(200)
    ]
    hit = sum(1 for m in outs if m in admissible)
    assert hit >= 0.95 * len(outs)


def test_private_median_validation(rng):
    priv = PrivacyParams(1.0, 0.0)
    with pytest.raises(ValueError, match="empty values"):
        private_median([], 10, 1 / 3, priv, 0.1, rng)
    with pytest.raises(ValueError):
        private_median([11], 10, 1 / 3, priv, 0.1, rng)
    with pytest.raises(ValueError):
        private_median([1], 10, 0.9, priv, 0.1, rng)
    # no casts: non-integer values are rejected before the draw
    for values in ([1.5, 1.5, 1.5], [True, 2]):
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="values must be integers"):
            private_median(values, 4, 1 / 3, priv, 0.1, rng)
        assert rng.bit_generator.state == state
    # nor a non-integer domain_max, which a cast would read as 1 or fail on
    for bad in (2.5, True):
        state = rng.bit_generator.state
        message = f"'domain_max' must be an integer of at least 0, not {bad}"
        with pytest.raises(ValueError, match=re.escape(message)):
            private_median([1, 2], bad, 1 / 3, priv, 0.1, rng)
        assert rng.bit_generator.state == state
    # an infinite epsilon, or one whose logits overflow, before the draw
    for eps, message in ((math.inf, "positive and finite"), (1e308, "overflows")):
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            private_median([1, 2, 3], 4, 1 / 3, PrivacyParams(eps), 0.1, rng)
        assert rng.bit_generator.state == state
    assert 0 <= private_median(np.arange(3), 4, 1 / 3, priv, 0.1, rng) <= 4


def test_private_median_alpha_property_monte_carlo(rng):
    priv = PrivacyParams(1.0, 0.0)
    beta = 0.1
    failures = 0
    trials = 300
    for _ in range(trials):
        domain_max = int(rng.integers(5, 120))
        n = required_median_size(domain_max, 1 / 3, beta, priv)
        values = rng.integers(0, domain_max + 1, size=n).tolist()
        m = private_median(values, domain_max, 1 / 3, priv, beta, rng)
        n_le = sum(1 for v in values if v <= m)
        n_ge = sum(1 for v in values if v >= m)
        if min(n_le, n_ge) < (0.5 - 1 / 3) * n:
            failures += 1
    assert failures / trials <= beta + 2 * math.sqrt(beta * (1 - beta) / trials)


def test_required_median_size_shape():
    priv = PrivacyParams(1.0, 1e-6)
    base = required_median_size(100, 1 / 3, 0.1, priv)
    doubled = required_median_size(200, 1 / 3, 0.1, priv)
    assert 0 < doubled - base <= math.ceil(2 / ((1 / 3) * 1.0) * math.log(2)) + 1
    assert required_median_size(100, 0.5, 0.1, priv) <= base
    assert required_median_size(100, 1 / 3, 0.1, PrivacyParams(2.0, 0)) <= base
    assert required_median_size(100, 1 / 3, 0.1, priv) == base  # deterministic
    # 2.5 gave a size for 3.5 domain values
    for bad in (-1, 2.5):
        message = f"'domain_max' must be an integer of at least 0, not {bad}"
        with pytest.raises(ValueError, match=message):
            required_median_size(bad, 1 / 3, 0.1, priv)
    for beta in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match=re.escape("beta must be in (0, 1)")):
            required_median_size(100, 1 / 3, beta, priv)


def test_sizing_functions_refuse_an_eps_too_small_for_a_finite_size():
    # the bound's divisor beta * eps * delta underflows to 0, and the median
    # size is infinite: ValueError, not ZeroDivisionError or OverflowError
    with pytest.raises(ValueError, match="log term overflows"):
        choosing_utility_bound(1, 1, PrivacyParams(1e-320, 1e-5), 0.1)
    # at eps 1e-310 the log term is finite but 16 / eps is not
    with pytest.raises(ValueError, match="bound or its log term overflows"):
        choosing_utility_bound(1, 1, PrivacyParams(1e-310, 1e-5), 0.1)
    with pytest.raises(ValueError, match="sample size overflows"):
        required_median_size(3, 0.25, 0.1, PrivacyParams(1e-320))


def _composed(eps, k, dp):
    """min(basic, full Dwork-Rothblum-Vadhan), computed independently."""
    drv = math.sqrt(2 * k * math.log(1 / dp)) * eps + k * eps * (math.exp(eps) - 1)
    return min(k * eps, drv)


def test_advanced_composition_values():
    out = advanced_composition(0.1, 0.0, 50, 1e-6)
    assert out.epsilon == pytest.approx(3.7169 + 5 * (math.exp(0.1) - 1), abs=1e-4)
    assert out.epsilon >= optimal_composition(0.1, 50, 1e-6)
    assert out.delta == pytest.approx(1e-6)

    # the truncated sqrt(2 k ln(1/delta')) eps = 30.3 is below the optimum 37.9
    forty = advanced_composition(1.0, 0.0, 40, 1e-5)
    assert math.sqrt(80 * math.log(1e5)) < 30.4 < 37.8 < optimal_composition(1.0, 40, 1e-5)
    assert forty.epsilon == 40.0 >= optimal_composition(1.0, 40, 1e-5)

    single = advanced_composition(0.2, 1e-9, 1, 1e-6)
    assert single.epsilon == pytest.approx(0.2)
    assert single.epsilon >= optimal_composition(0.2, 1, 1e-6)
    assert single.delta == pytest.approx(1e-9 + 1e-6)

    zero = advanced_composition(0.0, 0.0, 10, 1e-6)
    assert zero.epsilon == 0.0

    for args, message in (
        ((math.nan, 0.0, 3, 1e-5), "composition parameters"),
        ((0.1, math.nan, 3, 1e-5), "composition parameters"),
        ((0.1, 0.0, 3, math.nan), "composition parameters"),
        ((0.1, 0.0, -1, 1e-5), "'k' must be an integer of at least 0, not -1"),
        # reported epsilon 1.5 for one and a half runs
        ((1.0, 0.0, 1.5, 1e-5), "'k' must be an integer of at least 0, not 1.5"),
        ((1.0, 0.0, True, 1e-5), "'k' must be an integer of at least 0, not True"),
    ):
        with pytest.raises(ValueError, match=message):
            advanced_composition(*args)


@settings(max_examples=100, deadline=None)
@given(
    eps=st.floats(1e-4, 5.0),
    delta=st.floats(0, 1e-3),
    k=st.integers(1, 1000),
    dp=st.floats(1e-12, 0.5),
)
def test_advanced_composition_formula_property(eps, delta, k, dp):
    assume(k * delta + dp < 1)  # composed delta must remain a probability
    out = advanced_composition(eps, delta, k, dp)
    expect = _composed(eps, k, dp)
    assert abs(out.epsilon - expect) <= 1e-12 * max(1.0, abs(expect))
    assert out.epsilon >= optimal_composition(eps, k, dp)
    assert out.delta == pytest.approx(k * delta + dp)


def test_privacy_params_validation():
    with pytest.raises(ValueError):
        PrivacyParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        PrivacyParams(1.0, 1.0)
    for eps, delta in ((float("nan"), 0.1), (1.0, float("nan"))):
        with pytest.raises(ValueError):
            PrivacyParams(eps, delta)
    assert PrivacyParams(0.0, 0.0).epsilon == 0.0


def _choice_draw(logits, rng):
    """The softmax draw through ``rng.choice(p=...)``, the reference."""
    weights = np.exp(logits - logits.max())
    return int(rng.choice(len(weights), p=weights / weights.sum()))


def _gate_then_choose(scores, k, n, privacy, beta, rng):
    """One choosing step written out: Laplace gate, then the exponential
    mechanism at eps / 2 over the positive scores; the reference."""
    eps = privacy.epsilon
    threshold = (GATE_THRESHOLD_SCALE / eps) * math.log(
        4.0 * k * max(n, 1) / (beta * eps * privacy.delta)
    )
    if max(scores, default=0) + laplace_sample(GATE_NOISE_SCALE / eps, rng) < threshold:
        return -1
    active = [(i, float(s)) for i, s in enumerate(scores) if s >= 1]
    return exponential_mechanism(active, 1.0, eps / 2.0, rng) if active else -1


def _padded(rows):
    """Rows of any lengths zero-padded into one 2-d array; a zero is never selected."""
    width = max(map(len, rows), default=0)
    padded = [row + [0] * (width - len(row)) for row in rows]
    return np.array(padded).reshape(len(rows), width)


def test_choosing_rows_draw_as_one_call_per_row():
    # gates that pass and fail, rows with no positive score and empty rows
    src = np.random.default_rng(11)
    outcomes = set()
    for seed in range(300):
        privacy = PrivacyParams(float(src.uniform(0.2, 1.9)), float(src.uniform(1e-3, 0.5)))
        n = int(src.integers(0, 400))
        k = int(src.integers(1, 3))
        rows = [
            src.integers(0, int(src.integers(1, 120)), size=int(src.integers(0, 9))).tolist()
            for _ in range(int(src.integers(1, 12)))
        ]
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _choosing_rows(_padded(rows), k, n, privacy, 0.9, a)
        want = [_gate_then_choose(row, k, n, privacy, 0.9, b) for row in rows]
        assert got == want
        assert a.bit_generator.state == b.bit_generator.state
        outcomes.update(i >= 0 for i in got)
        scores = {f"z{i}": s for i, s in enumerate(rows[0])}
        c = np.random.default_rng(seed)
        out = choosing_mechanism(scores, k, n, privacy, 0.9, c)
        assert out == (None if got[0] < 0 else f"z{got[0]}")
    assert outcomes == {True, False}


def test_choosing_rows_long_batches_draw_as_one_call_per_row():
    # each pass takes one more uniform than its row's gate, so the rows
    # after it overrun the buffer drawn for them and draw the rest again:
    # passes on the first and on the last row, runs of passes, and rows
    # whose best score is below 1 (never selected) between passes
    src = np.random.default_rng(29)
    n = 50
    for seed in range(80):
        eps = float(src.choice([0.5, 1.0, 1.9]))
        privacy = PrivacyParams(eps, 1e-3)
        threshold = (GATE_THRESHOLD_SCALE / eps) * math.log(4.0 * n / (0.9 * eps * 1e-3))
        # the gate's noise is at least -(GATE_NOISE_SCALE / eps) * 53 ln 2
        sure = math.ceil(threshold + 40.0 * GATE_NOISE_SCALE / eps)
        size = int(src.integers(2, 301))
        kinds = src.choice(["pass", "below", "fail", "near"], size=size).tolist()
        pattern = seed % 4
        if pattern == 0:
            kinds[0] = "pass"
        elif pattern == 1:
            kinds[-1] = "pass"
        elif pattern == 2:
            start = int(src.integers(0, size - 1))
            kinds[start : start + 6] = ["pass"] * len(kinds[start : start + 6])
        else:
            kinds[: 5] = ["pass", "below", "pass", "below", "pass"][: size]
        rows = []
        for kind in kinds:
            m = int(src.integers(1, 6))
            if kind == "pass":
                row = [sure] + src.integers(0, 4, size=m).tolist()
            elif kind == "below":
                row = [0] * int(src.integers(0, 3))
            elif kind == "fail":
                row = src.integers(0, 2, size=m).tolist()
            else:
                row = (round(threshold) + src.integers(-8, 8, size=m)).tolist()
            rows.append(src.permutation(row).tolist())
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _choosing_rows(_padded(rows), 1, n, privacy, 0.9, a)
        want = [_gate_then_choose(row, 1, n, privacy, 0.9, b) for row in rows]
        assert got == want, seed
        assert a.bit_generator.state == b.bit_generator.state, seed
        passed = [i >= 0 for i in got]
        assert all(p for p, kind in zip(passed, kinds) if kind == "pass")
        assert not any(p for p, kind in zip(passed, kinds) if kind == "below")


def test_softmax_row_sums_match_one_dimensional_sums():
    # a row's CDF must be the 1-d arithmetic of rng.choice to the bit: its
    # normaliser is numpy's pairwise sum over the row, which a sequential
    # sum differs from by a few ulps (too rare a shift for the draw tests)
    src = np.random.default_rng(7)
    widths = [*range(1, 300), 1000, 4097, 4500, 8191, 9000]
    for width in widths:
        for rows in (2, 7, 64):
            logits = src.normal(0.0, 3.0, size=(rows, width))
            w = np.exp(logits - logits.max(axis=1, keepdims=True))
            assert np.add.reduce(w, axis=1).tolist() == [row.sum() for row in w], width
            cdf = _softmax_cdf(logits)
            for row, got in zip(w, cdf):
                want = np.cumsum(row / row.sum())
                want /= want[-1]
                assert np.array_equal(got, want), (width, rows)


def test_softmax_cdf_refuses_a_row_without_a_finite_maximum():
    # as rng.choice does: a NaN or +inf logit, or only -inf ones
    inf = math.inf
    for bad in ([0.0, math.nan], [1.0, inf], [-inf, -inf]):
        with pytest.raises(ValueError, match="probabilities contain NaN"):
            _softmax_cdf(np.array([[0.0, 1.0], bad]))


def test_softmax_draws_match_rng_choice():
    # both mechanisms draw as rng.choice(p=...) does: the same outcome at
    # the same seed, and the same generator state afterwards
    src = np.random.default_rng(2024)
    for seed in range(1200):
        # past 128 logits numpy sums a row pairwise in blocks; the median
        # of thresholds(4096) draws from a row of 4,097
        if seed < 1000:
            k = int(src.integers(1, 60))
        else:
            k = 4097 if seed == 1000 else int(src.integers(129, 4200))
        scores = src.integers(0, 10 ** int(src.integers(1, 6)), size=k).astype(float)
        eps = float(src.uniform(0.05, 1.9))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        cands = [(f"z{i}", s) for i, s in enumerate(scores.tolist())]
        got = exponential_mechanism(cands, 1.0, eps, a)
        assert got == f"z{_choice_draw(eps * scores / 2.0, b)}"
        assert a.bit_generator.state == b.bit_generator.state

        values = src.integers(0, k, size=int(src.integers(1, 200)))
        m = np.arange(k)
        utility = np.minimum((values[:, None] <= m).sum(0), (values[:, None] >= m).sum(0))
        got = private_median(values.tolist(), k - 1, 0.25, PrivacyParams(eps), 0.1, a)
        assert got == _choice_draw(eps * utility.astype(float) / 2.0, b)
        assert a.bit_generator.state == b.bit_generator.state
