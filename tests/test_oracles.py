import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta

from vc1learn import (
    Concept,
    ConceptClass,
    Dataset,
    Hypothesis,
    Distribution,
    NotRealizableError,
    canonicalize,
    deterministic_oracle,
    deterministic_points,
    dp_audit,
    error_on_distribution,
    example_class,
    f_represent,
    floor_log2,
    littlestone_dimension,
    make_rng,
    make_tree,
    modified_example_class,
    optimal_composition,
    point_functions_class,
    random_tree_class,
    repeated,
    sample_dataset,
    thresholds_class,
    thresholds_dimension,
    vc_dimension,
)
from vc1learn.audit_scenarios import (
    choosing_scenario,
    exponential_mechanism_scenario,
    improper_learner_scenario,
    laplace_scenario,
    median_scenario,
    randomized_response_scenario,
    unrealizable_neighbour_scenario,
)
from vc1learn import oracles
from vc1learn.oracles import AUDIT_BATCH, _clopper_pearson


def powerset_class(n):
    sets = [set(s) for k in range(n + 1) for s in itertools.combinations(range(n), k)]
    return ConceptClass.from_ones(n, sets)


def test_vc_dimension_values(example_cls):
    assert vc_dimension(example_cls) == 1
    assert vc_dimension(thresholds_class(8)) == 1
    assert vc_dimension(powerset_class(3)) == 3
    assert vc_dimension(ConceptClass.from_ones(2, [set()])) == 0


def test_vc_dimension_guard():
    with pytest.raises(ValueError, match="oracle scale exceeded"):
        vc_dimension(thresholds_class(25))


def test_littlestone_values():
    assert littlestone_dimension(point_functions_class(4)) == 1
    assert littlestone_dimension(thresholds_class(8)) == 3
    assert littlestone_dimension(ConceptClass.from_ones(3, [{0, 1}])) == 0
    # mistake bound grows with the log of the chain length
    for k in (2, 4, 16):
        assert littlestone_dimension(thresholds_class(k)) == k.bit_length() - 1


def test_thresholds_dimension_is_chain_length():
    for k in range(1, 7):
        assert thresholds_dimension(thresholds_class(k)) == k


def test_thresholds_dimension_example(example_cls):
    td = thresholds_dimension(example_cls)
    # witness by hand: (x7, x5, x1) against ({x1,x5,x7}, {x1,x5,x6}, {x1,x4})
    assert td >= 3
    assert td >= make_tree(example_cls).height
    assert td == 3  # frozen from this oracle


def thresholds_dimension_reference(cls):
    """The literal backtracking search, with no memo."""
    concept_masks = sorted({sum(1 << p for p in c.ones) for c in cls.concepts}, reverse=True)

    def dfs(prev_points, allowed, depth):
        best = depth
        for cmask in concept_masks:
            if cmask & prev_points:
                continue
            frontier = allowed & cmask
            while frontier:
                xbit = frontier & -frontier
                frontier ^= xbit
                best = max(best, dfs(prev_points | xbit, allowed & cmask, depth + 1))
        return best

    return dfs(0, (1 << cls.domain_size) - 1, 0)


def vc_dimension_reference(cls):
    """The shattering test on the dense matrix, one ``np.unique`` per subset."""
    m = cls.matrix
    n = cls.domain_size
    max_possible = min(n, max(len(cls.concepts).bit_length() - 1, 0))
    vc = 0
    for k in range(1, max_possible + 1):
        powers = 1 << np.arange(k)
        shattered = False
        for subset in itertools.combinations(range(n), k):
            codes = m[:, subset].astype(np.int64) @ powers
            if len(np.unique(codes)) == 1 << k:
                shattered = True
                break
        if not shattered:
            return vc
        vc = k
    return vc


def littlestone_dimension_reference(cls):
    """The label-restriction recursion with a hand-kept memo dict."""

    def ldim(concepts, n, memo):
        if len(concepts) <= 1:
            return 0
        cached = memo.get(concepts)
        if cached is not None:
            return cached
        best = 0
        for x in range(n):
            bit = 1 << x
            with_one = frozenset(c for c in concepts if c & bit)
            if not with_one or len(with_one) == len(concepts):
                continue
            without = concepts - with_one
            best = max(best, 1 + min(ldim(without, n, memo), ldim(with_one, n, memo)))
        memo[concepts] = best
        return best

    masks = frozenset(sum(1 << p for p in c.ones) for c in cls.concepts)
    return ldim(masks, cls.domain_size, {})


def test_thresholds_dimension_matches_the_literal_search(corpus):
    # all three oracles against their references, on the corpus classes
    # the literal thresholds search takes well under a second for
    classes = [c for c in corpus if c.domain_size <= 12]
    classes += [thresholds_class(k) for k in range(1, 13)]
    classes += [point_functions_class(k) for k in (1, 5, 12)]
    classes += [example_class(), modified_example_class(), powerset_class(4)]
    classes += [random_tree_class(n, max_children=3, concept_rate=0.5, seed=n) for n in (6, 11)]
    rng = make_rng(7)
    repeated_rows = 0
    for i in range(90):  # dense random matrices, mostly of VC dimension 2 or more
        n, m = (int(v) for v in rng.integers(1, (10, 14)))
        matrix = rng.random((m, n)) < 0.5
        if i % 3 == 0:  # a third with rows repeated
            matrix = matrix[rng.integers(m, size=m + 2)]
        repeated_rows += len(np.unique(matrix, axis=0)) < len(matrix)
        classes.append(ConceptClass(matrix, [None] * len(matrix)))
    assert repeated_rows >= 25
    assert sum(vc_dimension_reference(c) >= 2 for c in classes) >= 40
    for cls in classes:
        assert vc_dimension(cls) == vc_dimension_reference(cls)
        assert littlestone_dimension(cls) == littlestone_dimension_reference(cls)
        assert thresholds_dimension(cls) == thresholds_dimension_reference(cls)


def test_thresholds_dimension_degenerate():
    assert thresholds_dimension(ConceptClass.from_ones(2, [set()])) == 0
    assert thresholds_dimension(ConceptClass.from_ones(2, [{0}])) == 1


def test_dimension_sandwich_small(small_corpus):
    for cls in small_corpus[:30]:
        d_l = littlestone_dimension(cls)
        td = thresholds_dimension(cls)
        assert vc_dimension(cls) <= d_l
        assert floor_log2(d_l) <= td <= 2 ** (d_l + 1)


def test_f_representation_preserves_dimensions(example_cls):
    for f in example_cls.concepts:
        rep = f_represent(example_cls, f)
        assert vc_dimension(rep) == vc_dimension(example_cls)
        assert littlestone_dimension(rep) == littlestone_dimension(example_cls)


def test_error_on_distribution():
    uniform = Distribution.uniform(4)
    a = Concept(frozenset({0}))
    b = Concept(frozenset({1}))
    assert error_on_distribution(a, a, uniform) == 0.0
    assert error_on_distribution(a, b, uniform) == pytest.approx(0.5)
    comp = Hypothesis(frozenset({1, 2, 3}))
    assert error_on_distribution(comp, a, uniform) == pytest.approx(1.0)
    skew = Distribution(np.array([0.7, 0.1, 0.1, 0.1]))
    assert error_on_distribution(a, b, skew) == pytest.approx(0.8)
    # a point off the support raises on either side, not wrapping to the end
    for off in (-1, 4):
        with pytest.raises(ValueError, match="outside distribution support"):
            error_on_distribution(Hypothesis(frozenset({off})), Concept(frozenset()), uniform)
    # and where both sets hold it: {7} against {7} read 0.0, {7, 1} against {7} 0.25
    for hyp in ({7}, {7, 1}):
        with pytest.raises(ValueError, match="outside distribution support"):
            error_on_distribution(Hypothesis(frozenset(hyp)), Concept(frozenset({7})), uniform)


def test_error_on_distribution_refuses_a_point_that_is_no_integer():
    # cast to int64, 0.5 and True read as points 0 and 1 (0.25 each), and
    # {2.9} against {2} counted point 2 twice (0.5); with only the symmetric
    # difference checked, {0.5} against {0.5} read 0.0. Each 1-set of these
    # cases is now refused when its hypothesis or concept is built
    for ones in ({0.5}, {True}, {2.9}):
        for build in (Hypothesis, Concept):
            with pytest.raises(ValueError, match="'ones' must be a set of integers"):
                build(frozenset(ones))
    # numpy integers are points, as in from_ones
    uniform, empty = Distribution.uniform(4), Concept(frozenset())
    hyp = Hypothesis(frozenset({np.int64(2), np.uint8(3)}))
    assert error_on_distribution(hyp, empty, uniform) == pytest.approx(0.5)


def test_distribution_ignores_later_writes_to_the_callers_weights():
    # the distribution caches its CDF on the first sample, so it must not
    # follow the caller's array: sampling and error read the same weights
    cls = thresholds_class(3)
    target, other = cls.concepts[0], cls.concepts[-1]
    w = np.full(3, 1 / 3)
    dist = Distribution(w)
    first = sample_dataset(cls, target, dist, 200, make_rng(0))
    err = error_on_distribution(other, target, dist)
    w[:] = [1.0, 0.0, 0.0]
    again = sample_dataset(cls, target, dist, 200, make_rng(0))
    assert np.array_equal(first.points, again.points)
    assert sorted(set(again.points.tolist())) == [0, 1, 2]
    assert error_on_distribution(other, target, dist) == err
    assert dist.weights.tolist() == [1 / 3] * 3


def all_datasets(domain, max_len):
    pairs = [(x, y) for x in range(domain) for y in (0, 1)]
    for size in range(max_len + 1):
        for combo in itertools.combinations_with_replacement(pairs, size):
            yield Dataset.from_pairs(list(combo))


def test_deterministic_oracle_matches_tree_version(example_cls):
    tree = make_tree(example_cls)
    checked = 0
    for data in all_datasets(7, 2):
        try:
            expected = deterministic_oracle(example_cls, data)
        except NotRealizableError:
            with pytest.raises(NotRealizableError):
                deterministic_points(example_cls, data, tree=tree)
            continue
        got = deterministic_points(example_cls, data, tree=tree)
        assert got.points == expected
        checked += 1
    assert checked > 50


def test_deterministic_oracle_edges(example_cls):
    assert deterministic_oracle(example_cls, Dataset.from_pairs([])) == frozenset()
    with pytest.raises(NotRealizableError):
        deterministic_oracle(example_cls, Dataset.from_pairs([(1, 1), (2, 1)]))


def test_dp_audit_constant_mechanism(rng):
    mech = repeated(lambda data, r: 0)
    d0 = Dataset.from_pairs([(0, 0)])
    d1 = Dataset.from_pairs([(0, 1)])
    assert dp_audit(mech, d0, d1, 20_000, 0.0, rng) <= 0.05


def test_dp_audit_randomized_response_calibration():
    mech, d0, d1, claimed = randomized_response_scenario(1.0)
    est = dp_audit(mech, d0, d1, 100_000, 0.0, make_rng(77))
    assert 0.75 <= est <= 1.05


def test_dp_audit_catches_a_leaky_mechanism(rng):
    leaky = repeated(lambda data, r: int(data.labels[0]))  # publishes the bit
    d0 = Dataset.from_pairs([(0, 0)])
    d1 = Dataset.from_pairs([(0, 1)])
    assert dp_audit(leaky, d0, d1, 20_000, 0.0, rng) > 3.0


def test_clopper_pearson_equals_scipy_stats_beta_ppf():
    for trials in (1, 2, 3, 10, 64, 1000, 10**5, 10**6):
        for successes in sorted({0, 1, trials // 2, trials - 1, trials}):
            for m in (1, 2, 3, 7, 16, 64, 100, 130):
                tail = 0.01 / (4 * m)
                lo = beta.ppf(tail, successes, trials - successes + 1) if successes else 0.0
                hi = (
                    beta.ppf(1.0 - tail, successes + 1, trials - successes)
                    if successes < trials
                    else 1.0
                )
                got = tuple(_clopper_pearson(successes, trials, tail, up) for up in (False, True))
                assert got == (float(lo), float(hi)), (successes, trials, m)


def test_clopper_pearson_bounds_bracket_the_observed_rate():
    # dp_audit skips an event whose count gap is at most delta * trials,
    # on the strength of lower <= successes / trials <= upper
    for trials in (1, 2, 3, 10, 64, 1000, 10**5, 10**6):
        for successes in sorted({0, 1, trials // 2, trials - 1, trials}):
            for m in (1, 2, 3, 7, 16, 64, 100, 130):
                tail = 0.01 / (4 * m)
                lo, hi = (_clopper_pearson(successes, trials, tail, up) for up in (False, True))
                assert lo <= successes / trials <= hi, (successes, trials, m)


def _unskipped_direction_bound(counts_a, counts_b, trials, delta, outcomes, tail):
    """``_direction_bound`` without its event skip: the reference the skip must match."""
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
        numer = _clopper_pearson(cum_a, trials, tail, upper=False) - delta
        if numer <= 0:
            continue
        q_hi = _clopper_pearson(cum_b, trials, tail, upper=True)
        best = max(best, math.log(numer / max(q_hi, 1e-300)))
    return best


_SIDE_A = Dataset.from_pairs([(0, 0)])
_SIDE_B = Dataset.from_pairs([(0, 1)])


def _replay(counts_a, counts_b):
    """A mechanism that returns each side's outcomes in turn, ``counts[i]`` of outcome i."""
    sides = [[o for o, c in enumerate(counts) for _ in range(c)] for counts in (counts_a, counts_b)]
    served = [0, 0]

    def mechanism(data, rng, k):
        side = int(data.labels[0])
        start = served[side]
        served[side] += k
        return sides[side][start : start + k]

    return mechanism


def _audit_and_reference(make_mechanism, trials, delta, seed=0):
    """``dp_audit`` as shipped and with the unskipped reference bound, at one seed."""
    got = dp_audit(make_mechanism(), _SIDE_A, _SIDE_B, trials, delta, make_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_direction_bound", _unskipped_direction_bound)
        want = dp_audit(make_mechanism(), _SIDE_A, _SIDE_B, trials, delta, make_rng(seed))
    return got, want


def _topped_up(counts, trials):
    """``counts`` with its last outcome raised so that they sum to ``trials``."""
    return counts[:-1] + [counts[-1] + trials - sum(counts)]


@settings(max_examples=150, deadline=None)
@given(
    counts=st.integers(1, 64).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(0, 300), min_size=m, max_size=m), min_size=2, max_size=2
        )
    ),
    delta=st.sampled_from([0.0, 1e-5, 1e-3, 0.01, 0.05]) | st.floats(0.0, 0.5),
)
def test_dp_audit_skips_no_event_that_could_raise_its_estimate(counts, delta):
    trials = max(1, *map(sum, counts))
    counts_a, counts_b = (_topped_up(c, trials) for c in counts)
    got, want = _audit_and_reference(lambda: _replay(counts_a, counts_b), trials, delta)
    assert got == want


def test_dp_audit_estimates_equal_the_unskipped_reference():
    rng = make_rng(30)
    tilt = rng.dirichlet(np.ones(64))
    many_a = rng.multinomial(20_000, tilt).tolist()
    many_b = rng.multinomial(20_000, (tilt + 1 / 64) / 2).tolist()
    # (counts_a, counts_b, delta, informative): the estimate is then positive
    cases = [
        # gaps of floor(delta * trials) and one more, at 12.5 and exactly 10
        ([512, 488], [500, 500], 0.0125, False),
        ([513, 487], [500, 500], 0.0125, False),
        ([510, 490], [500, 500], 0.01, False),
        ([511, 489], [500, 500], 0.01, False),
        ([1, 99_999], [0, 100_000], 1e-5, False),
        ([2, 99_998], [0, 100_000], 1e-5, False),
        # delta 0: equal counts, then randomized response's rates
        ([5_000, 5_000], [5_000, 5_000], 0.0, False),
        ([7_311, 2_689], [2_689, 7_311], 0.0, True),
        ([7_311, 2_689], [2_689, 7_311], 1e-5, True),
        # one outcome
        ([1_000], [1_000], 0.0, False),
        ([1_000], [1_000], 1e-5, False),
        # 64 outcomes
        (many_a, many_b, 0.0, True),
        (many_a, many_b, 1e-3, True),
        (many_a, many_a, 0.0, False),
    ]
    for counts_a, counts_b, delta, informative in cases:
        trials = sum(counts_a)
        got, want = _audit_and_reference(lambda: _replay(counts_a, counts_b), trials, delta)
        assert got == want and (want > 0) == informative, (counts_a[:2], counts_b[:2], delta)
    # binned float outcomes, one side shifted by one
    shifted = lambda: lambda data, r, k: float(data.labels[0]) + r.laplace(size=k)
    got, want = _audit_and_reference(shifted, 20_000, 1e-5, seed=31)
    assert got == want > 0


def test_dp_audit_pins_its_estimates_at_20000_trials():
    # recorded with the unskipped direction bound, so that any drift fails
    expected = {
        "rr": 0.9653908093435718,
        "improper": 0.0,
        "laplace": 0.9390703866346422,
        "em": 0.47737583714357723,
        "choosing": 0.0,
        "median": 0.4763498644985802,
    }
    scenarios = {
        "rr": randomized_response_scenario(1.0),
        "improper": improper_learner_scenario(epsilon=1.0, delta=1e-5, n=30),
        "laplace": laplace_scenario(1.0),
        "em": exponential_mechanism_scenario(1.0),
        "choosing": choosing_scenario(1.0, 1e-6),
        "median": median_scenario(1.0),
    }
    for idx, (name, (mech, d_a, d_b, claimed)) in enumerate(scenarios.items()):
        est = dp_audit(mech, d_a, d_b, 20_000, claimed.delta, make_rng(9300 + idx))
        assert est == expected[name], name


def test_dp_audit_validates_trials(rng):
    with pytest.raises(ValueError):
        dp_audit(
            repeated(lambda d, r: 0), Dataset.from_pairs([]), Dataset.from_pairs([]), 0, 0.0, rng
        )


def test_dp_audit_rejects_bad_delta_and_trials_before_any_draw():
    # a negative delta used to raise the estimate (1.50 for randomized
    # response at eps = 1, a false refutation) and a NaN one to give 0.0
    mech, d0, d1, _ = randomized_response_scenario(1.0)
    bad = [(2_000, delta, "delta must be in") for delta in (-0.5, 1.0, 1.5, math.nan)]
    bad += [(trials, 0.0, "'trials' must be an integer of at least 1") for trials in
            (0, -3, True, False, 10.0, "10", None, np.float64(10))]
    for trials, delta, msg in bad:
        rng = make_rng(5)
        with pytest.raises(ValueError, match=msg):
            dp_audit(mech, d0, d1, trials, delta, rng)
        assert rng.bit_generator.state == make_rng(5).bit_generator.state
    assert dp_audit(mech, d0, d1, np.int64(2_000), 0.0, make_rng(5)) == dp_audit(
        mech, d0, d1, 2_000, 0.0, make_rng(5))


def test_dp_audit_bins_real_outputs(rng):
    mech = repeated(lambda data, r: float(data.labels.sum()) + r.normal())
    d0 = Dataset.from_pairs([(0, 0)] * 3)
    d1 = Dataset.from_pairs([(0, 1)] + [(0, 0)] * 2)
    est = dp_audit(mech, d0, d1, 30_000, 0.0, rng)
    assert np.isfinite(est) and est >= 0.0


def test_dp_audit_asks_for_at_most_a_batch_per_call(rng):
    asked = []

    def counting(data, r, k):
        asked.append(k)
        return [0] * k

    d = Dataset.from_pairs([(0, 0)])
    trials = 2 * AUDIT_BATCH + 5
    assert dp_audit(counting, d, d, trials, 0.0, rng) == 0.0
    assert AUDIT_BATCH >= 64 and max(asked) <= AUDIT_BATCH
    assert sum(asked) == 2 * trials and len(asked) == 6
    with pytest.raises(ValueError, match="returned 1 outcomes for 5 trials"):
        dp_audit(lambda data, r, k: [0], d, d, 5, 0.0, rng)


def test_audit_scenarios_are_replace_one_neighbours():
    # (scenario, index, replacing pair) as each builder states them
    swap = 1  # the improper scenario's first point, 0, moved up by one
    target = example_class().concepts[-2]
    cases = [
        (randomized_response_scenario(1.0), 0, (0, 1)),
        (laplace_scenario(1.0), 0, (0, 1)),
        (exponential_mechanism_scenario(1.0), 0, (1, 0)),
        (choosing_scenario(1.0, 1e-6), 32, (2, 0)),
        (median_scenario(1.0), 0, (8, 0)),
        (improper_learner_scenario(1.0, 1e-5, n=30), 0, (swap, target(swap))),
    ]
    unrealizable = unrealizable_neighbour_scenario(1.0, 1e-5)
    point, label = int(unrealizable[1].points[0]), int(unrealizable[1].labels[0])
    cases.append((unrealizable, 0, (point, 1 - label)))  # the label flipped
    for (_, data_a, data_b, _), index, pair in cases:
        assert len(data_a) == len(data_b) > index
        changed = (data_a.points != data_b.points) | (data_a.labels != data_b.labels)
        assert np.flatnonzero(changed).tolist() == [index]
        assert (int(data_b.points[index]), int(data_b.labels[index])) == pair


def test_dp_audit_of_lifted_scenarios_keeps_its_estimates():
    # recorded with each one-run mechanism called trials times in a row
    expected = {
        "rr": 0.8698320186060138,
        "laplace": 0.8894983512441216,
        "em": 0.3357398390598449,
        "choosing": 0.0,
        "median": 0.4009423965502306,
    }
    scenarios = {
        "rr": randomized_response_scenario(1.0),
        "laplace": laplace_scenario(1.0),
        "em": exponential_mechanism_scenario(1.0),
        "choosing": choosing_scenario(1.0, 1e-6),
        "median": median_scenario(1.0),
    }
    for idx, (name, (mech, d_a, d_b, claimed)) in enumerate(scenarios.items()):
        est = dp_audit(mech, d_a, d_b, 3000, claimed.delta, make_rng(500 + idx))
        assert est == expected[name], name


def test_dp_audit_bins_a_batch_of_real_outputs_given_as_an_array():
    # an array batch must be taken as k outcomes: adding the two sides'
    # arrays would sum them elementwise instead of pooling them
    d0 = Dataset.from_pairs([(0, 0)] * 3)
    d1 = Dataset.from_pairs([(0, 1)] + [(0, 0)] * 2)
    as_array = lambda data, r, k: float(data.labels.sum()) + r.normal(size=k)
    one_run = repeated(lambda data, r: float(data.labels.sum()) + r.normal())
    est = dp_audit(as_array, d0, d1, 3000, 0.0, make_rng(8))
    # recorded with the one-run mechanism called 3,000 times in a row;
    # normal(size=k) draws what k normal() calls draw
    assert est == dp_audit(one_run, d0, d1, 3000, 0.0, make_rng(8)) == 1.5154387185765679


def _randomized_response_delta(eps, k, eps_total):
    """Hockey-stick divergence of k-fold randomized response, by enumeration."""
    keep = math.exp(eps) / (1 + math.exp(eps))
    total = 0.0
    for answers in itertools.product((0, 1), repeat=k):
        s = sum(answers)
        p = keep**s * (1 - keep) ** (k - s)
        q = (1 - keep) ** s * keep ** (k - s)
        total += max(0.0, p - math.exp(eps_total) * q)
    return total


@pytest.mark.parametrize(
    "eps, k, dp",
    [(0.3, 5, 1e-3), (1.0, 6, 1e-2), (2.0, 3, 1e-4), (0.1, 8, 1e-5), (0.05, 7, 0.2)],
)
def test_optimal_composition_matches_enumeration(eps, k, dp):
    opt = optimal_composition(eps, k, dp)
    assert 0.0 <= opt <= k * eps
    assert _randomized_response_delta(eps, k, opt) <= dp * (1 + 1e-9)
    if opt > 0:  # and nothing smaller is enough
        assert _randomized_response_delta(eps, k, opt * (1 - 1e-7)) > dp


def test_optimal_composition_edges():
    assert optimal_composition(1.0, 0, 1e-5) == 0.0
    assert optimal_composition(0.0, 10, 1e-5) == 0.0
    # one step: eps' = eps + ln(1 - delta' / P[truthful])
    keep = math.exp(0.5) / (1 + math.exp(0.5))
    assert optimal_composition(0.5, 1, 1e-3) == pytest.approx(
        0.5 + math.log(1 - 1e-3 / keep), abs=1e-12
    )
    with pytest.raises(ValueError):
        optimal_composition(1.0, 3, 0.0)
    # NaN fails every comparison: the bisection would never end on a NaN step
    for args in ((math.nan, 3, 1e-5), (1.0, 3, math.nan)):
        with pytest.raises(ValueError, match="composition parameters"):
            optimal_composition(*args)
    # 1.5 steps read 1.5, the bound of one and a half steps
    for k in (-1, 1.5, True):
        with pytest.raises(ValueError, match=f"'k' must be an integer of at least 0, not {k}"):
            optimal_composition(1.0, k, 1e-5)
