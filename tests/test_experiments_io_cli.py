import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vc1learn import (
    ConceptClass,
    Dataset,
    ExperimentConfig,
    GeneratorSpec,
    LearnParams,
    PrivacyParams,
    canonicalize,
    example_class,
    generate_class,
    improper_learn,
    make_rng,
    modified_example_class,
    prepare_context,
    proper_learn,
    random_tree_class,
    run_experiment,
    sample_budget,
    thresholds_class,
    write_report_csv,
)
from vc1learn import experiments, learners
from vc1learn.audit_scenarios import (
    choosing_scenario,
    exponential_mechanism_scenario,
    improper_learner_scenario,
    laplace_scenario,
    median_scenario,
    randomized_response_scenario,
)
from vc1learn.cli import main
from vc1learn.experiments import _draw_subsets, config_from_json, config_to_json
from vc1learn.io import load_class, load_dataset, save_class, save_dataset

PARAMS = LearnParams(alpha=0.25, beta=0.25, privacy=PrivacyParams(1.0, 1e-5))


def small_config(**kw):
    base = dict(
        generator=GeneratorSpec("random_tree", n=10, seed=4),
        params=PARAMS,
        mode="improper",
        trials=3,
        seed=11,
        n_override=800,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_deterministic(tmp_path):
    cfg = small_config()
    rows_a = run_experiment(cfg)
    rows_b = run_experiment(cfg)
    assert rows_a[0].error_d == rows_b[0].error_d
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv(rows_a, cfg, pa)
    write_report_csv(rows_b, cfg, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_run_experiment_seed_changes_rows():
    rows_a = run_experiment(small_config())
    rows_b = run_experiment(small_config(seed=12))
    assert any(
        a.error_d != b.error_d or a.chosen_point != b.chosen_point
        for a, b in zip(rows_a, rows_b)
    )


def test_run_experiment_proper_mode_flags():
    rows = run_experiment(small_config(mode="proper", trials=4))
    assert all(r.proper_flag for r in rows)
    assert all(0.0 <= r.error_d <= 1.0 for r in rows)


def test_run_experiment_budgeted_path():
    # tiny alpha-insensitive check that the direct subset sampling path runs
    cfg = small_config(
        generator=GeneratorSpec("points", n=5), n_override=None, trials=2
    )
    rows = run_experiment(cfg)
    assert all(r.n > 1000 for r in rows)
    assert all(r.error_d <= 0.5 for r in rows)


def _sample_subsets(concept_row, weights, t, m, rng):
    """The reference sampler: ``t`` subsets of ``m`` i.i.d. draws by one
    multinomial each, handed over as their supports (each held point once)."""
    counts = rng.multinomial(m, weights, size=t)
    rows, pts = np.nonzero(counts)
    return Dataset(pts, concept_row[pts]), rows


def _summaries(ctx, data, ids, t):
    return learners._subset_summaries(ctx, learners._codes(learners._examples(ctx, data)), ids, t)


def _reduced_support(ctx, concept_row, data, ids):
    """Each subset of a support as :func:`_draw_subsets` hands it over: one
    held point at ``d``, the deepest held relabeled 1 (any held point when
    there is none), plus the held label-0 points under an improper ``d``."""
    tree, k = ctx.tree, len(ctx.tree.tour)
    codes = np.where(concept_row, ctx.tour_code[1], ctx.tour_code[0]).astype(np.int64)
    points, owners = [], []
    for i in range(int(ids.max()) + 1):
        held = data.points[ids == i]
        d = held[np.argmax(codes[held])]  # label-1 codes exceed k, the deepest most
        keep = [d]
        if codes[d] > k and not tree.proper_mask[tree.tour[codes[d] - k - 1]]:
            pos = codes[d] - k - 1
            keep += held[(codes[held] > pos) & (codes[held] < tree.tout[tree.tour[pos]])].tolist()
        points += keep
        owners += [i] * len(keep)
    points = np.array(points)
    return Dataset(points, concept_row[points]), np.array(owners)


def test_support_subsets_give_the_full_draws_traces():
    # the reduced support of a full multinomial draw, as _draw_subsets
    # hands it over, against the full draw expanded with np.repeat: same
    # summaries, same traces
    cls = random_tree_class(24, max_children=2, concept_rate=0.4, seed=7)
    ctx = prepare_context(cls)
    depth = ctx.depth_vec[ctx.point_map]
    weights = 0.5**depth / (0.5**depth).sum()
    t, per_subset = 25, 40
    improper_d = 0
    for seed in range(6):
        row = cls.row(seed % len(cls.concepts))
        support, support_ids = _sample_subsets(row, weights, t, per_subset, make_rng(seed))
        counts = make_rng(seed).multinomial(per_subset, weights, size=t)
        full_ids = np.repeat(np.arange(t), per_subset)
        pts = np.concatenate([np.repeat(np.arange(cls.domain_size), c) for c in counts])
        full = Dataset(pts, row[pts])
        reduced, reduced_ids = _reduced_support(ctx, row, support, support_ids)
        assert np.bincount(reduced_ids).min() >= 1
        improper_d += int((np.bincount(reduced_ids) > 1).sum())
        assert np.array_equal(
            _summaries(ctx, reduced, reduced_ids, t), _summaries(ctx, full, full_ids, t)
        )
        for greedy in (False, True):
            a, b = (
                improper_learn(
                    cls, data, PARAMS, make_rng(100 + seed), context=ctx,
                    subset_ids=ids, greedy=greedy,
                )
                for data, ids in ((reduced, reduced_ids), (full, full_ids))
            )
            assert a.to_json() == b.to_json()
        stage2 = Dataset(np.arange(cls.domain_size), row)
        a, b = (
            proper_learn(
                cls, data, PARAMS, make_rng(200 + seed), context=ctx,
                subset_ids=ids, stage2=stage2,
            )
            for data, ids in ((reduced, reduced_ids), (full, full_ids))
        )
        assert a.to_json() == b.to_json()
    assert improper_d > 0  # some subsets kept 0-points under an improper d


def _law_p(ctx, row, weights, m, key, t=20_000):
    """The chi-squared p of :func:`_draw_subsets`' summaries against the
    reference sampler's, ``t`` subsets each, on streams keyed by ``key``.
    Summaries of under 10 subsets in all share one cell. A p under 0.01 is
    drawn once more on fresh streams: a right law then fails a case with
    probability 1e-4, where one 0.01 test per case would fail some case of
    102 nearly two times in three; a wrong law at these sizes reads far below it
    twice."""
    from scipy.stats import chi2_contingency

    for attempt in (0, 1):
        a = _summaries(ctx, *_draw_subsets(ctx, row, weights, t, m, make_rng([*key, attempt, 0])), t)
        b = _summaries(ctx, *_sample_subsets(row, weights, t, m, make_rng([*key, attempt, 1])), t)
        values, cell = np.unique(np.concatenate([a, b]), return_inverse=True)
        table = np.stack([np.bincount(cell[:t], minlength=len(values)),
                          np.bincount(cell[t:], minlength=len(values))])
        rare = table.sum(axis=0) < 10
        table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
        table = table[:, table.sum(axis=0) > 0]
        p = chi2_contingency(table, correction=False)[1] if table.shape[1] > 1 else 1.0
        if p >= 0.01:
            break
    return p


def test_drawn_subset_summaries_follow_the_multinomial_law():
    # 42 cases with Dirichlet weights: thresholds(16), both example classes
    # and four random trees, three targets and weightings each, m = 3 and 12
    classes = [thresholds_class(16), example_class(), modified_example_class()]
    classes += [random_tree_class(20, 3, 0.5, seed=s) for s in range(4)]
    ps = []
    for ci, cls in enumerate(classes):
        ctx = prepare_context(cls)
        for case in range(3):
            rng = make_rng([ci, case])
            weights = rng.dirichlet(np.ones(cls.domain_size))
            row = cls.row(int(rng.integers(len(cls))))
            ps += [_law_p(ctx, row, weights, m, (1, ci, case, m)) for m in (3, 12)]
    # 40 cases on random trees of 30 points at concept rate 0.2, each at a
    # target whose path holds an improper point, with 8 times the weight
    # there; and on the first ten trees 20 more with no weight off the path
    # under the deepest such point, whose draws then hold no 0-points beside it
    for s in range(20):
        cls = random_tree_class(30, 3, 0.2, seed=s)
        ctx = prepare_context(cls)
        tree, node = ctx.tree, ctx.point_map
        improper = ~tree.proper_mask[node]
        paths = [cls.row(c) ^ ctx.f_row.astype(bool) for c in range(len(cls))]
        targets = [c for c, path in enumerate(paths) if (path & improper).any()]
        c = targets[int(make_rng([2, s]).integers(len(targets)))]
        heavy = np.where(paths[c] & improper, 8.0, 1.0)
        d = node[max(np.flatnonzero(paths[c] & improper), key=lambda p: tree.depth[node[p]])]
        under = (tree.tin[node] > tree.tin[d]) & (tree.tin[node] < tree.tout[d])
        hollow = np.where(under & ~paths[c], 0.0, heavy)
        ps += [_law_p(ctx, cls.row(c), heavy / heavy.sum(), m, (3, s, m)) for m in (3, 12)]
        if s < 10:
            ps += [_law_p(ctx, cls.row(c), hollow / hollow.sum(), m, (4, s, m)) for m in (3, 12)]
    assert len(ps) == 102 and min(ps) >= 0.01, sorted(ps)[:3]


def _intersect_draw_subsets(ctx, concept_row, weights, t, m, rng):
    """The reference form of :func:`_draw_subsets`: the improper path
    points to draw for found by ``np.intersect1d`` of the improper indices
    and the drawn ones, in place of a mask over the drawn ones."""
    tree = ctx.tree
    k = len(tree.tour)
    codes = np.where(concept_row, ctx.tour_code[1], ctx.tour_code[0])
    mass = np.bincount(codes, weights=weights, minlength=2 * k + 2)
    zeros = mass[: k + 1]
    path = np.flatnonzero(mass[k + 1 : 2 * k + 1])
    kept = zeros.sum() + np.concatenate(([0.0], mass[k + 1 + path].cumsum()))
    depth_index = np.searchsorted((kept / kept[-1]) ** m, rng.random(t), side="right")
    point_of = np.zeros(2 * k + 2, dtype=np.int64)
    point_of[codes] = np.arange(len(codes))
    heads = np.concatenate(([np.argmax(codes <= k)], point_of[k + 1 + path]))
    points, ids = [heads[depth_index]], [np.arange(t)]
    improper = np.flatnonzero(~tree.proper_mask[tree.tour[path]]) + 1
    for j in np.intersect1d(improper, depth_index):
        pos = path[j - 1]
        cells = pos + 1 + np.flatnonzero(zeros[pos + 1 : tree.tout[tree.tour[pos]]])
        if not len(cells):
            continue
        rows = np.flatnonzero(depth_index == j)
        miss = kept[j - 1] / kept[j]
        log_miss = np.log(miss)
        first = np.ceil(np.log1p(rng.random(len(rows)) * np.expm1(m * log_miss)) / log_miss)
        first = np.clip(first, 1, m).astype(np.int64)
        misses = first - 1 + rng.binomial(m - first, miss)
        pvals = np.append(zeros[cells], 0.0) / kept[j - 1]
        hit_row, hit_cell = np.nonzero(rng.multinomial(misses, pvals)[:, :-1])
        points.append(point_of[cells[hit_cell]])
        ids.append(rows[hit_row])
    points = np.concatenate(points)
    return Dataset(points, concept_row[points]), np.concatenate(ids)


def test_drawn_subsets_match_the_intersect_reference():
    # criterion 8's first random trees with an unrealized node, at targets
    # whose path holds one, at the sweep's 0.15 ** depth weights and at 8
    # times the weight on the path's improper points: the same examples,
    # subset ids and stream state, at the budget's t and subset size and at
    # sizes small enough to leave shallower improper points drawn
    drawn = classes = 0
    for i in range(30):
        n, rate = (16, 32, 64, 128, 256)[i % 5], (0.2, 0.4, 0.6)[i % 3]
        cls = random_tree_class(n, 2 + i % 4, rate, seed=300 + i)
        ctx = prepare_context(cls)
        tree, node = ctx.tree, ctx.point_map
        improper = ~tree.proper_mask[node]
        if not improper.any():
            continue
        classes += 1
        budget = sample_budget(PARAMS, tree.height)
        paths = [cls.row(c) ^ ctx.f_row.astype(bool) for c in range(len(cls))]
        targets = [c for c, path in enumerate(paths) if (path & improper).any()]
        c = targets[i % len(targets)]
        sweep = 0.15 ** tree.depth[node]
        heavy = sweep * np.where(paths[c] & improper, 8.0, 1.0)
        for weights in (sweep / sweep.sum(), heavy / heavy.sum()):
            for t, m in ((budget.t, budget.per_subset), (200, 3), (200, 12)):
                a, b = make_rng([i, t, m]), make_rng([i, t, m])
                got = _draw_subsets(ctx, cls.row(c), weights, t, m, a)
                want = _intersect_draw_subsets(ctx, cls.row(c), weights, t, m, b)
                assert np.array_equal(got[0].points, want[0].points), (i, t, m)
                assert np.array_equal(got[1], want[1]), (i, t, m)
                assert a.bit_generator.state == b.bit_generator.state
                drawn += len(got[1]) > t  # 0-points drawn under an improper d
    assert classes >= 10 and drawn >= 20, (classes, drawn)


def test_run_experiment_reuses_the_class_and_checks_the_context():
    spec = GeneratorSpec("random_tree", n=10, seed=4)
    assert generate_class(spec) is generate_class(spec)
    other = prepare_context(generate_class(GeneratorSpec("random_tree", n=10, seed=5)))
    with pytest.raises(ValueError, match="different class"):
        run_experiment(small_config(), context=other)


def test_run_experiment_validates_before_sampling(monkeypatch):
    # the learner parameters and the context are checked before any draw,
    # on both sampling paths and in both modes
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled before validating")

    monkeypatch.setattr(experiments, "_draw_subsets", no_draw)
    monkeypatch.setattr(experiments, "sample_dataset", no_draw)
    hot = LearnParams(alpha=0.25, beta=0.25, privacy=PrivacyParams(2.5, 1e-5))
    other = prepare_context(generate_class(GeneratorSpec("random_tree", n=10, seed=5)))
    for mode in ("improper", "proper"):
        for n_override in (None, 800):
            cfg = small_config(mode=mode, n_override=n_override)
            with pytest.raises(ValueError, match=r"epsilon must be in \(0, 2\)"):
                run_experiment(dataclasses.replace(cfg, params=hot))
            with pytest.raises(ValueError, match="different class"):
                run_experiment(cfg, context=other)


def test_run_experiment_rejects_weights_off_the_domain(tmp_path, capsys):
    # checked before the first trial: short weights used to fail only when
    # scoring, and long ones with an IndexError (exit 1) while sampling
    cfg_path = tmp_path / "cfg.json"
    msg = "distribution support must match the domain"
    for size in (4, 6):
        cfg = small_config(
            generator=GeneratorSpec("points", n=5),
            n_override=None,
            trials=1,
            weights=(1.0 / size,) * size,
        )
        with pytest.raises(ValueError, match=msg):
            run_experiment(cfg)
        cfg_path.write_text(json.dumps(config_to_json(cfg)))
        out = tmp_path / "report.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert msg in capsys.readouterr().err
        assert not out.exists()


def test_run_experiment_rejects_concept_index_off_the_class(tmp_path, capsys):
    # checked before the first trial: -1 used to label every trial by the
    # last concept, and len(cls) to raise IndexError (exit 1)
    cfg_path = tmp_path / "cfg.json"
    spec = GeneratorSpec("points", n=5)
    size = len(generate_class(spec))
    for index in (-1, size):
        cfg = small_config(generator=spec, trials=1, concept_index=index)
        msg = re.escape(f"'concept_index' must be an integer in [0, {size - 1}], not {index}")
        with pytest.raises(ValueError, match=msg):
            run_experiment(cfg)
        cfg_path.write_text(json.dumps(config_to_json(cfg)))
        out = tmp_path / "report.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert re.search(msg, capsys.readouterr().err)
        assert not out.exists()
    cfg = small_config(generator=spec, trials=1, concept_index=size - 1)
    assert len(run_experiment(cfg)) == 1


def test_config_json_round_trip():
    cfg = small_config(weights=(0.5, 0.2, 0.1, 0.1, 0.05, 0.05, 0.0, 0.0, 0.0, 0.0))
    assert config_from_json(json.loads(json.dumps(config_to_json(cfg)))) == cfg


def test_class_json_round_trip(tmp_path):
    cls = example_class()
    path = tmp_path / "cls.json"
    save_class(cls, path)
    loaded = load_class(path)
    save_class(loaded, path)
    again = load_class(path)
    assert again == loaded
    assert [c.ones for c in loaded.concepts] == [c.ones for c in cls.concepts]
    assert loaded.name == cls.name


def test_canonical_class_json_round_trip(tmp_path):
    # a canonicalized class is a class like any other: its file holds all of it
    raw = ConceptClass.from_ones(4, [[0, 1], [2], [0, 1], []], ["a", "b", "a2", "e"], "raw")
    canon, merge = canonicalize(raw)
    assert merge.tolist() == [0, 0, 1, 2] and len(canon) == 3
    path = tmp_path / "canon.json"
    save_class(canon, path)
    assert load_class(path) == canon


def test_class_input_rejects_points_outside_domain(tmp_path):
    # numpy would wrap -1 onto the last point, so negatives are checked too
    path = tmp_path / "cls.json"
    for bad in ([0, 3], [-1]):
        with pytest.raises(ValueError, match="'b' has points outside the domain"):
            ConceptClass.from_ones(3, [[0], bad], ["a", "b"])
        entries = [{"id": "a", "ones": [0]}, {"id": "b", "ones": bad}]
        path.write_text(json.dumps({"name": "x", "domain_size": 3, "concepts": entries}))
        with pytest.raises(ValueError, match="'b' has points outside the domain"):
            load_class(path)


def test_import_leaves_scipy_stats_out():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import vc1learn; "
        "print('scipy.stats' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_dp_audit_leaves_scipy_stats_out():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import numpy as np; "
        "import vc1learn as v; d = v.Dataset.from_pairs([(0, 1)]); "
        "v.dp_audit(v.repeated(lambda data, r: int(r.integers(2))), d, d, 50, 1e-5, "
        "np.random.default_rng(0)); "
        "print('scipy.special' in sys.modules, 'scipy.stats' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["True", "False"]


def test_blind_dp_audit_imports_no_scipy_special():
    # no event's count gap exceeds delta * trials, so no bound is taken
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import numpy as np; "
        "import vc1learn as v; from vc1learn.audit_scenarios import improper_learner_scenario; "
        "d0 = v.Dataset.from_pairs([(0, 0)]); d1 = v.Dataset.from_pairs([(0, 1)]); "
        "print(v.dp_audit(v.repeated(lambda data, r: 0), d0, d1, 2000, 0.0, "
        "np.random.default_rng(0))); "
        "mech, d_a, d_b, claimed = improper_learner_scenario(1.0, 1e-5, n=30); "
        "print(v.dp_audit(mech, d_a, d_b, 2000, claimed.delta, np.random.default_rng(1))); "
        "print('scipy.special' in sys.modules, 'scipy.stats' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["0.0", "0.0", "False", "False"]


def test_dataset_csv_round_trip(tmp_path):
    data = Dataset.from_pairs([(0, 1), (3, 0), (3, 1)])
    path = tmp_path / "d.csv"
    save_dataset(data, path)
    loaded = load_dataset(path)
    save_dataset(loaded, path)
    assert load_dataset(path) == loaded == data
    assert path.read_text().splitlines()[0] == "point,label"
    # blank rows are skipped
    path.write_text("point,label\n0,1\n\n3,0\n3,1\n\n")
    assert load_dataset(path) == data


def test_dataset_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,0\n")
    with pytest.raises(ValueError, match="header"):
        load_dataset(path)


def test_cli_full_pipeline(tmp_path, capsys):
    cls_path = tmp_path / "cls.json"
    data_path = tmp_path / "data.csv"
    trace_path = tmp_path / "trace.json"

    assert main(["gen", "--kind", "thresholds", "--n", "16", "--out", str(cls_path)]) == 0
    assert main(["dims", "--class", str(cls_path)]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report == {"vc": 1, "littlestone": 4, "thresholds": 16}

    assert main(["tree", "--class", str(cls_path), "--format", "json"]) == 0
    nodes = json.loads(capsys.readouterr().out)["nodes"]
    assert len(nodes) == 16

    assert (
        main(
            [
                "sample", "--class", str(cls_path), "--concept", "ge7",
                "--n", "2000", "--seed", "3", "--out", str(data_path),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "learn", "--mode", "proper", "--class", str(cls_path),
                "--data", str(data_path), "--epsilon", "1.0", "--delta", "1e-5",
                "--alpha", "0.25", "--beta", "0.25", "--seed", "5",
                "--emit-trace", str(trace_path),
            ]
        )
        == 0
    )
    hyp = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert hyp["proper_index"] is not None
    trace = json.loads(trace_path.read_text())
    assert "hypothesis" in trace and "chosen_point" in trace


def test_cli_learn_prints_hypothesis_on_input_domain(tmp_path, capsys):
    # points 2 and 3 lie in the same concepts, so the learner merges them
    cls_path = tmp_path / "cls.json"
    data_path = tmp_path / "data.csv"
    concepts = {"empty": [], "a": [0], "target": [0, 2, 3], "b": [1]}
    cls_path.write_text(
        json.dumps(
            {
                "name": "merged",
                "domain_size": 4,
                "concepts": [{"id": k, "ones": v} for k, v in concepts.items()],
            }
        )
    )
    assert main(
        [
            "sample", "--class", str(cls_path), "--concept", "target",
            "--n", "2000", "--seed", "1", "--out", str(data_path),
        ]
    ) == 0
    assert main(
        [
            "learn", "--class", str(cls_path), "--data", str(data_path),
            "--epsilon", "1", "--delta", "1e-5", "--alpha", "0.25",
            "--beta", "0.25", "--seed", "0",
        ]
    ) == 0
    hyp = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert hyp["ones"] == [0, 2, 3]


def _learn_args(cls_path, data_path, *extra):
    return [
        "learn", "--class", str(cls_path), "--data", str(data_path),
        "--epsilon", "1", "--delta", "1e-5", "--alpha", "0.25",
        "--beta", "0.25", "--seed", "0", *extra,
    ]


def _write_class(path, concepts):
    entries = [{"id": k, "ones": v} for k, v in concepts]
    path.write_text(json.dumps({"name": "x", "domain_size": 4, "concepts": entries}))


def test_cli_learn_trace_hypothesis_equals_stdout(tmp_path, capsys):
    # the merged-points class above: the trace and stdout name the same points
    cls_path, data_path = tmp_path / "cls.json", tmp_path / "data.csv"
    trace_path = tmp_path / "trace.json"
    _write_class(cls_path, [("empty", []), ("a", [0]), ("target", [0, 2, 3]), ("b", [1])])
    main(["sample", "--class", str(cls_path), "--concept", "target",
          "--n", "2000", "--seed", "1", "--out", str(data_path)])
    for mode in ("improper", "proper"):
        capsys.readouterr()
        args = _learn_args(cls_path, data_path, "--mode", mode, "--emit-trace", str(trace_path))
        assert main(args) == 0
        hyp = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert json.loads(trace_path.read_text())["hypothesis"] == hyp
        assert hyp["ones"] == [0, 2, 3]


def test_cli_learn_proper_index_names_the_class_file_row(tmp_path, capsys):
    # a2 repeats a, so target is row 3 of the file (row 2 once canonicalized)
    cls_path, data_path = tmp_path / "cls.json", tmp_path / "data.csv"
    _write_class(
        cls_path,
        [("empty", []), ("a", [0]), ("a2", [0]), ("target", [0, 2, 3]), ("b", [1])],
    )
    main(["sample", "--class", str(cls_path), "--concept", "target",
          "--n", "2000", "--seed", "1", "--out", str(data_path)])
    for mode in ("improper", "proper"):
        capsys.readouterr()
        assert main(_learn_args(cls_path, data_path, "--mode", mode)) == 0
        hyp = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert hyp == {"ones": [0, 2, 3], "proper_index": 3}


def test_cli_tree_dot_output(tmp_path, capsys):
    cls_path = tmp_path / "cls.json"
    main(["gen", "--kind", "example", "--out", str(cls_path)])
    capsys.readouterr()
    assert main(["tree", "--class", str(cls_path), "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert "digraph" in dot
    # --out writes what would be printed, and prints nothing
    out = tmp_path / "tree.dot"
    assert main(["tree", "--class", str(cls_path), "--format", "dot", "--out", str(out)]) == 0
    assert out.read_text() == dot and capsys.readouterr().out == ""


def test_cli_tree_names_the_class_file_points(tmp_path, capsys):
    # points 0 and 1 lie in the same concepts and merge into node 0; the
    # nodes are the file's points 0 and 2, and node 0 lists both merged points
    cls_path = tmp_path / "cls.json"
    cls_path.write_text(
        json.dumps(
            {
                "name": "merged",
                "domain_size": 3,
                "concepts": [
                    {"id": "empty", "ones": []},
                    {"id": "a", "ones": [0, 1]},
                    {"id": "b", "ones": [0, 1, 2]},
                ],
            }
        )
    )
    capsys.readouterr()
    assert main(["tree", "--class", str(cls_path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "nodes": [
            {"point": 0, "parent": None, "depth": 1, "proper": True, "points": [0, 1]},
            {"point": 2, "parent": 0, "depth": 2, "proper": True, "points": [2]},
        ]
    }
    assert main(["tree", "--class", str(cls_path), "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert 'n0 [label="x0,x1 (d=1)", shape=doublecircle];' in dot
    assert 'n2 [label="x2 (d=2)", shape=doublecircle];' in dot
    assert "n0 -> n2;" in dot


def _trace_nodes(trace):
    """Every node id an ``--emit-trace`` file names."""
    stage1 = trace.get("stage1") or {}
    sub = trace.get("subtree") or {"nodes": []}
    ids = [trace.get("leaf"), trace["chosen_point"], stage1.get("chosen_point")]
    for t in (trace, stage1):
        ids += t.get("candidates", []) + t.get("subset_deepest", [])
    ids += sub["nodes"] + [x for a, _, b in trace.get("path", []) for x in (a, b)]
    return {x for x in ids if x is not None}


def test_cli_learn_trace_names_the_class_file_points(tmp_path, capsys):
    # points 0 and 1 merge into node 0, which no concept ends at; the data
    # sit at points 0 and 1 only, so the proper learner descends from it
    cls_path, data_path = tmp_path / "cls.json", tmp_path / "data.csv"
    trace_path = tmp_path / "trace.json"
    entries = [{"id": "empty", "ones": []}, {"id": "b", "ones": [0, 1, 2]},
               {"id": "c", "ones": [0, 1, 3]}]
    cls_path.write_text(json.dumps({"name": "x", "domain_size": 4, "concepts": entries}))
    main(["sample", "--class", str(cls_path), "--concept", "b", "--n", "3000", "--seed", "1",
          "--weights", "0.5,0.5,0,0", "--out", str(data_path)])
    capsys.readouterr()
    assert main(["tree", "--class", str(cls_path)]) == 0
    nodes = {r["point"] for r in json.loads(capsys.readouterr().out)["nodes"]}
    assert nodes == {0, 2, 3}
    for mode in ("improper", "proper"):
        args = _learn_args(cls_path, data_path, "--mode", mode, "--emit-trace", str(trace_path))
        assert main(args) == 0
        hyp = json.loads(capsys.readouterr().out.splitlines()[-1])
        trace = json.loads(trace_path.read_text())
        assert 0 in _trace_nodes(trace) <= nodes
    # the descent's nodes are file points, and its leaf is in the hypothesis
    assert trace["subtree"] == {"root": 0, "nodes": [0, 2, 3], "leaves": [2, 3]}
    assert trace["path"][-1][2] == trace["leaf"] and trace["leaf"] in hyp["ones"]


def test_cli_sweep(tmp_path, capsys):
    cfg = small_config(trials=2)
    cfg_path = tmp_path / "cfg.json"
    out_path = tmp_path / "report.csv"
    cfg_path.write_text(json.dumps(config_to_json(cfg)))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[2].startswith("trial,mode,n,")
    assert len(lines) == 5  # two comment lines, header, two rows


def test_cli_sweep_runtime_appends_a_last_column(tmp_path, capsys):
    # --runtime adds runtime_ms last, and leaves every other byte as is
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_json(small_config(trials=2))))
    plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(plain)]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(timed), "--runtime"]) == 0
    lines = timed.read_bytes().split(b"\n")  # two comment lines, the table, b""
    header, *rows = [line.rsplit(b",", 1) for line in lines[2:-1]]
    assert header[1] == b"runtime_ms" and len(rows) == 2
    assert all(float(runtime) >= 0 for _, runtime in rows)
    stripped = lines[:2] + [head for head, _ in [header, *rows]] + lines[-1:]
    assert b"\n".join(stripped) == plain.read_bytes()


def test_cli_audit_refuses_what_its_primitives_refuse(capsys):
    # every target exits 0 or 2, never 1, and says at most one error line;
    # a warning leaked on the way would fail this test
    for target in ("improper", "median", "choosing", "em", "rr", "laplace"):
        for epsilon in ("0", "1e-320", "1e-200", "1000", "1e308", "inf", "nan"):
            code = main(["audit", "--target", target, "--epsilon", epsilon, "--trials", "10"])
            err = capsys.readouterr().err
            assert code in (0, 2), (target, epsilon, err)
            expected = "" if code == 0 else r"error: [^\n]*\n"
            assert re.fullmatch(expected, err), (target, epsilon, err)
    # the builders refuse non-finite budgets themselves, before any draw
    for build in (
        randomized_response_scenario, laplace_scenario, exponential_mechanism_scenario,
        median_scenario, choosing_scenario, improper_learner_scenario,
    ):
        for epsilon in (math.inf, math.nan):
            with pytest.raises(ValueError):
                build(epsilon)


def test_cli_audit(tmp_path, capsys):
    out = tmp_path / "audit.json"
    code = main(
        ["audit", "--target", "rr", "--trials", "20000", "--out", str(out)]
    )
    assert code == 0
    result = json.loads(out.read_text())
    assert result["target"] == "rr"
    assert not result["refuted"]
    assert 0.5 <= result["estimated_epsilon_lower_bound"] <= 1.05


def test_cli_audit_improper(tmp_path, capsys):
    out = tmp_path / "audit.json"
    code = main(
        ["audit", "--target", "improper", "--trials", "600", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    result = json.loads(out.read_text())
    assert result["target"] == "improper" and result["trials"] == 600
    assert result["claimed_epsilon"] == 2.0 and result["claimed_delta"] == 2e-5
    assert not result["refuted"]
    assert 0.0 <= result["estimated_epsilon_lower_bound"] <= 2.0


def test_cli_validation_exit_codes(tmp_path, capsys):
    assert main(["dims", "--class", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["dims", "--class", str(bad)]) == 2
    cls_path = tmp_path / "cls.json"
    main(["gen", "--kind", "points", "--n", "4", "--out", str(cls_path)])
    assert main(
        [
            "sample", "--class", str(cls_path), "--concept", "nope",
            "--n", "5", "--out", str(tmp_path / "d.csv"),
        ]
    ) == 2
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", "bogus", "--out", "x.json"])
    assert exc.value.code == 2
    capsys.readouterr()
    # malformed class files: wrong types are rejected, not cast
    for concepts in (5, [{"id": "a", "ones": 5}], [{"id": "a", "ones": [1.5]}],
                     [{"id": "a", "ones": [True]}], [{"id": "a", "ones": ["2"]}]):
        bad.write_text(json.dumps({"name": "x", "domain_size": 4, "concepts": concepts}))
        assert main(["dims", "--class", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")
    for size in (4.0, True, "4", None):
        bad.write_text(json.dumps({"name": "x", "domain_size": size, "concepts": []}))
        assert main(["dims", "--class", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: 'domain_size' must be")
    bad.write_text("[1]")
    assert main(["dims", "--class", str(bad)]) == 2
    # an empty domain has no uniform distribution to sample from
    empty = {"name": "x", "domain_size": 0, "concepts": [{"id": "a", "ones": []}]}
    bad.write_text(json.dumps(empty))
    sample_args = ["sample", "--class", str(bad), "--concept", "a", "--n", "5"]
    assert main([*sample_args, "--out", str(tmp_path / "e.csv")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    # a negative sample size is refused by name
    sample_args = ["sample", "--class", str(cls_path), "--concept", "pt0", "--n", "-5"]
    assert main([*sample_args, "--out", str(tmp_path / "n.csv")]) == 2
    assert capsys.readouterr().err == "error: 'n' must be an integer of at least 0, not -5\n"
    # malformed data files: short or long rows, labels off {0, 1}, huge points
    data_path = tmp_path / "d.csv"
    for row in ("3", "0,1,1", "0,-1", "0,256", f"{10**20},0"):
        data_path.write_text(f"point,label\n0,1\n{row}\n")
        assert main(_learn_args(cls_path, data_path)) == 2
        assert capsys.readouterr().err.startswith("error:")
    # the selection's parameter rule holds for every audit target that runs it
    for target in ("improper", "choosing"):
        assert main(["audit", "--target", target, "--delta", "0", "--trials", "10"]) == 2
        assert capsys.readouterr().err == "error: delta must be positive\n"
    # budgets no audit can take: a zero Laplace epsilon, and non-finite ones,
    # which would print NaN or Infinity, not JSON
    for target, flag, value in (
        ("laplace", "--epsilon", "0"), ("rr", "--epsilon", "nan"),
        ("rr", "--epsilon", "inf"), ("rr", "--delta", "nan"), ("em", "--delta", "inf"),
    ):
        assert main(["audit", "--target", target, flag, value, "--trials", "10"]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_cli_sweep_rejects_unknown_config_keys(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    for part, key, value in (
        ("generator", "colour", "red"),
        ("params", "gamma", 0.5),
        ("params", "constants", {"gate": 8.0}),  # no longer a setting
        (None, "trails", 5),
    ):
        data = config_to_json(small_config(trials=1))
        (data if part is None else data[part])[key] = value
        cfg_path.write_text(json.dumps(data))
        out = tmp_path / "report.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()
    # values of the wrong JSON type are rejected, not cast or run
    for part, key, value in (
        (None, "trials", 2.5), (None, "seed", "x"), (None, "seed", None),
        (None, "n_override", 50.5), (None, "concept_index", 1.5),
        (None, "concept_index", True), ("generator", "n", "8"), ("generator", "n", 8.5),
        ("generator", "max_children", True), ("generator", "seed", None),
        ("generator", "kind", ["x"]), (None, "generator", "x"), (None, "params", [1]),
        ("params", "privacy", 1), ("generator", "concept_rate", "x"),
        ("generator", "concept_rate", None), ("privacy", "epsilon", True),
        ("params", "alpha", "0.3"), ("privacy", "delta", True), (None, "mode", 1),
    ):
        data = config_to_json(small_config(trials=1))
        holder = {None: data, **data, "privacy": data["params"]["privacy"]}[part]
        holder[key] = value
        cfg_path.write_text(json.dumps(data))
        out = tmp_path / "report.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed config:") and repr(key) in err
        assert not out.exists()
    # a float field takes a JSON integer
    data = config_to_json(small_config(trials=1))
    data["params"]["privacy"]["epsilon"] = 1
    assert config_from_json(data).params.privacy.epsilon == 1
    # one past the float range is malformed, not an internal error
    data["params"]["privacy"]["epsilon"] = 10**400
    cfg_path.write_text(json.dumps(data))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: malformed config: 'epsilon'")


def test_cli_sweep_reports_integer_floats_as_floats(tmp_path):
    # a JSON integer in a float field loads as a float, so the report echoes
    # and writes 1.0, byte for byte what the config with 1.0 writes
    reports = []
    for epsilon in (1.0, 1):
        data = config_to_json(small_config(trials=2))
        data["params"]["privacy"]["epsilon"] = epsilon
        cfg_path, out = tmp_path / "cfg.json", tmp_path / f"r{len(reports)}.csv"
        cfg_path.write_text(json.dumps(data))
        config = config_from_json(json.loads(cfg_path.read_text()))
        assert type(config.params.privacy.epsilon) is float
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert b'"epsilon": 1.0' in reports[0] and b',1.0,' in reports[0]


def test_cli_sweep_rejects_weights_that_are_not_json_numbers(tmp_path, capsys):
    # a string or a boolean weight used to load and run with exit 0
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "report.csv"
    for weights in (["0.25", 0.25, 0.25, 0.25, 0, 0, 0], [True] + [0] * 6, [None] * 7,
                    "uniform", {"0": 1.0}, [10**400] + [0] * 6):
        data = config_to_json(small_config(trials=1))
        data["weights"] = weights
        cfg_path.write_text(json.dumps(data))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed config: 'weights'"), err
        assert not out.exists()


def test_cli_sweep_reports_integer_weights_as_floats(tmp_path):
    # [0, 0.5, ...] loads as [0.0, 0.5, ...] and writes the same bytes
    reports = []
    for zero in (0.0, 0):
        data = config_to_json(small_config(trials=2))
        data["weights"] = [zero, 0.5, 0.25, 0.25, zero, zero, zero]
        cfg_path, out = tmp_path / "cfg.json", tmp_path / f"r{len(reports)}.csv"
        cfg_path.write_text(json.dumps(data))
        config = config_from_json(json.loads(cfg_path.read_text()))
        assert all(type(w) is float for w in config.weights)
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert b'"weights": [0.0, 0.5' in reports[0]


def test_configs_of_numpy_or_int_values_equal_their_plain_twins(tmp_path):
    # numpy integers and floats, and an int epsilon, are stored as int and
    # float, so each config compares, hashes and reports as its plain twin;
    # an np.int64 seed used to run every trial and then fail the JSON echo
    plain = small_config(trials=2, seed=3)
    privacy = (PrivacyParams(np.float32(1.0), 1e-5), PrivacyParams(1, np.float64(1e-5)))
    twins = [small_config(trials=np.int64(2), seed=np.int64(3))]
    twins += [small_config(trials=2, seed=3, params=dataclasses.replace(PARAMS, privacy=p))
              for p in privacy]
    for twin in twins:
        assert type(twin.seed) is int and type(twin.params.privacy.epsilon) is float
        assert twin == plain and hash(twin) == hash(plain)
        reports = []
        for config in (plain, twin):
            path = tmp_path / f"r{len(reports)}.csv"
            write_report_csv(run_experiment(config), config, path)
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]


def test_experiment_config_rejects_bad_sizes_and_empty_weights(tmp_path, capsys):
    # checked when the config is built, before any class or data exists;
    # an integer field takes an int or numpy integer, never a bool or float
    bad = (("n_override", 0), ("n_override", -3), ("weights", ()))
    bad += (("mode", "both"), ("trials", 0))
    bad += (("trials", 2.5), ("trials", 3.9), ("trials", True), ("seed", 1.5))
    bad += (("concept_index", True), ("concept_index", 1.0), ("n_override", 2.5))
    bad += (("weights", (True,) + (False,) * 6),)
    for key, value in bad:
        with pytest.raises(ValueError, match=key):
            small_config(**{key: value})
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "report.csv"
    for key, value in bad:
        data = config_to_json(small_config(trials=1))
        data[key] = list(value) if isinstance(value, tuple) else value
        with pytest.raises(ValueError, match=key):
            config_from_json(data)  # "weights": [] is not uniform
        cfg_path.write_text(json.dumps(data))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


def test_cli_learn_rejects_points_outside_domain(tmp_path, capsys):
    cls_path = tmp_path / "cls.json"
    data_path = tmp_path / "data.csv"
    main(["gen", "--kind", "example", "--out", str(cls_path)])
    save_dataset(Dataset.from_pairs([(0, 1), (99, 0)]), data_path)
    capsys.readouterr()
    assert main(
        [
            "learn", "--class", str(cls_path), "--data", str(data_path),
            "--epsilon", "1", "--delta", "1e-5", "--alpha", "0.25",
            "--beta", "0.25",
        ]
    ) == 2
    assert "dataset point outside class domain" in capsys.readouterr().err
