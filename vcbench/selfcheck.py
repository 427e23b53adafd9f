"""Fast self-check of the benchmark at toy scale.

    python3 vcbench/selfcheck.py

Checks the tracer against the real package (rebinding, nesting, self time,
missing functions, clean uninstall), then runs every workload's code path
at toy scale (thresholds(64), one random tree, eight audit trials) with
tracing off and on. Each run must pass its output checks and print exactly
the metrics BENCHMARK.json names, traced and untraced runs at one seed must
produce identical op digests, and the runner must refuse to run without
the package sources. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def check_tracer() -> None:
    import numpy as np

    import vc1learn
    from tracer import Tracer

    original = vc1learn.learners.partition
    tracer = Tracer(targets=("learners.improper_learn", "learners.partition",
                             "mechanisms.choosing_mechanism", "mechanisms.laplace_sample",
                             "learners.no_such_function"))
    tracer.install()
    assert vc1learn.partition is vc1learn.learners.partition is not original
    cls = vc1learn.example_class()
    data = vc1learn.Dataset.from_pairs([(i % 7, cls.concepts[-2](i % 7)) for i in range(30)])
    params = vc1learn.LearnParams(0.2, 0.1, vc1learn.PrivacyParams(1.0, 1e-5))
    vc1learn.improper_learn(cls, data, params, np.random.default_rng(0))
    tracer.uninstall()
    assert vc1learn.learners.partition is original and vc1learn.partition is original
    assert tracer.missing == {"learners.no_such_function"}

    names = [s[0] for s in tracer.spans]
    assert names[0] == "learners.improper_learn" and tracer.spans[0][5] == -1, names
    by_name = {s[0]: i for i, s in enumerate(tracer.spans)}
    assert tracer.spans[by_name["learners.partition"]][5] == 0
    assert tracer.spans[by_name["mechanisms.laplace_sample"]][5] == by_name["mechanisms.choosing_mechanism"]
    own = tracer.self_times()
    children = sum(s[4] - s[3] for s in tracer.spans if s[5] == 0)
    root = tracer.spans[0]
    assert abs(own[0] - (root[4] - root[3] - children)) < 1e-12
    assert all(t >= 0 for t in own)
    print("tracer: ok")


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-B", str(Path(cwd, "vcbench", "run.py")), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digests(proc: subprocess.CompletedProcess) -> list[str]:
    line = next(x for x in proc.stdout.splitlines() if x.startswith("op_digests "))
    return json.loads(line[len("op_digests "):])


def check_workloads() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == ["chain-improper", "sweep-proper", "audit-improper"]
    for w in spec["workloads"]:
        seen = {}
        for trace in (0, 1):
            proc = run("--workload", w["name"], "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--toy")
            assert proc.returncode == 0, proc.stderr
            result = last_json(proc)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == expected[trace], set(units) ^ set(expected[trace])
            seen[trace] = digests(proc)
        common = min(len(seen[0]), len(seen[1]))
        assert seen[0][:common] == seen[1][:common], "tracing changed an op's output"
        if w["name"] != "audit-improper":  # a toy audit estimates 0 at almost any seed
            other = run("--workload", w["name"], "--seed", "4", "--seconds", "1", "--toy")
            assert other.returncode == 0 and digests(other)[0] != seen[0][0], "seed does not reach the inputs"
        print(f"{w['name']}: ok ({len(seen[0])} untraced, {len(seen[1])} traced ops)")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".vcbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "vcbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("--workload", "audit-improper", "--seed", "1", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print("bare directory: refused")


if __name__ == "__main__":
    check_tracer()
    check_workloads()
    check_refuses_without_sources()
    print("selfcheck passed")
