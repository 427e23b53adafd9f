"""The benchmark's three workloads at toy scale, in-process.

The benchmark reads the library through ``vcbench/workloads.py``: tree
fields such as ``depth_vec`` and ``ClassTree.proper``, the audit
scenario's ``cls=`` and ``context=`` keywords, and the trace fields its
checks read. Each workload's set-up, warm-up op and first op must run
and pass its own checks. The module is loaded from its file without
writing bytecode next to it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "vcbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("vcbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("name", ["chain-improper", "sweep-proper", "audit-improper"])
def test_benchmark_workload_passes_its_checks_at_toy_scale(workloads, name):
    w = workloads.WORKLOADS[name](1, toy=True)
    w.setup()
    for i in (None, 0):  # the warm-up op, then op 0
        rng = w.rng(i)
        inputs = w.load(i, rng)
        ok, good, total, _ = w.check(inputs, w.op(inputs, rng))
        assert ok and 0 <= good <= total, (name, i)
    assert w.sizes()
