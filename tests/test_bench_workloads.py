"""The benchmark's three workloads at toy scale, in-process.

The benchmark reads the library through ``vcbench/workloads.py``: tree
fields such as ``depth_vec`` and ``ClassTree.proper``, the audit
scenario's ``cls=`` and ``context=`` keywords, and the trace fields its
checks read. Each workload's set-up, warm-up op and first op must run
and pass its own checks. The module is loaded from its file without
writing bytecode next to it. The sha256 of each op's check summary, as
JSON with sorted keys, is pinned, so a change in fixed-seed behaviour on
the benchmark's paths fails here.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "vcbench" / "workloads.py"

# per workload, the summaries' digests of the warm-up op and of op 0
PINNED_SUMMARY_DIGESTS = {
    "chain-improper": (
        "961e10654a631a1bffc8084a786fca944e32d19c733d60253e07a88948eed3d7",
        "c6f74e2667819e6e34c72be646b50a472fe6bf8c6e243ed175d8b5d857d0ffba",
    ),
    "sweep-proper": (
        "00f10f48bbc72fa4e24b9589f6e6f49a4be85bbfbfa6cb9f8a10b8839ad60e64",
        "ddec81e2dbc5d70ac8ae215bf835046a5f85ef640ef892ec96fee521aa10650e",
    ),
    "audit-improper": (
        "8aed642bf5118b9d3c859bd4be35ecac75b6e873cce34e7b6f554b06f75550d7",
        "8aed642bf5118b9d3c859bd4be35ecac75b6e873cce34e7b6f554b06f75550d7",
    ),
}


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
    digests = []
    for i in (None, 0):  # the warm-up op, then op 0
        rng = w.rng(i)
        inputs = w.load(i, rng)
        ok, good, total, summary = w.check(inputs, w.op(inputs, rng))
        assert ok and 0 <= good <= total, (name, i)
        digests.append(hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest())
    assert tuple(digests) == PINNED_SUMMARY_DIGESTS[name]
    assert w.sizes()
