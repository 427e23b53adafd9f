"""The benchmark's three workloads at toy scale, in-process.

The benchmark reads the library through ``vcbench/workloads.py``: tree
fields such as ``depth_vec`` and ``ClassTree.proper``, the audit
scenario's ``cls=`` and ``context=`` keywords, and the trace fields its
checks read. Each workload's set-up, warm-up op and first op must run
and pass its own checks. The module is loaded from its file without
writing bytecode next to it. The sha256 of each op's check summary, as
JSON with sorted keys, is pinned, so a change in fixed-seed behaviour on
the benchmark's paths fails here. The toy runs cannot see every such
change, so a few ops are also pinned at full scale.
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

# at full scale, the summaries' digests of sweep-proper ops 0-9 and of
# chain-improper op 0: the toy sweep's two trials on one 32-point tree land
# on the same outputs whatever the subset draws, and at the toy chain's
# thresholds(64) every subset forces the same point whatever the deal
PINNED_FULL_SCALE_DIGESTS = {
    "sweep-proper": (
        "8b29ade8465f3a2af0c4752280496f931b55f7319cf5afd70b0bfc96cb98eaa8",
        "02f184f226ef1bfee38b316893c06a877faac0fa52388a8af8afdf681be44e34",
        "5a9743446345faddd569e3e3de7f1bdf2afa62b632b1032103ad88e6bd303b05",
        "e6f0066e97256459cd360ede88ec73d6f9625fa73a74961dfba296e14b821f18",
        "6899a2e8c197142bb6664e2d7c7306fb339176efb8611ec2bc8d992fbcf207e9",
        "35b885b8d77fa6174effce19df16448a29020bac614fc67f532b74b9c613351c",
        "034c55150e850ff461a903955d740f2706ef37b91cea56a6dbe683c0364fa59d",
        "fc3aa36cbf868014c0b20fa84c59a695b05fb7e46d982e6e6a286c188a771dd3",
        "ca576e437d248ddecabb582de2bd909a5fa32bfba30223b9fe9f9cc68fa90813",
        "2f5de9f11433f894515317ac0ba14601d6348989682697d244dc31b301e129a6",
    ),
    "chain-improper": ("d9b753e1c80061d869c59112c79614774ed7fac751aa7b1234ef7a7fa13cff1f",),
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


def _digests(w, ops):
    """Run ops ``ops`` of set-up workload ``w``; the digest of each op's summary."""
    digests = []
    for i in ops:
        rng = w.rng(i)
        inputs = w.load(i, rng)
        ok, good, total, summary = w.check(inputs, w.op(inputs, rng))
        assert ok and 0 <= good <= total, (w.name, i)
        digests.append(hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest())
    return tuple(digests)


@pytest.mark.parametrize("name", ["chain-improper", "sweep-proper", "audit-improper"])
def test_benchmark_workload_passes_its_checks_at_toy_scale(workloads, name):
    w = workloads.WORKLOADS[name](1, toy=True)
    w.setup()
    assert _digests(w, (None, 0)) == PINNED_SUMMARY_DIGESTS[name]  # the warm-up op, then op 0
    assert w.sizes()


@pytest.mark.parametrize("name", sorted(PINNED_FULL_SCALE_DIGESTS))
def test_benchmark_workload_ops_match_their_full_scale_pins(workloads, name):
    w = workloads.WORKLOADS[name](1)
    w.setup()
    pinned = PINNED_FULL_SCALE_DIGESTS[name]
    assert _digests(w, range(len(pinned))) == pinned
