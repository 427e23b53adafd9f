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
# chain-improper ops 0-7 (op 6 reveals 3 codes, the others 2): the toy
# sweep's two trials on one 32-point tree land on the same outputs whatever
# the subset draws, and at the toy chain's thresholds(64) every subset
# forces the same point whatever the deal
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
    "chain-improper": (
        "f9821a8fa68e83b31fdf86aac2064146a2d89471c9d4d243f52c4cf39d1f4e26",
        "47624f6d2d1cdc6af62fcd738b63fd26424879d103ca647bcbcb6343563629e6",
        "4279813a633c5d0423893673d672a12e48bd0c0ec892d6cf511a746db8416039",
        "b04beac99d5c73837d28220b6cbf896c69f21acd1a108f025c63aad137bb169d",
        "a6299728c63a8018bda4c894afdd310c0ea50e92ed660b8fe53532eaca76c716",
        "9a2e6c61fe7aa51b028a46da5cd7e68e21bdb5a3c00f13aaeff07ed54dc8e792",
        "55660d8502473a60fe1c89b965333196f0488e4fbf29fe988cf735a31df9cd44",
        "402863e023495bfb2f0b7cb546011a230f7bbc22af483345843492bb94d6d8db",
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


@pytest.fixture(scope="module")
def full_scale(workloads):
    """Each workload at full scale and seed 1, set up once."""
    made = {}

    def get(name):
        if name not in made:
            made[name] = workloads.WORKLOADS[name](1)
            made[name].setup()
        return made[name]

    return get


@pytest.mark.parametrize("name", sorted(PINNED_FULL_SCALE_DIGESTS))
def test_benchmark_workload_ops_match_their_full_scale_pins(full_scale, name):
    pinned = PINNED_FULL_SCALE_DIGESTS[name]
    assert _digests(full_scale(name), range(len(pinned))) == pinned


class _Reveals:
    """A generator that counts the revealed deal's hypergeometric draws."""

    def __init__(self, rng):
        self.rng, self.reveals = rng, 0

    def multivariate_hypergeometric(self, *args, **kwargs):
        self.reveals += 1
        return self.rng.multivariate_hypergeometric(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_budget_sized_chain_op_reveals_few_codes(workloads, full_scale):
    # a guard on the chain op's cost that reads no clock: its budget-sized
    # deal of 5.3M examples into 325 subsets reveals 2 codes on op 0's
    # sample, and none for the target that gives no relabeled 1-label
    w = full_scale("chain-improper")
    _, data = w.load(0, w.rng(0))
    rng = _Reveals(w.rng(0))
    trace = workloads.vl.improper_learn(w.cls, data, workloads.IMPROPER, rng, context=w.ctx)
    assert 1 <= rng.reveals <= 8 and len(trace.subset_depths) == 325
    flat = workloads.vl.sample_dataset(w.cls, w.ctx.f, w.dist, len(data), w.rng(0))
    rng = _Reveals(w.rng(0))
    trace = workloads.vl.improper_learn(w.cls, flat, workloads.IMPROPER, rng, context=w.ctx)
    assert rng.reveals == 0 and set(trace.subset_deepest) == {None}
