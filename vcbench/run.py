"""Benchmark runner for vc1learn.

    python3 vcbench/run.py --workload chain-improper --seed 1 --seconds 10 --trace 0
    python3 vcbench/run.py --workload all --seed 1 --seconds 10

Runs one workload (see workloads.py) as a closed loop with one client for
``--seconds`` seconds, checks every op's output, and prints as its last line
one JSON object ``{correct, attempted, failed, metrics}``.

* ``--trace 0`` reports the gated end-to-end metrics: ``setup_s`` (median
  of two or three fresh-process set-ups, each timed from just before
  ``import vc1learn`` to the end of one untimed warm-up op), the median op
  latency ``op_ms.p50``, ``ops_per_s`` (ops over summed op time, load
  generation excluded) and ``peak_rss_mb``. The host's speed drifts
  by up to 2x, so every gated time is scaled to a reference speed: each
  op's time by the calibration kernel's times just before and just after
  it, each set-up's by the kernel's times around it (calibration.py,
  PREDICTIONS.md). ``op_ms.p90``, the times as measured (``raw.*``) and
  ``fail_share`` are printed but not gated.
* ``--trace 1`` reports the per-layer metrics from the outside-in tracer
  (tracer.py): self time and calls per layer function by phase, set-up
  peak memory from a separate ``tracemalloc`` pass, waste ratios, and the
  tracing overhead ``trace.op_ms.p50_overhead``. Traced and untraced ops
  alternate, so the overhead compares ops of one process, each scaled by
  the calibration kernel's times around it. Spans are
  written to ``.vcbench_out/``.
* ``--workload all`` runs every workload untraced, each in its own
  process, and prints a table of the gated and the printed figures.

Lines before the last give provenance, input sizes, ``fail_share`` and a
digest of every op's output; op ``i`` at a given seed always sees the same
inputs, so a change in a digest is a change in fixed-seed behaviour.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout clean and imports uniform

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".vcbench_out"
WORKLOAD_NAMES = ("chain-improper", "sweep-proper", "audit-improper")
# Per workload, the calibration kernel (calibration.py) whose times scale
# its gated time metrics, the one whose times followed its op times most
# closely on the host, and the elasticity of its op times with respect to
# that kernel's times there (see PREDICTIONS.md).
CALIBRATION = {
    "chain-improper": ("numpy", 0.8),
    "sweep-proper": ("mixed", 0.8),
    "audit-improper": ("python", 1.0),
}
# seconds of calibration kernel runs just before and just after each set-up
SETUP_CAL_S = 0.3
# Set-up is repeated in fresh processes, up to SETUP_REPEATS times in all,
# until the repeats have taken SETUP_BUDGET_S; setup_s is the median.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 20.0
CHILD_TIMEOUT_S = 170


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_blas_threads() -> int:
    """Fix the BLAS thread count, at most nproc, before numpy loads."""
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", ""))
    except ValueError:
        wanted = _nproc()
    threads = max(1, min(wanted, _nproc()))
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return threads


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(args, workload, blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "toy": args.toy,
        "sizes": workload.sizes(),
    }


def start(args, tracer=None):
    """Import, set up and run one warm-up op.

    Returns the workload, the seconds that took, and the calibration
    samples taken just before and just after it.
    """
    import calibration

    kind = CALIBRATION[args.workload][0]
    samples = calibration.kernel_for(kind, SETUP_CAL_S)
    t0 = time.perf_counter()
    import vc1learn  # noqa: F401  (timed: the import is part of set-up)
    import workloads

    if tracer is not None:
        tracer.install()
    w = workloads.WORKLOADS[args.workload](args.seed, toy=args.toy)
    w.setup()
    rng = w.rng(None)
    inputs = w.load(None, rng)
    w.check(inputs, w.op(inputs, rng))
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    samples += calibration.kernel_for(kind, SETUP_CAL_S)
    return w, setup_s, samples


def run_child(args, mode: str) -> dict:
    """Run this script in a fresh process in ``mode`` and parse its last line."""
    cmd = [sys.executable, "-B", __file__, mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.toy:
        cmd.append("--toy")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loop(w, seconds: float, tracer=None) -> dict:
    """The closed loop: load, timed op, checks, calibration kernel.

    Traced ops alternate with untraced ones. The calibration kernel runs
    just before and just after each op, so each op's time can be scaled by
    the host's speed of that moment.
    """
    import calibration

    kind = CALIBRATION[w.name][0]
    ms, cal, traced, untraced, digests = [], [], [], [], []
    failed = good = total = traced_ops = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        is_traced = tracer is not None and i % 2 == 0
        if is_traced:
            tracer.install()
            tracer.op, tracer.phase = i, "load"
            traced_ops += 1
        rng = w.rng(i)
        inputs = w.load(i, rng)
        cal_before = calibration.kernel_ms(kind)
        if is_traced:
            tracer.phase = "op"
        began = time.perf_counter()
        try:
            out = w.op(inputs, rng)
        except Exception as exc:  # a raised op is a failed op, never retried
            out, error = None, exc
        else:
            error = None
        elapsed = (time.perf_counter() - began) * 1e3
        cal.append([cal_before, calibration.kernel_ms(kind)])
        if is_traced:
            tracer.phase = "check"
        if error is None:
            try:
                ok, n_good, n_results, summary = w.check(inputs, out)
            except Exception as exc:
                error = exc
        if error is not None:
            ok, n_good, n_results, summary = False, 0, 0, {"error": repr(error)}
            print(f"op {i} failed: {error!r}", file=sys.stderr)
        if tracer is not None:
            tracer.uninstall()
        failed += not ok
        good += n_good
        total += n_results
        digests.append(_digest(summary))
        ms.append(elapsed)
        # op time in units of the kernel's time, for the tracing overhead
        (traced if is_traced else untraced).append(elapsed / statistics.fmean(cal[-1]))
        i += 1
    return {
        "ms": ms, "cal": cal, "traced": traced, "untraced": untraced,
        "traced_ops": traced_ops, "failed": failed, "good": good, "total": total,
        "digests": digests,
    }


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def latency(ms: list[float]) -> dict:
    return {
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.p90": (p90(ms), "ms"),
        "ops_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
    }


def end_to_end(workload: str, setups: list[tuple[float, list[float]]], run: dict) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the figures printed beside them.

    Gated times are scaled to the calibration's reference speed. ``op_ms.p90``
    is scaled too but not gated: with about ten ops per chain-improper run it
    is nearly the slowest op, too noisy for a bound. The ``raw.*`` figures are
    as measured, at the host's speed of the moment.
    """
    from calibration import speed_scale

    kind, elasticity = CALIBRATION[workload]
    ref = latency([m * speed_scale(kind, cal, elasticity) for m, cal in zip(run["ms"], run["cal"])])
    gated = {
        "setup_s": (statistics.median(s * speed_scale(kind, cal, elasticity) for s, cal in setups), "s"),
        "op_ms.p50": ref["op_ms.p50"],
        "ops_per_s": ref["ops_per_s"],
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return gated, {
        "op_ms.p90": ref["op_ms.p90"],
        "raw.setup_s": (statistics.median(s for s, _ in setups), "s"),
        **{f"raw.{k}": v for k, v in latency(run["ms"]).items()},
        "raw.cal_ms.p50": (statistics.median(sum(run["cal"], [])), "ms"),
        "fail_share": (run["failed"] / len(run["ms"]), "share"),
    }


def per_layer(tracer, run: dict, peaks: dict) -> dict:
    from tracer import OP_FUNCTIONS, SETUP_FUNCTIONS, TRACED_FUNCTIONS

    calls = defaultdict(int)
    own_s = defaultdict(float)
    notes = defaultdict(list)
    for span, own in zip(tracer.spans, tracer.self_times()):
        key = (span[1], span[0])
        calls[key] += 1
        own_s[key] += own
        if span[1] == "op":
            notes[span[0]].append(span[6])
    per_op = max(run["traced_ops"], 1)
    m = {}
    for f in TRACED_FUNCTIONS:
        m[f"setup.{f}.self_s"] = (own_s[("setup", f)], "s")
    for f in SETUP_FUNCTIONS:
        m[f"setup.{f}.peak_mb"] = (peaks.get(f, 0) / 2**20, "MB")
    for f in OP_FUNCTIONS:
        m[f"op.{f}.calls"] = (calls[("op", f)] / per_op, "calls/op")
        m[f"op.{f}.self_ms"] = (own_s[("op", f)] * 1e3 / per_op, "ms/op")
    m["load.generators.sample_dataset.self_ms"] = (
        own_s[("load", "generators.sample_dataset")] * 1e3 / per_op, "ms/op")
    abstained = notes["mechanisms.choosing_mechanism"]
    m["op.mechanisms.choosing_mechanism.abstain_share"] = (
        sum(1 for a in abstained if a) / len(abstained) if abstained else 0.0, "share")
    proper = notes["learners.proper_learn"]
    steps = [s for s in proper if s is not None]
    m["op.learners.proper_learn.descent_share"] = (
        len(steps) / len(proper) if proper else 0.0, "share")
    m["op.learners.proper_learn.descent_steps"] = (
        statistics.fmean(steps) if steps else 0.0, "steps/descent")
    base = statistics.median(run["untraced"] or run["traced"])
    m["trace.op_ms.p50_overhead"] = (
        (statistics.median(run["traced"]) / base - 1.0) * 100.0, "%")
    if tracer.missing:
        print(f"not found, reported as 0 calls: {sorted(tracer.missing)}")
    return m


def report(args, w, run: dict, metrics: dict, shown: dict, blas_threads: int) -> None:
    correct = run["failed"] == 0 and run["total"] > 0 and w.accurate_enough(run["good"], run["total"])
    attempted = len(run["ms"])
    print("provenance " + json.dumps(provenance(args, w, blas_threads), sort_keys=True))
    print(f"ops {attempted} ({run['failed']} failed), accurate results {run['good']}/{run['total']}")
    print("op_ms samples " + json.dumps([round(x, 3) for x in run["ms"]]))
    print("cal_ms samples " + json.dumps([[round(x, 3) for x in c] for c in run["cal"]]))
    print("op_digests " + json.dumps(run["digests"]))
    print("summary " + json.dumps({k: v for k, (v, _) in {**metrics, **shown}.items()}))
    for name, (value, unit) in {**shown, **metrics}.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main_untraced(args, blas_threads: int) -> int:
    # fresh-process set-ups first, so only one context is ever in memory
    setups = []
    while not setups or (len(setups) < SETUP_REPEATS - 1
                         and sum(s for s, _ in setups) < SETUP_BUDGET_S):
        child = run_child(args, "--setup-only")
        setups.append((child["setup_s"], child["cal_ms"]))
    w, setup_s, cal = start(args)
    setups.append((setup_s, cal))
    print("setup_s samples " + json.dumps(setups))
    run = loop(w, args.seconds)
    report(args, w, run, *end_to_end(args.workload, setups, run), blas_threads)
    return 0


def main_traced(args, blas_threads: int) -> int:
    peaks = run_child(args, "--mem-pass")
    from tracer import Tracer

    tracer = Tracer()
    w, _, _ = start(args, tracer)
    run = loop(w, args.seconds, tracer)
    metrics = per_layer(tracer, run, peaks)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(path, provenance(args, w, blas_threads))
    print(f"spans written to {path.relative_to(ROOT)}")
    report(args, w, run, metrics, {}, blas_threads)
    return 0


def main_mem_pass(args) -> int:
    import tracemalloc

    import vc1learn  # noqa: F401
    import workloads
    from tracer import MemoryTracer

    tracer = MemoryTracer()
    tracer.install()
    tracemalloc.start()
    workloads.WORKLOADS[args.workload](args.seed, toy=args.toy).setup()
    tracemalloc.stop()
    tracer.uninstall()
    print(json.dumps(tracer.peak))
    return 0


def main_all(args) -> int:
    columns = ("setup_s", "op_ms.p50", "op_ms.p90", "ops_per_s", "peak_rss_mb", "fail_share",
               "raw.setup_s", "raw.op_ms.p50")
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, "-B", __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
        if args.toy:
            cmd.append("--toy")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(f"== {name}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        summary = json.loads(next(x for x in lines if x.startswith("summary "))[len("summary "):])
        status |= not result["correct"]
        rows.append((name, result["correct"], summary))
    print(f"\n{'workload':<16}{'correct':>8}" + "".join(f"{c:>14}" for c in columns))
    for name, correct, summary in rows:
        print(f"{name:<16}{str(correct):>8}" + "".join(f"{summary[c]:>14.4g}" for c in columns))
    return status


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for selfcheck.py")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    mode.add_argument("--mem-pass", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vc1learn" / "__init__.py").is_file():
        print(f"vc1learn sources not found under {SRC}", file=sys.stderr)
        return 2
    blas_threads = _pin_blas_threads()
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.workload == "all":
        return main_all(args)
    if args.setup_only:
        _, setup_s, cal = start(args)
        print(json.dumps({"setup_s": setup_s, "cal_ms": cal}))
        return 0
    if args.mem_pass:
        return main_mem_pass(args)
    return (main_traced if args.trace else main_untraced)(args, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
