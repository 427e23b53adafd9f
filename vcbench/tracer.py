"""Outside-in span tracer for vc1learn's public functions.

The tracer wraps each listed function where it is bound: every attribute
of a loaded ``vc1learn`` module that *is* the original function object is
replaced by the wrapper, so calls through ``from .x import f`` re-exports
are traced as well as calls through the defining module. Nothing inside
the package changes. A listed function that no longer exists is recorded
in ``missing`` and reports zero calls.

Spans live in memory as ``[name, phase, op, start, end, parent, note]``
and are written out once at the end of a run. A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested because the workloads are single-threaded.

:class:`MemoryTracer` wraps the same functions but records, per call, the
``tracemalloc`` peak above the memory held at entry. It runs in a
separate pass, because tracing allocations slows the code it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

SETUP_FUNCTIONS = (
    "learners.prepare_context",
    "concepts.is_canonical",
    "concepts.f_represent",
    "concepts.canonicalize",
    "tree.make_tree",
    "tree.mark_proper",
    "generators.generate_class",
)

OP_FUNCTIONS = (
    "learners.improper_learn",
    "learners.proper_learn",
    "learners.partition",
    "mechanisms.private_median",
    "mechanisms.choosing_mechanism",
    "mechanisms.exponential_mechanism",
    "mechanisms.laplace_sample",
    "tree.make_subtree",
    "tree.node_stats",
    "tree.upward_closure",
    "experiments.run_experiment",
    "generators.generate_class",
    "generators.sample_dataset",
    "oracles.error_on_distribution",
    "oracles.dp_audit",
)

TRACED_FUNCTIONS = tuple(dict.fromkeys(SETUP_FUNCTIONS + OP_FUNCTIONS))

PACKAGE = "vc1learn"

# Per-call facts read off a return value, for the waste ratios: whether
# selection abstained, and the descent's step count (None: no descent).
NOTES = {
    "mechanisms.choosing_mechanism": lambda out: out is None,
    "learners.proper_learn": lambda out: (
        len(getattr(out, "path", ())) if getattr(out, "subtree", None) is not None else None
    ),
}


def _package_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class _Patcher:
    """Rebinds every package attribute that is a listed function, and undoes it."""

    def __init__(self, targets=TRACED_FUNCTIONS) -> None:
        self.targets = tuple(targets)
        self.missing: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            return
        modules = _package_modules()
        for target in self.targets:
            mod_name, func_name = target.split(".")
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, func_name, None) if home is not None else None
            if not callable(original):
                self.missing.add(target)
                continue
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        raise NotImplementedError


class Tracer(_Patcher):
    """Timing spans at every listed function boundary."""

    def __init__(self, targets=TRACED_FUNCTIONS) -> None:
        super().__init__(targets)
        self.spans: list[list] = []
        self.phase = "setup"
        self.op: int | None = None
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, self.phase, self.op, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if note is not None:
                span[6] = note(result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds, in span order."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[5] >= 0:
                own[s[5]] -= s[4] - s[3]
        return own

    def dump(self, path, meta: dict) -> None:
        keys = ("name", "phase", "op", "start", "end", "parent", "note")
        with open(path, "w") as fh:
            json.dump(
                {"meta": meta, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh
            )


class MemoryTracer(_Patcher):
    """Peak ``tracemalloc`` bytes above entry, per listed function, max over calls."""

    def __init__(self, targets=TRACED_FUNCTIONS) -> None:
        super().__init__(targets)
        self.peak: dict[str, int] = {}
        # one [bytes at entry, highest bytes seen] pair per open call
        self._stack: list[list[int]] = []

    def _wrap(self, name, fn):
        stack, peak = self._stack, self.peak

        def fold() -> int:
            # fold the peak since the last reset into every open frame
            current, high = tracemalloc.get_traced_memory()
            for frame in stack:
                frame[1] = max(frame[1], high)
            tracemalloc.reset_peak()
            return current

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            current = fold()
            stack.append([current, current])
            try:
                return fn(*args, **kwargs)
            finally:
                fold()
                start, high = stack.pop()
                peak[name] = max(peak.get(name, 0), high - start)

        return traced
