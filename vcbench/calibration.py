"""Fixed calibration kernels that measure how fast the host runs right now.

The benchmark's host is a few shared cores whose speed drifts: a whole run
can fall into a stretch where every instruction takes up to twice as long.
The runner times one of these kernels just before and just after each op
and around each set-up, and reports times scaled to the speed at which the
kernel takes ``REF_MS[kind]``:

    time at reference speed = measured time * (REF_MS[kind] / kernel time) ** elasticity

The kernels use only Python and numpy, never vc1learn, so a change to the
package cannot move them. Each workload uses the kernel whose timing best
followed its ops' timing on the host, with the elasticity measured there
(``CALIBRATION`` in run.py):

* ``python``: dict updates and string formatting in the interpreter;
* ``numpy``: a float32 matrix product, a sort and a unique over arrays of
  a few hundred kilobytes;
* ``mixed``: the python kernel three times, then the numpy kernel, about
  half the time in each.

``REF_MS`` holds about each kernel's time in the fast stretches of a 2-core
Intel Xeon VM (Python 3.11, numpy 2.4, OpenBLAS on 2 threads); the kernels
ran up to twice as long in its slow stretches. The constants only set the
scale of the reported figures. What matters is that they and the kernels
never change between the commits being compared.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_MS = {"python": 7.5, "numpy": 24.0, "mixed": 50.0}

_rng = np.random.default_rng(20250509)
_MATRIX = _rng.random((192, 192), dtype=np.float32)
_INTS = _rng.integers(0, 1 << 20, 200_000)


def _python_kernel() -> int:
    counts: dict[int, int] = {}
    total = 0
    for k in range(30_000):
        counts[k & 1023] = counts.get(k & 1023, 0) + k
        total += len(str(k))
    return total


def _numpy_kernel() -> float:
    total = 0.0
    for _ in range(2):
        total += float((_MATRIX @ _MATRIX).sum())
        total += float(np.sort(_INTS)[0])
        total += float(np.unique(_INTS[:50_000]).size)
    return total


def _mixed_kernel() -> float:
    return sum(_python_kernel() for _ in range(3)) + _numpy_kernel()


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel, "mixed": _mixed_kernel}


def kernel_ms(kind: str) -> float:
    """One timed run of the ``kind`` kernel, in milliseconds."""
    kernel = KERNELS[kind]
    began = time.perf_counter()
    kernel()
    return (time.perf_counter() - began) * 1e3


def kernel_for(kind: str, seconds: float) -> list[float]:
    """Kernel times from repeated runs for at least ``seconds`` (three runs at least)."""
    samples: list[float] = []
    while len(samples) < 3 or sum(samples) < seconds * 1e3:
        samples.append(kernel_ms(kind))
    return samples


def speed_scale(kind: str, samples: list[float], elasticity: float) -> float:
    """Factor that turns times measured alongside ``samples`` into reference-speed times.

    ``elasticity`` is how strongly the measured code's time follows the
    kernel's: at 0.8, a kernel running 2x slower means the code ran
    2 ** 0.8 = 1.74x slower.
    """
    return (REF_MS[kind] / statistics.median(samples)) ** elasticity
