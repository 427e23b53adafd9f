"""Seeded random streams.

Every randomized function in the library takes an explicit
``numpy.random.Generator``. Identical seeds give identical output
sequences; child streams from ``Generator.spawn`` are statistically
independent, so concurrent tasks should each take their own child.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int | None = 0) -> np.random.Generator:
    """A fresh PCG64 generator from a 64-bit seed."""
    return np.random.default_rng(seed)
