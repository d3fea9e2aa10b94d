"""Small shared helpers: worker count, order-preserving threaded map (run
by the scaling study), RNG."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

ENV_THREADS = "CCL_THREADS"


def worker_count() -> int:
    """Worker cap: CCL_THREADS if set, else hardware parallelism."""
    raw = os.environ.get(ENV_THREADS)
    if raw:
        try:
            n = int(raw)
        except ValueError:
            n = 1
        return max(1, n)
    return max(1, os.cpu_count() or 1)


def parallel_map(fn: Callable, items: Sequence) -> list:
    """Order-preserving map, threaded when CCL_THREADS allows.

    Order preservation keeps results bit-identical to the serial run.
    """
    n = worker_count()
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(n, len(items))) as pool:
        return list(pool.map(fn, items))


def rademacher(n: int, seed: int) -> np.ndarray:
    """Seeded +-1 vector; the seed is echoed in experiment reports."""
    rng = np.random.default_rng(np.uint64(seed))
    return rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0
