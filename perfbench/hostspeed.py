"""Host-speed reference: a fixed computation timed between measured items.

A shared host's speed changes from second to second and, for a minute or
more at a time, by up to about 2x, because other tenants take a share of the
same cores.  An episode's wall time alone then says as much about the
neighbours as about the program.  The benchmark therefore times this
reference block before and after every timed episode (each set-up
interpreter times it for itself), and reports host times scaled to the
speed at which the block runs on a quiet host (:data:`NOMINAL_S_PER_STEP`):
``scaled = wall / factor ** s``, where ``factor = measured / nominal`` and
``s`` is how far the workload follows the block (``workloads.py``).

The block mimics the simulator's mix -- NumPy ufuncs over 256-wide arrays,
a small dense layer, and Python-level loops over objects and a dict -- so
it slows down with the host roughly as the program does.  It imports
nothing from the program, so a change to the program never changes it.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds per step on a quiet 2-vCPU Intel Xeon VM (the fast level of the
#: host this benchmark was tuned on).  Only scales the reported values.
NOMINAL_S_PER_STEP = 6.5e-5


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: float):
        self.key = key
        self.weight = weight


def _steps(steps: int) -> float:
    rng = np.random.default_rng(12345)
    x = rng.random(256)
    hidden = rng.random((64, 32))
    weights = rng.random((32, 16))
    items = [_Item(key, key * 0.5) for key in range(64)]
    table: dict = {}
    acc = 0.0
    for step in range(steps):
        y = np.where(x > 0.5, x * 1.0001 + 0.01, np.exp(-x))
        y = np.minimum(y, 2.0)
        x = np.clip(y - 0.3 * np.sin(y), 0.0, 1.0)
        acc += float(y.sum()) + float(np.percentile(x, 90))
        acc += float(np.maximum(hidden @ weights, 0.0).argmax())
        for item in items:
            table[item.key] = (table.get(item.key, 0.0) + item.weight * step) % 1000.0
        acc += sum(value for value in table.values() if value > 10.0) * 1e-9
    return acc


def reference_factor(steps: int) -> float:
    """Run one reference block; how many times slower than nominal it ran."""
    start = time.perf_counter()
    _steps(steps)
    return (time.perf_counter() - start) / (steps * NOMINAL_S_PER_STEP)
