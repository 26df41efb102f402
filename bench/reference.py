"""A fixed reference kernel that measures how fast the machine is right now.

The machine the benchmark runs on is shared, and its speed moves by tens
of percent over seconds to minutes. ``worker.py`` times this kernel next to
every scenario run, and ``run.py`` divides each repetition's host times by
the kernel's time in that repetition, so a slow spell that slows both
cancels. The kernel does no ``tclmarket`` work, so a change to the package
cannot move it; it mixes the kinds of work the package does (small Python
objects sorted by key, a plain Python loop, numpy element-wise steps and
sorts over 100k-element arrays) so that it slows down with them.

``REFERENCE_S`` is the kernel's typical time on the machine the baselines
were measured on (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4). Scaled
times are host seconds times ``REFERENCE_S`` over the kernel's time: the
seconds the run would have taken at that machine's typical speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

REFERENCE_S = 0.09


@dataclass(slots=True)
class _Item:
    index: int
    price: float
    power: float


# The arrays are allocated once and worked on in place, and the objects
# have slots, so that the kernel adds little to the peak memory the worker
# reports for the package, while its working set stays as large as the
# package's at 100k loads.
_N = 100_000
_rng = np.random.default_rng(12345)
_A = _rng.random(_N)
_B = _rng.random(_N)
_X = np.empty(_N)
_T = np.empty(_N)
_MASK = np.empty(_N, dtype=bool)


def _objects() -> float:
    total = 0.0
    for _ in range(4):
        items = [_Item(i, float(i % 97), 1.5) for i in range(10_000)]
        items.sort(key=lambda item: -item.price)
        total += sum(item.power for item in items)
    return total


def _loop() -> int:
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def _elementwise() -> float:
    _X[:] = _A
    for _ in range(25):
        np.multiply(_X, 0.99, out=_X)
        np.multiply(_B, 0.01, out=_T)
        np.add(_X, _T, out=_X)
        np.greater(_X, 0.5, out=_MASK)
        np.subtract(_X, 0.001, out=_X, where=_MASK)
    return float(_X.sum())


def _sorts() -> float:
    for _ in range(3):
        _X[:] = _A
        _X.sort()
        _T[:] = _B
        _T.sort(kind="stable")
        np.cumsum(_B, out=_X)
    return float(_X[-1])


def reference_seconds() -> float:
    """Host seconds the kernel takes now."""
    start = perf_counter()
    _objects()
    _loop()
    _elementwise()
    _sorts()
    return perf_counter() - start
