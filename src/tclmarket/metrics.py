"""Synchronization and oscillation statistics over a simulation trace.

The headline quantity is an order parameter for thermal-phase alignment:
each TCL's position on its hysteresis loop maps to an angle (warming leg
0..pi as temperature climbs the deadband, cooling leg pi..2*pi on the way
back down), and the synchronization index is the magnitude of the mean
unit phasor — 1 when every device sits at the same point of its cycle,
near 0 for phases spread around the loop.

Demand oscillations are summarized per sliding window by peak-to-peak
amplitude and the dominant period from the discrete spectrum of the
de-meaned interval-average demand, many windows per pass as the rows of a
sliding-window view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

if TYPE_CHECKING:
    from .engine import Trace

__all__ = [
    "sync_index",
    "temperature_dispersion",
    "MetricsReport",
    "compute_metrics",
]

#: Length of compute_metrics' sliding windows, minutes.
WINDOW_MIN = 120.0

#: Window elements compute_metrics holds at once: its rows go in blocks of
#: about this many elements (a few MB of temporaries), whatever the horizon.
_BLOCK_ELEMENTS = 2**18


def cycle_phases(
    theta: np.ndarray,
    m: np.ndarray,
    theta_min: np.ndarray,
    theta_max: np.ndarray,
) -> np.ndarray:
    """Angle of each TCL on its hysteresis loop, radians in [0, 2*pi).

    Temperatures outside the deadband clip to the nearest edge, so a
    dispatch-blocked device drifting above theta_max reads as "waiting at
    the top of the warming leg" (phase pi when off and hot).

    The warming leg is pi*x and the cooling leg pi*(2 - x) for the
    clipped band position x. Both are pi*(x*t + (1 - t)) with t = +1 off
    and -1 on, exactly: x*t is x or -x, and -x + 2 rounds as 2 - x does.
    The result equals ``np.where(m == 1, on, off) % (2*pi)`` bit for bit,
    without the remainder: every angle already lies in [0, 2*pi], so the
    remainder only turns -0.0 into +0.0, which adding 1 - t = +0.0 already
    does, and 2*pi (the bottom of the cooling leg) into 0, which is mapped
    directly. The only temporary array is t, 8 B per load.
    """
    x = theta - theta_min
    x /= theta_max - theta_min
    np.clip(x, 0.0, 1.0, out=x)
    t = np.multiply(m == 1, -2.0)
    t += 1.0
    x *= t
    x += np.subtract(1.0, t, out=t)
    x *= np.pi
    x[x == 2.0 * np.pi] = 0.0
    return x


def sync_index(
    theta: np.ndarray,
    m: np.ndarray,
    theta_min: np.ndarray,
    theta_max: np.ndarray,
    slices: Sequence[tuple[int, int]],
) -> list[float]:
    """Order parameters |mean(exp(i*phase))| in [0, 1] of ranges of the loads.

    ``slices`` is a sequence of nonempty ``(start, stop)`` index ranges; the
    result is the list of the order parameters of those ranges of one phasor
    array. Each equals the index of the range's loads taken alone bit for
    bit: a phase depends only on its own load, and a contiguous range's mean
    sums its phasors as a copy of them would be summed.

    The phasors are built in one complex array: real part +0.0, imaginary
    part the phases, exponentiated in place. ``1j * phases`` is that same
    array (its real part is ``0*phase - 1*0 = +0.0``), so the result equals
    ``np.exp(1j * phases)`` bit for bit, without the product's temporary.
    """
    if theta.size == 0:
        raise ValueError("sync_index needs a nonempty population")
    phases = cycle_phases(theta, m, theta_min, theta_max)
    phasors = np.zeros(phases.shape, dtype=np.complex128)
    phasors.imag = phases
    np.exp(phasors, out=phasors)
    return [_order_parameter(phasors[start:stop]) for start, stop in slices]


def _order_parameter(phasors: np.ndarray) -> float:
    # rounding in the phasor mean can land an ulp above 1 for identical phases;
    # the clamp keeps a NaN (of a NaN temperature), which min(1.0, nan) drops
    # the reduction and the scalar division of phasors.mean(), without its wrapper
    x = float(np.abs(phasors.sum() / len(phasors)))
    return 1.0 if x > 1.0 else x


def mean_std(x: np.ndarray) -> tuple:
    """The ``mean()`` and ``std()`` along the last axis of x, from one sum of each row.

    The same operations, in the same order, as numpy's own ``mean`` and
    ``std`` of one row (pairwise sum over the row; squared deviations from
    that mean summed the same way), so both results are bit-identical to
    them, without their per-call overhead. ``x`` is C-contiguous, so each
    row is summed as a 1-D array is. A 1-D x gives two float64 scalars.
    """
    n = x.shape[-1]
    mean = x.sum(axis=-1) / n
    deviation = x - mean[..., None]
    np.multiply(deviation, deviation, out=deviation)
    return mean, np.sqrt(deviation.sum(axis=-1) / n)


def temperature_dispersion(theta: np.ndarray, theta_set: np.ndarray) -> float:
    """Population standard deviation of theta - theta_set, degC."""
    return float(mean_std(np.subtract(theta, theta_set))[1])


@dataclass
class MetricsReport:
    """Statistics derived from a trace, per interval and per sliding window.

    Window quantities use sliding windows of ``WINDOW_MIN`` minutes
    stepping one market interval; window s covers intervals
    [s, s + window), stamped by the window start time
    (``window_start_min`` is a view of the first ``n_windows`` entries of
    the trace's ``time_min``). Per window: the demand peak-to-peak, the
    dominant period (NaN for a flat window) and the mean sync index. What
    ``run()`` records per interval (times, sync index, dispersion,
    per-subgroup sync) is read from the trace itself; the report keeps
    none of it.
    """

    # per market interval
    price_divergence: np.ndarray  # clearing - base, $/MWh
    # per sliding window
    window_start_min: np.ndarray
    window_p2p_kw: np.ndarray
    window_period_min: np.ndarray
    window_sync: np.ndarray
    # scalars
    feeder_hits: int
    max_sync: float
    max_p2p_kw: float

    @property
    def n_windows(self) -> int:
        return len(self.window_start_min)


def window_intervals(interval_min: float) -> int:
    """Market intervals in one sliding window: WINDOW_MIN/interval_min, rounded.

    Raises ValueError below 4, the shortest window whose spectrum the
    dominant period is read from. A ratio past 2**62 counts as 2**62,
    longer than any horizon.
    """
    w = int(round(min(WINDOW_MIN / interval_min, 2.0**62)))
    if w < 4:
        raise ValueError(
            f"window_min ({WINDOW_MIN:g}) must span at least 4 market intervals "
            f"of {interval_min:g} min, not {w}"
        )
    return w


def compute_metrics(trace: Trace) -> MetricsReport:
    """Reduce a trace to the synchronization/oscillation report.

    The per-interval statistics ``run()`` recorded at the end of each
    interval stay in the trace; the report adds the price divergence and
    the sliding-window statistics. Each window is a row of a
    sliding-window view of the trace: the peak-to-peak is the row max
    minus the row min, the dominant period ``w * interval / k`` for the
    largest nonzero-frequency bin k of the row's de-meaned spectrum (one
    ``rfft`` along the rows), and the window sync the row mean. The rows
    go in blocks of about ``_BLOCK_ELEMENTS`` window elements, so the
    temporaries stay a few MB however long the horizon. Each row gives
    the bits that a 1-D array of that window gives, whatever block it is in.
    """
    interval_min = trace.scenario.market_interval_min
    w = window_intervals(interval_min)
    n_int = trace.n_intervals

    n_windows = max(n_int - w + 1, 0)
    window_p2p = np.empty(n_windows)
    window_period = np.empty(n_windows)
    window_sync = np.empty(n_windows)
    rows = max(_BLOCK_ELEMENTS // w, 1)
    for a in range(0, n_windows, rows):
        b = min(a + rows, n_windows)
        demand = sliding_window_view(trace.avg_demand_kw[a : b + w - 1], w)
        window_p2p[a:b] = demand.max(axis=1) - demand.min(axis=1)
        spectrum = np.fft.rfft(demand - demand.mean(axis=1)[:, None], axis=1)
        window_period[a:b] = w * interval_min / (np.abs(spectrum[:, 1:]).argmax(axis=1) + 1)
        window_sync[a:b] = sliding_window_view(trace.sync[a : b + w - 1], w).mean(axis=1)
    window_period[window_p2p == 0.0] = np.nan

    return MetricsReport(
        price_divergence=trace.clearing_price - trace.base_price,
        window_start_min=trace.time_min[:n_windows],
        window_p2p_kw=window_p2p,
        window_period_min=window_period,
        window_sync=window_sync,
        feeder_hits=int(trace.constrained.sum()),
        max_sync=float(trace.sync.max()) if n_int else 0.0,
        max_p2p_kw=float(window_p2p.max()) if n_windows else 0.0,
    )
