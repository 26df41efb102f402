"""The per-device reference: one TCL at a time, as the model is defined.

The paper states its control logic one device at a time: a thermostat
that switches on hysteresis, a first-order thermal step, a short-horizon
temperature prediction and one bid curve per load. This module states
exactly that, with scalar objects (``TclParams``, ``TclState``, ``Bid``)
and scalar functions, and converts between them and a
:class:`~tclmarket.population.Population`.

It is the test oracle for the vectorized code: ``Population.step_physics``,
``predict_temperatures`` and ``bid_prices`` must equal these functions,
evaluated per TCL in index order, bit for bit. It lives with the tests,
outside the package. Parameters and states are checked with the same
rules, and the same messages, as a ``Population``.

:func:`demand_oscillation` is the same kind of reference for the metrics:
the peak-to-peak and dominant period of one demand window, which
``compute_metrics`` computes for every window at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from tclmarket.population import (
    PARAM_FIELDS, Population, check_params, check_state,
)

__all__ = [
    "TclParams",
    "TclState",
    "hysteresis_update",
    "thermal_step",
    "Bid",
    "temperature_for_bidding",
    "make_bid",
    "population_from_devices",
    "devices",
    "demand_oscillation",
]


@dataclass(frozen=True)
class TclParams:
    """Physical and bidding parameters of one TCL.

    Units: C in kWh/degC, R in degC/kW, P (thermal transfer rate when on)
    in kW, eta dimensionless (coefficient of performance), temperatures in
    degC, prices in $/MWh, bid slopes gamma1/gamma2 in $/MWh per degC.
    """

    id: int
    C: float = 10.0
    R: float = 2.0
    P: float = 14.0
    eta: float = 2.5
    theta_set: float = 20.0
    deadband: float = 0.5
    p0: float = 22.0
    p_cap: float = 35.0
    gamma1: float = 20.0
    gamma2: float = 20.0
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        one_tcl = SimpleNamespace(
            **{name: np.array([getattr(self, name)], dtype=np.float64)
               for name in (*PARAM_FIELDS, "theta_min", "theta_max")}
        )
        check_params(one_tcl, self.id)

    @property
    def theta_min(self) -> float:
        """Lower switching threshold, degC."""
        return self.theta_set - self.deadband / 2.0

    @property
    def theta_max(self) -> float:
        """Upper switching threshold, degC."""
        return self.theta_set + self.deadband / 2.0

    @property
    def theta_gain(self) -> float:
        """Temperature pull of the cooling unit when on (P*R), degC."""
        return self.P * self.R

    @property
    def elec_power(self) -> float:
        """Electrical draw while consuming (P/eta), kW."""
        return self.P / self.eta

    def decay(self, h: float) -> float:
        """Per-step thermal decay factor exp(-h / (C*R*3600)) for step h seconds."""
        return math.exp(-h / (self.C * self.R * 3600.0))


@dataclass
class TclState:
    """Evolving state of one TCL: a finite temperature plus the two switch bits."""

    theta: float
    m: int = 0
    v: int = 1

    def __post_init__(self) -> None:
        check_state(np.array([self.theta], dtype=np.float64), np.array([self.m]),
                    np.array([self.v]))


def hysteresis_update(state: TclState, params: TclParams) -> TclState:
    """Advance the thermostat switch from the current temperature.

    Strictly below the band the unit switches off, strictly above it
    switches on; on the boundaries and inside the band the switch holds.
    Temperature and dispatch flag are untouched.
    """
    m = state.m
    if state.theta < params.theta_min:
        m = 0
    elif state.theta > params.theta_max:
        m = 1
    return replace(state, m=m)


def thermal_step(
    state: TclState,
    params: TclParams,
    theta_ambient: float,
    h: float,
    noise_sample: float = 0.0,
) -> TclState:
    """Advance the temperature one step of h seconds.

    First-order pull toward ambient, offset by the cooling gain while the
    device actually consumes (m*v = 1):

        theta' = a*theta + (1 - a)*(theta_ambient - m*v*P*R) + w

    with a = exp(-h/(C*R*3600)) (C in kWh/degC, h in seconds). Switches
    are not updated here.
    """
    if h <= 0:
        raise ValueError("time step h must be positive")
    a = params.decay(h)
    theta = (
        a * state.theta
        + (1.0 - a) * (theta_ambient - state.m * state.v * params.theta_gain)
        + noise_sample
    )
    return replace(state, theta=theta)


@dataclass(frozen=True)
class Bid:
    """One offer: willing to pay ``price`` $/MWh for ``quantity`` kW."""

    tcl_id: int
    price: float
    quantity: float


def temperature_for_bidding(
    state: TclState,
    params: TclParams,
    theta_ambient: float,
    steps: int,
    h: float,
) -> float:
    """Predict the temperature ``steps`` physics steps of ``h`` seconds ahead.

    Iterates the noise-free thermal step ``steps`` times with the current
    consumption state m*v held fixed (the device does not anticipate its own
    thermostat or the market). steps=0 returns the measured temperature.
    """
    s = state
    for _ in range(steps):
        s = thermal_step(s, params, theta_ambient, h, 0.0)
    return s.theta


def make_bid(theta_bid: float, params: TclParams) -> Bid:
    """Evaluate the bid curve at a temperature.

    Zero strictly below the deadband, p_cap strictly above it, linear with
    slope gamma1 (gamma2) at or above (below) the set-point in between, then
    clamped to [0, p_cap]. Monotone non-decreasing in theta by construction.
    """
    if theta_bid < params.theta_min:
        price = 0.0
    elif theta_bid > params.theta_max:
        price = params.p_cap
    elif theta_bid >= params.theta_set:
        price = params.p0 + params.gamma1 * (theta_bid - params.theta_set)
    else:
        price = params.p0 - params.gamma2 * (params.theta_set - theta_bid)
    price = min(max(price, 0.0), params.p_cap)
    return Bid(tcl_id=params.id, price=price, quantity=params.elec_power)


def population_from_devices(
    params: Sequence[TclParams],
    states: Sequence[TclState],
    theta_ambient: float,
) -> Population:
    """Unpack scalar TCL objects, in index order, into a Population.

    The ids of ``params`` are not kept: in a Population the id of a TCL is
    its index.
    """
    return Population(
        **{name: [getattr(p, name) for p in params] for name in PARAM_FIELDS},
        theta=[s.theta for s in states],
        m=[s.m for s in states],
        v=[s.v for s in states],
        theta_ambient=theta_ambient,
    )


def devices(pop: Population) -> tuple[tuple[TclParams, ...], list[TclState]]:
    """The parameters and current state of a Population as scalar objects.

    Index order; the id of each ``TclParams`` is its index.
    """
    params = tuple(
        TclParams(id=i, **{name: float(getattr(pop, name)[i]) for name in PARAM_FIELDS})
        for i in range(pop.size)
    )
    states = [
        TclState(theta=float(t), m=int(m), v=int(v))
        for t, m, v in zip(pop.theta, pop.m, pop.v)
    ]
    return params, states


def demand_oscillation(
    series: np.ndarray, interval_minutes: float = 5.0
) -> tuple[float, float]:
    """Peak-to-peak and dominant period of one demand window.

    ``series`` is the interval-average demand over a single window of at
    least 4 market intervals. The dominant period comes from the largest
    nonzero-frequency bin of the de-meaned series' spectrum; a constant
    window has no period and returns NaN for it.
    """
    x = np.asarray(series, dtype=float)
    if x.size < 4:
        raise ValueError("demand_oscillation needs a window of >= 4 intervals")
    p2p = float(x.max() - x.min())
    if p2p == 0.0:
        return 0.0, float("nan")
    spectrum = np.abs(np.fft.rfft(x - x.mean()))
    k = int(np.argmax(spectrum[1:])) + 1
    period = x.size * interval_minutes / k
    return p2p, float(period)
