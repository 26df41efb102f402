"""Bid formation: from (predicted) temperature to a (price, quantity) offer.

Each market interval a TCL maps a temperature to a price on its personal
bid curve — zero below the deadband, capped above it, and piecewise
linear through the set-point where it offers exactly ``p0``:

            p_cap |            ________
                  |           /
              p0  |          /
                  |         /
               0  |________/
                  +-----|--|--|-------->  theta
                     theta_min  theta_max

The quantity side is trivial under the constant-power device model: a
dispatched TCL that stays on draws P/eta for the whole interval, so every
bid offers exactly that.

The temperature fed into the curve is, by default, a short-horizon
prediction rather than the measurement: the device rolls its own
noise-free thermal model forward (holding its current on/off consumption
state fixed) and bids on where it will be mid-interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .population import Population, TclParams, TclState, thermal_step

__all__ = [
    "Bid",
    "temperature_for_bidding",
    "make_bid",
    "predict_temperatures",
    "bid_prices",
]


@dataclass(frozen=True)
class Bid:
    """One offer: willing to pay ``price`` $/MWh for ``quantity`` kW.

    The scalar reference form of a bid (see ``make_bid``); the simulation
    passes a whole population's bids to the market as two arrays.
    """

    tcl_id: int
    price: float
    quantity: float


def _lookahead_steps(lookahead: float, h: float) -> int:
    """Number of prediction steps; lookahead must be a whole multiple of h."""
    if h <= 0:
        raise ValueError("time step h must be positive")
    if lookahead < 0:
        raise ValueError("lookahead must be >= 0")
    steps = lookahead / h
    rounded = round(steps)
    if abs(steps - rounded) > 1e-9:
        raise ValueError(
            f"lookahead ({lookahead} s) must be an integer multiple of "
            f"the physics step ({h} s)"
        )
    return int(rounded)


def temperature_for_bidding(
    state: TclState,
    params: TclParams,
    theta_ambient: float,
    lookahead: float,
    h: float,
) -> float:
    """Predict the temperature ``lookahead`` seconds ahead for bidding.

    Iterates the noise-free thermal step lookahead/h times with the current
    consumption state m*v held fixed (the device does not anticipate its own
    thermostat or the market). lookahead=0 returns the measured temperature.
    """
    steps = _lookahead_steps(lookahead, h)
    s = state
    for _ in range(steps):
        s = thermal_step(s, params, theta_ambient, h, 0.0)
    return s.theta


def make_bid(theta_bid: float, params: TclParams) -> Bid:
    """Evaluate the bid curve at a temperature.

    Zero strictly below the deadband, p_cap strictly above it, linear with
    slope gamma1 (gamma2) above (below) the set-point in between, then
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


def predict_temperatures(population: Population, lookahead: float, h: float) -> np.ndarray:
    """Vectorized ``temperature_for_bidding`` over a whole population.

    Bit-identical to calling the scalar operation per TCL in index order.
    """
    steps = _lookahead_steps(lookahead, h)
    a, off, on = population.step_terms(h)
    forcing = np.where(population.consuming(), on, off)
    theta = population.theta
    for _ in range(steps):
        theta = a * theta + forcing
    return theta


def bid_prices(population: Population, theta_bid: np.ndarray) -> np.ndarray:
    """Vectorized bid-curve evaluation; same contract as ``make_bid``."""
    above_set = theta_bid >= population.theta_set
    linear = np.where(
        above_set,
        population.p0 + population.gamma1 * (theta_bid - population.theta_set),
        population.p0 - population.gamma2 * (population.theta_set - theta_bid),
    )
    price = np.where(
        theta_bid < population.theta_min,
        0.0,
        np.where(theta_bid > population.theta_max, population.p_cap, linear),
    )
    return np.minimum(np.maximum(price, 0.0), population.p_cap)
