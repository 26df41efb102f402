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

Both steps run over a whole :class:`~tclmarket.population.Population` at
once. The test suite's per-device oracle, ``tests/oracle.py``, states
them for one device (``temperature_for_bidding`` and ``make_bid``) and
requires the two to agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from .population import Population

__all__ = ["predict_temperatures", "bid_prices"]


def predict_temperatures(population: Population, steps: int, h: float) -> np.ndarray:
    """Each TCL's temperature ``steps`` physics steps of ``h`` seconds ahead.

    Iterates the noise-free thermal step ``steps`` times with each TCL's
    current consumption state m*v held fixed (a device does not anticipate
    its own thermostat or the market). steps=0 returns the measured
    temperatures. :meth:`~tclmarket.scenario.Scenario.plan` gives the step
    count of a scenario's ``lookahead_s``. The forcing term is the
    population's :meth:`~tclmarket.population.Population.forcing`, and the
    steps update a copy of the temperatures in place.
    """
    a = population.step_terms(h)[0]
    forcing = population.forcing(h)
    theta = population.theta.copy()
    for _ in range(steps):
        np.multiply(a, theta, out=theta)
        theta += forcing
    return theta


def bid_prices(population: Population, theta_bid: np.ndarray) -> np.ndarray:
    """Each TCL's bid price at its bidding temperature ``theta_bid``, $/MWh.

    Zero strictly below the deadband, p_cap strictly above it, linear with
    slope gamma1 (gamma2) at or above (below) the set-point in between, then
    clamped to [0, p_cap]. Monotone non-decreasing in theta by construction.

    The price is built in its one output array: ``p0 + gamma*(theta -
    theta_set)`` with gamma the slope of theta's side (two masked
    multiplies over one side mask, so no array of slopes), then the two
    band overrides and the clamp in place. Below the set-point this is
    ``p0 - gamma2*(theta_set - theta)`` bit for bit: ``theta_set - theta``
    is exactly ``-(theta - theta_set)``, rounding to nearest commutes with
    negation so the product is exactly ``-(gamma2*(theta - theta_set))``,
    and ``p0 - (-x)`` is ``p0 + x``.
    """
    theta_set = population.theta_set
    # An overflowed product or sum is +/-inf, which the band overrides or the
    # clamp turn into the same p_cap or 0 that the exact value gives. An
    # inf*0 needs an infinite theta - theta_set, so it can only arise
    # outside the band, where the overrides replace it.
    with np.errstate(over="ignore", invalid="ignore"):
        price = np.subtract(theta_bid, theta_set)
        upper = np.greater_equal(theta_bid, theta_set)
        np.multiply(price, population.gamma1, out=price, where=upper)
        np.multiply(price, population.gamma2, out=price, where=np.logical_not(upper, out=upper))
        del upper
        price += population.p0
    np.copyto(price, population.p_cap, where=theta_bid > population.theta_max)
    np.copyto(price, 0.0, where=theta_bid < population.theta_min)
    np.maximum(price, 0.0, out=price)
    return np.minimum(price, population.p_cap, out=price)
