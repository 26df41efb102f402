"""Bid curves and the short-horizon temperature prediction they bid on."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tclmarket.bidding import bid_prices, predict_temperatures
from tclmarket.engine import generate_population
from tclmarket.population import Population
from tclmarket.scenario import PopulationSpec
from oracle import (
    Bid,
    TclParams,
    TclState,
    devices,
    make_bid,
    population_from_devices,
    temperature_for_bidding,
)

CURVE = TclParams(id=1, theta_set=20.0, deadband=0.5,
                  p0=30.0, p_cap=50.0, gamma1=40.0, gamma2=40.0)


# ----------------------------------------------------------------- bid curve

def test_bid_zero_strictly_below_band():
    assert make_bid(19.74, CURVE).price == 0.0


def test_bid_cap_strictly_above_band():
    assert make_bid(20.26, CURVE).price == 50.0


def test_bid_at_setpoint_is_offset():
    assert make_bid(20.0, CURVE).price == 30.0


def test_bid_upper_branch_slope():
    assert make_bid(20.1, CURVE).price == pytest.approx(34.0)


def test_bid_lower_branch_slope():
    assert make_bid(19.9, CURVE).price == pytest.approx(26.0)


def test_bid_clamps_to_price_range():
    steep = TclParams(id=2, theta_set=20.0, deadband=0.5,
                      p0=10.0, p_cap=20.0, gamma1=500.0, gamma2=500.0)
    assert make_bid(20.2, steep).price == 20.0   # would be 110 unclamped
    assert make_bid(19.8, steep).price == 0.0    # would be -90 unclamped


def test_bid_boundaries_use_linear_branches():
    # band edges themselves are not strict exceedances
    assert make_bid(19.75, CURVE).price == pytest.approx(20.0)
    assert make_bid(20.25, CURVE).price == pytest.approx(40.0)


def test_bid_quantity_is_electrical_power():
    b = make_bid(20.0, CURVE)
    assert b.quantity == CURVE.elec_power
    assert b.tcl_id == 1


@given(theta=st.floats(18.0, 22.0))
def test_bid_price_stays_in_range(theta):
    price = make_bid(theta, CURVE).price
    assert 0.0 <= price <= CURVE.p_cap


@given(lo=st.floats(18.0, 22.0), hi=st.floats(18.0, 22.0))
def test_bid_price_monotone_in_temperature(lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    assert make_bid(lo, CURVE).price <= make_bid(hi, CURVE).price


def test_bid_continuous_at_setpoint():
    eps = 1e-9
    below = make_bid(20.0 - eps, CURVE).price
    above = make_bid(20.0 + eps, CURVE).price
    assert abs(above - below) < 1e-6


# ----------------------------------------------------------------- prediction

P_PHYS = TclParams(id=0, C=10.0, R=2.0, P=14.0, eta=2.5,
                   theta_set=20.0, deadband=0.5)


def test_prediction_zero_lookahead_returns_measurement():
    assert temperature_for_bidding(TclState(21.0), P_PHYS, 32.0, 0, 10.0) == 21.0


def test_prediction_at_ambient_stays_there():
    assert temperature_for_bidding(TclState(32.0, 0, 1), P_PHYS, 32.0, 15, 10.0) == 32.0


def test_prediction_150s_off_trajectory():
    # 15 steps of 10 s; oracle (50-digit series): 20.02497397640840899170...
    got = temperature_for_bidding(TclState(20.0, 0, 1), P_PHYS, 32.0, 15, 10.0)
    assert got == 20.024973976408408
    # closed form of the iterated map: 20 + 12*(1 - exp(-150/72000))
    closed = 20.0 + 12.0 * (1.0 - math.exp(-150.0 / 72000.0))
    assert got == pytest.approx(closed, abs=1e-12)


def test_prediction_holds_consumption_state_fixed():
    on = temperature_for_bidding(TclState(20.0, 1, 1), P_PHYS, 32.0, 15, 10.0)
    blocked = temperature_for_bidding(TclState(20.0, 1, 0), P_PHYS, 32.0, 15, 10.0)
    assert on < 20.0 < blocked


# ----------------------------------------------------------------- vectorized

def _random_population(n=40, seed=7):
    rng = np.random.default_rng(seed)
    params = [
        TclParams(id=i, C=float(rng.uniform(9, 11)), R=float(rng.uniform(1.8, 2.2)),
                  P=float(rng.uniform(13, 15)), eta=float(rng.uniform(2.3, 2.7)),
                  theta_set=float(rng.uniform(19.5, 20.5)),
                  p0=float(rng.uniform(15, 25)), p_cap=float(rng.uniform(30, 45)),
                  gamma1=float(rng.uniform(5, 80)), gamma2=float(rng.uniform(5, 80)))
        for i in range(n)
    ]
    states = [TclState(float(rng.uniform(19.0, 21.0)), int(rng.integers(2)),
                       int(rng.integers(2))) for _ in range(n)]
    return population_from_devices(params, states, theta_ambient=32.0)


def test_predict_temperatures_matches_scalar_bit_for_bit():
    pop = _random_population()
    vec = predict_temperatures(pop, 15, 10.0)
    params, states = devices(pop)
    scalar = [
        temperature_for_bidding(s, p, 32.0, 15, 10.0)
        for s, p in zip(states, params)
    ]
    assert vec.tolist() == scalar


def test_bid_prices_matches_scalar_bit_for_bit():
    pop = _random_population(seed=11)
    theta = predict_temperatures(pop, 15, 10.0)
    vec = bid_prices(pop, theta)
    params, _ = devices(pop)
    scalar = [make_bid(float(t), p).price for t, p in zip(theta, params)]
    assert vec.tolist() == scalar


def _two_branch_bid_prices(population, theta_bid):
    """The bid price as first written: two branches of ``np.where``."""
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


def test_bid_prices_equal_the_two_branch_form_at_the_edges():
    # (theta_set, deadband, p0, p_cap, gamma1, gamma2): unequal slopes, a
    # flat curve, a zero and a capped offset, a slope that overflows past
    # the cap, and a set-point whose half band is not exact
    curves = [(20.0, 0.5, 22.0, 35.0, 20.0, 10.0), (20.0, 0.5, 22.0, 35.0, 0.0, 0.0),
              (19.3, 0.7, 0.0, 30.0, 80.0, 5.0), (21.1, 0.3, 40.0, 40.0, 12.5, 37.0),
              (20.0, 0.5, 22.0, 35.0, 1e308, 1e308), (0.1, 0.3, 3.0, 7.0, 3.3, 0.7)]
    rows = []
    for theta_set, deadband, *bid in curves:
        edges = (theta_set, theta_set - deadband / 2.0, theta_set + deadband / 2.0)
        thetas = [np.nextafter(e, toward) for e in edges for toward in (-np.inf, e, np.inf)]
        thetas += [-np.inf, np.inf, np.nan, -np.nan, theta_set - 0.1, theta_set + 0.1]
        rows += [(theta_set, deadband, *bid, t) for t in thetas]
    theta_set, deadband, p0, p_cap, gamma1, gamma2, theta = map(np.array, zip(*rows))
    n = len(rows)
    pop = Population(C=np.full(n, 10.0), R=np.full(n, 2.0), P=np.full(n, 14.0),
                     eta=np.full(n, 2.5), theta_set=theta_set, deadband=deadband, p0=p0,
                     p_cap=p_cap, gamma1=gamma1, gamma2=gamma2, noise_std=np.zeros(n),
                     theta=np.full(n, 20.0), m=np.ones(n), v=np.ones(n), theta_ambient=32.0)
    with np.errstate(all="ignore"):   # inf*0 and an overflowing slope, in both forms
        expected = _two_branch_bid_prices(pop, theta)
        got = bid_prices(pop, theta)
    assert got.tobytes() == expected.tobytes()
    assert np.isnan(got).sum() == 2 * len(curves)   # only a NaN theta bids NaN


def test_bid_prices_equal_make_bid_where_the_linear_part_overflows():
    # gamma*(theta - theta_set), and p0 plus it, pass float64 far from the
    # set-point: the band overrides and the clamp give the exact bid, and no
    # warning is raised
    curves = [dict(gamma1=1e300, gamma2=1e300), dict(gamma1=1e300, gamma2=0.0),
              dict(deadband=4.0, p0=1e308, p_cap=1e308, gamma1=1e308, gamma2=1e308)]
    offsets = (0.0, 0.1, 1.0, 2.0, 1e150, 1e308)
    cases = [(curve, 20.0 + sign * x) for curve in curves for x in offsets for sign in (1, -1)]
    params = [TclParams(id=i, **curve) for i, (curve, _) in enumerate(cases)]
    theta = np.array([theta for _, theta in cases])
    pop = population_from_devices(params, [TclState(20.0)] * len(params), theta_ambient=32.0)
    expected = [make_bid(theta, p).price for theta, p in zip(theta.tolist(), params)]
    assert bid_prices(pop, theta).tolist() == expected


def test_bid_prices_allocate_only_their_result(traced_peak):
    n = 100_000
    pop = generate_population(PopulationSpec(count=n, theta_set_width=1.0), 3)
    theta = predict_temperatures(pop, 15, 10.0)
    prices, peak = traced_peak(lambda: bid_prices(pop, theta))
    # 8 B per load for the result and 1 for a mask (measured 9.0 B per load
    # in all; 17.0 with an array of slopes, and the two-branch form took 33)
    assert peak <= prices.nbytes + 1.5 * n
