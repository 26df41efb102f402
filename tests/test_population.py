"""Single-TCL physics: parameters, hysteresis, thermal step, aggregation."""

import itertools
import math
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tclmarket.engine import generate_population, run
from tclmarket.market import build_demand_curve
from tclmarket.population import (
    PARAM_FIELDS,
    LimbTable,
    Population,
    aggregate_power,
    one_value,
)
from tclmarket.scenario import PopulationSpec, Scenario
from oracle import (
    TclParams,
    TclState,
    hysteresis_update,
    population_from_devices,
    thermal_step,
)

P_DEFAULT = TclParams(id=0, C=10.0, R=2.0, P=14.0, eta=2.5,
                      theta_set=20.0, deadband=0.5)


# ---------------------------------------------------------------- parameters

def test_derived_properties():
    p = P_DEFAULT
    assert p.theta_min == 19.75
    assert p.theta_max == 20.25
    assert p.theta_gain == 28.0    # P*R
    assert p.elec_power == 5.6     # P/eta
    assert p.decay(10.0) == math.exp(-10.0 / 72000.0)


def test_params_reject_nonpositive_physics():
    for field, value in [("C", 0.0), ("R", -1.0), ("P", 0.0), ("eta", -2.0)]:
        with pytest.raises(ValueError):
            TclParams(id=0, **{field: value})
    with pytest.raises(ValueError):
        TclParams(id=0, deadband=0.0)


def test_params_reject_bad_bid_curve():
    with pytest.raises(ValueError):
        TclParams(id=0, p0=-1.0)
    with pytest.raises(ValueError):
        TclParams(id=0, p0=50.0, p_cap=40.0)
    with pytest.raises(ValueError):
        TclParams(id=0, gamma1=-5.0)
    # cooling gain must exceed the deadband or the device can never cycle
    with pytest.raises(ValueError):
        TclParams(id=0, P=0.1, R=2.0, deadband=0.5)


def test_state_rejects_non_binary_switches():
    with pytest.raises(ValueError):
        TclState(20.0, m=2)
    with pytest.raises(ValueError):
        TclState(20.0, m=0, v=-1)
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^theta must be finite, got theta={theta}$"):
            TclState(theta, m=1)


# ---------------------------------------------------------------- hysteresis

def test_hysteresis_switches_on_above_band():
    s = hysteresis_update(TclState(20.3, m=0), P_DEFAULT)
    assert s.m == 1


def test_hysteresis_switches_off_below_band():
    s = hysteresis_update(TclState(19.7, m=1), P_DEFAULT)
    assert s.m == 0


def test_hysteresis_holds_inside_band():
    assert hysteresis_update(TclState(20.0, m=1), P_DEFAULT).m == 1
    assert hysteresis_update(TclState(20.0, m=0), P_DEFAULT).m == 0


def test_hysteresis_holds_on_boundaries():
    # boundaries are not strict exceedances, so the switch must hold
    assert hysteresis_update(TclState(20.25, m=0), P_DEFAULT).m == 0
    assert hysteresis_update(TclState(19.75, m=1), P_DEFAULT).m == 1


@given(theta=st.floats(15.0, 25.0), m=st.sampled_from([0, 1]))
def test_hysteresis_result_consistent_with_band(theta, m):
    out = hysteresis_update(TclState(theta, m=m), P_DEFAULT)
    if theta < 19.75:
        assert out.m == 0
    elif theta > 20.25:
        assert out.m == 1
    else:
        assert out.m == m
    assert out.theta == theta and out.v == 1


# --------------------------------------------------------------- thermal step

def test_thermal_step_off_fixed_point_is_ambient():
    s = thermal_step(TclState(32.0, 0, 1), P_DEFAULT, 32.0, 10.0)
    assert s.theta == 32.0


def test_thermal_step_off_heats_toward_ambient():
    # oracle (50-digit series): 20.00166655093128410750...
    s = thermal_step(TclState(20.0, 0, 1), P_DEFAULT, 32.0, 10.0)
    assert s.theta == 20.001666550931283


def test_thermal_step_on_cools():
    # oracle (50-digit series): 19.99777793209162118999...
    s = thermal_step(TclState(20.0, 1, 1), P_DEFAULT, 32.0, 10.0)
    assert s.theta == 19.99777793209162


def test_thermal_step_undispatched_equals_off():
    blocked = thermal_step(TclState(25.0, 1, 0), P_DEFAULT, 32.0, 10.0)
    off = thermal_step(TclState(25.0, 0, 1), P_DEFAULT, 32.0, 10.0)
    assert blocked.theta == off.theta


def test_thermal_step_applies_noise_additively():
    base = thermal_step(TclState(20.0, 0, 1), P_DEFAULT, 32.0, 10.0)
    noisy = thermal_step(TclState(20.0, 0, 1), P_DEFAULT, 32.0, 10.0,
                         noise_sample=0.01)
    assert noisy.theta == base.theta + 0.01


def test_thermal_step_rejects_nonpositive_h():
    with pytest.raises(ValueError):
        thermal_step(TclState(20.0), P_DEFAULT, 32.0, 0.0)


@given(theta=st.floats(0.0, 40.0), m=st.sampled_from([0, 1]),
       v=st.sampled_from([0, 1]))
def test_thermal_step_contracts_toward_equilibrium(theta, m, v):
    # each step moves theta strictly toward the active branch equilibrium
    target = 32.0 - m * v * 28.0
    out = thermal_step(TclState(theta, m, v), P_DEFAULT, 32.0, 10.0)
    assert abs(out.theta - target) <= abs(theta - target)


# --------------------------------------------------------------- aggregation

def _pop(states, n=3):
    params = [TclParams(id=i) for i in range(n)]
    return population_from_devices(params, states, theta_ambient=32.0)


def _power(pop, consuming):
    """The power drawn by one consuming mask, as run() sums a block of them."""
    return float(aggregate_power(pop, consuming[None], np.array([np.count_nonzero(consuming)]))[0])


def _total(table, mask):
    """The exact total of the values one mask selects, as a demand curve asks for it."""
    return float(table.total(mask[None], np.array([np.count_nonzero(mask)]))[0])


def test_aggregate_power_all_off_is_zero():
    pop = _pop([TclState(20.0, 0, 1) for _ in range(3)])
    assert _power(pop, pop.m & pop.v) == 0.0


def test_aggregate_power_counts_only_consuming_units():
    pop = _pop([TclState(20.0, 1, 1), TclState(20.0, 1, 0), TclState(20.0, 0, 1)])
    assert _power(pop, pop.m & pop.v) == 5.6


def _population_of(P, eta, m, v):
    """A population that differs only in P, eta and the two switches."""
    n = len(P)
    same = {"C": 10.0, "R": 2.0, "theta_set": 20.0, "deadband": 0.5, "p0": 22.0,
            "p_cap": 35.0, "gamma1": 20.0, "gamma2": 20.0, "noise_std": 0.0, "theta": 20.0}
    return Population(**{k: np.full(n, x) for k, x in same.items()},
                      P=P, eta=eta, m=m, v=v, theta_ambient=32.0)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
    switches=st.sampled_from(["random", "all on", "all off"]),
)
def test_aggregate_power_equals_fsum_of_consuming_loads(n, seed, switches):
    rng = np.random.default_rng(seed)
    P = rng.uniform(1.0, 2.0, n) * 2.0 ** rng.integers(0, 10, n)
    eta = rng.uniform(1.0, 2.0, n) * 2.0 ** rng.integers(-1, 3, n)
    if n >= 2:   # P/eta spans at least 8 binades: under 1/4 kW up to at least 256 kW
        P[:2], eta[:2] = (1.0, 1024.0), (4.5, 3.0)
    m = {"random": rng.integers(0, 2, n), "all on": np.ones(n), "all off": np.zeros(n)}[switches]
    v = rng.integers(0, 2, n) if switches == "random" else m
    pop = _population_of(P, eta, m, v)
    expected = math.fsum(pop.elec_power[pop.m & pop.v].tolist())
    assert _power(pop, pop.m & pop.v) == expected
    assert math.copysign(1.0, _power(pop, pop.m & pop.v)) == 1.0   # never -0.0


def test_aggregate_power_is_exact_at_the_width_bound():
    # 131071 loads is the most that share one limb width (36 bits). With all
    # 53 mantissa bits set, every load's low limb is 2**36 - 1, so the
    # all-on row sum needs every bit of a float64 and must still be exact.
    # A population keeps one shared P/eta as a one-value table, so the limb
    # table is built from the full array here.
    n = 2**17 - 1
    P = np.full(n, 8.0 - 2.0**-50)
    table = LimbTable(P)
    limbs, lo, width = table.limbs, table.lo, table.width
    assert sum(int(d) << (width * j) for j, d in enumerate(limbs[:, 0])) == 2**53 - 1
    assert lo == -50
    exact = [sum(map(int, row.tolist())) for row in limbs]
    assert exact[0] > 2**52
    assert (limbs @ np.ones(n)).tolist() == exact
    assert table.sum == math.fsum(P.tolist())
    pop = _population_of(P, np.ones(n), np.ones(n), np.ones(n))
    assert _power(pop, pop.m & pop.v) == math.fsum(P.tolist())
    pop.set_dispatch(np.arange(n) % 3, 1)   # every load but each third
    consuming = pop.m & pop.v
    assert _power(pop, consuming) == math.fsum(P[consuming].tolist())
    assert _total(table, consuming) == _power(pop, consuming)


def _spread_population(R, P, eta, m):
    """Loads that differ in R, P, eta and m; every other parameter a TclParams default."""
    params = [TclParams(id=i, R=r, P=p, eta=e) for i, (r, p, e) in enumerate(zip(R, P, eta))]
    return population_from_devices(params, [TclState(20.0, m=x) for x in m], theta_ambient=32.0)


def test_population_rejects_a_p_over_eta_spread_the_limbs_cannot_hold():
    # 4e-301 kW next to 5.6 kW: scaling the largest by 2**-lo would overflow
    # the limb table, and the power sum would come out negative
    with pytest.raises(ValueError, match=r"smallest 4e-301 \(TCL 0\), largest 5\.6 \(TCL 1\)"):
        _spread_population([1e301, 2.0, 2.0], [1e-300, 14.0, 3.0], [2.5] * 3, [1, 0, 0])


def test_aggregate_power_is_exact_at_the_exponent_span_bound():
    # frexp exponents -961 and 10 differ by exactly 971: the largest P/eta,
    # every mantissa bit set, scales to the largest finite float64
    big = float(np.nextafter(1024.0, 0.0))
    R, P, eta = [2.0**963, 2.0, 2.0], [2.0**-962, big, 14.0], [1.0, 1.0, 2.5]
    pop = _spread_population(R, P, eta, [1, 1, 1])
    assert math.frexp(big)[1] - math.frexp(2.0**-962)[1] == 971
    assert pop.power_limbs.limbs.max() < 2.0**53
    for mask in itertools.product([False, True], repeat=3):
        consuming = np.array(mask)
        expected = math.fsum(pop.elec_power[consuming].tolist())
        assert _power(pop, consuming) == expected, mask
    with pytest.raises(ValueError, match="at most 971"):
        _spread_population(R, [2.0**-963, big, 14.0], eta, [1, 1, 1])


def test_population_rejects_p_over_eta_whose_exact_total_overflows():
    # two loads of 1.5e308 kW each: every load is finite, their total is not
    huge = [1.5e308, 1.5e308]
    with pytest.raises(ValueError, match=r"P/eta sums past the float64 range.*TCL 0"):
        _spread_population([1e-300] * 2, huge, [1.0] * 2, [1, 1])
    # At the float64 limit the exact total decides: the largest float plus
    # 2**970 is the midpoint to 2**1024 and rounds up; one ulp less fits.
    top = float(np.finfo(np.float64).max)
    with pytest.raises(ValueError, match="sums past the float64 range"):
        _spread_population([28.0 / top, 28.0 / 2.0**970], [top, 2.0**970], [1.0] * 2, [1, 1])
    below = math.nextafter(2.0**970, 0.0)
    pop = _spread_population([28.0 / top, 28.0 / below], [top, below], [1.0] * 2, [1, 1])
    assert pop.capacity_kw == _power(pop, pop.m & pop.v) == top
    assert pop.capacity_kw == math.fsum([top, below])


def test_population_rejects_an_infinite_p_times_r():
    # 1e200 kW with 1e200 degC/kW: P/eta is finite, P*R is not
    with pytest.raises(ValueError, match=r"TCL 1: P\*R=inf degC must be finite"):
        _spread_population([2.0, 1e200], [14.0, 1e200], [2.5, 2.5], [1, 1])
    with pytest.raises(ValueError, match=r"TCL 0: P\*R=inf degC must be finite"):
        TclParams(id=0, P=1e200, R=1e200)


def test_population_capacity_sums_electrical_power():
    pop = _pop([TclState(20.0) for _ in range(3)])
    assert pop.capacity_kw == pytest.approx(3 * 5.6)


def _step(pop, h=10.0):
    """One physics step into fresh output arrays."""
    pop.step_physics(h, None, np.empty(pop.size), np.empty(pop.size, dtype=bool))


def test_population_step_matches_scalar_ops_bit_for_bit():
    rng = np.random.default_rng(42)
    n = 64
    params = [
        TclParams(id=i, C=float(rng.uniform(9, 11)), R=float(rng.uniform(1.8, 2.2)),
                  P=float(rng.uniform(13, 15)), eta=2.5,
                  theta_set=float(rng.uniform(19.5, 20.5)))
        for i in range(n)
    ]
    states = [TclState(float(rng.uniform(19.0, 21.0)), int(rng.integers(2)),
                       int(rng.integers(2))) for _ in range(n)]
    pop = population_from_devices(params, states, theta_ambient=32.0)
    mirror = list(states)
    for _ in range(25):
        _step(pop)
        for i, s in enumerate(mirror):
            s = hysteresis_update(s, params[i])
            mirror[i] = thermal_step(s, params[i], 32.0, 10.0)
    assert pop.theta.tolist() == [s.theta for s in mirror]
    assert pop.m.tolist() == [s.m for s in mirror]


@pytest.mark.parametrize("spec, a, oracle", [
    ({"c_mean": 1e-320}, 0.0, True),                  # -h/(C*R*3600) overflows to -inf
    ({"c_mean": 5e-324, "r_mean": 0.4}, 0.0, False),  # C*R rounds to 0; the oracle divides by 0
    ({"c_mean": 1e300, "r_mean": 1e10}, 1.0, True),   # C*R*3600 overflows to inf
])
def test_decay_at_the_float_limits_is_its_exact_limit_without_a_warning(spec, a, oracle):
    scenario = Scenario(population=PopulationSpec(count=5, **spec), horizon_min=15)
    h = scenario.h_seconds
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert scenario.validate() == []
        assert run(scenario).population.step_terms(h)[0].tolist() == [a] * 5
        pop = generate_population(scenario.population, scenario.seed)
        params = [TclParams(id=i, **{name: getattr(pop, name).item(i) for name in PARAM_FIELDS})
                  for i in range(pop.size)]
        states = [TclState(pop.theta.item(i), int(pop.m[i]), int(pop.v[i]))
                  for i in range(pop.size)]
        _step(pop, h)
    if oracle:
        assert pop.theta.tolist() == [
            thermal_step(hysteresis_update(s, p), p, pop.theta_ambient, h).theta
            for s, p in zip(states, params)
        ]


def test_step_physics_switch_rule_at_band_edges_and_nan():
    # on the band edges, one ulp either side of them, and at non-finite theta
    edges = (19.75, 20.25)
    theta = [np.nextafter(e, d) for e in edges for d in (-np.inf, e, np.inf)]
    theta = np.repeat(theta + [math.nan, -math.nan, math.inf, -math.inf], 2)
    n = len(theta)
    pop = _population_of(np.full(n, 14.0), np.full(n, 2.5), np.arange(n) % 2, np.ones(n))
    pop.theta = theta
    m = pop.m.copy()
    _step(pop)
    # the rule as written before the in-place update, and the reference's
    expected = (theta > pop.theta_max) | (m & ~(theta < pop.theta_min))
    assert pop.m.tolist() == expected.tolist()
    # the reference takes finite temperatures only (a TclState rejects the rest)
    params = TclParams(id=0)
    finite = np.isfinite(theta)
    assert pop.m[finite].tolist() == [
        bool(hysteresis_update(TclState(float(t), int(mi)), params).m)
        for t, mi in zip(theta[finite], m[finite])
    ]


def test_step_physics_allocates_no_temporaries():
    n = 100_000
    pop = _population_of(np.full(n, 14.0), np.full(n, 2.5), np.arange(n) % 2, np.ones(n))
    rows = np.empty((2, n)), np.empty((2, n), dtype=bool)
    noise = np.full(n, 1e-3)
    _step(pop)   # builds the step terms, the forcing term and the band scratch
    tracemalloc.start()
    try:
        for j in range(4):
            pop.step_physics(10.0, noise, rows[0][j % 2], rows[1][j % 2])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each step keeps the forcing term, so none casts the boolean mask
    # (measured 1840 B); a temporary of n bools or more would show
    assert peak < n


def _flip_bits(on, off):
    """The bits that turn each float64 ``off`` into ``on``: ``on ^ off`` as int64."""
    return on.view(np.int64) ^ off.view(np.int64)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
    h=st.sampled_from([1e-300, 10.0]),
    ambient=st.sampled_from([0.0, -0.0, 32.0]),
)
def test_forcing_equals_np_where_bit_for_bit(n, seed, h, ambient):
    # h = 1e-300 makes a = 1.0, so on = 0.0*(ambient - P*R) is -0.0 and
    # off = 0.0*ambient is +0.0 for ambient +0.0 and 32.0, -0.0 for -0.0
    rng = np.random.default_rng(seed)
    params = [TclParams(id=i, C=float(rng.uniform(9, 11)), R=float(rng.uniform(1.8, 2.2)),
                        theta_set=ambient - 12.0) for i in range(n)]
    states = [TclState(ambient - 12.0, int(rng.integers(2)), int(rng.integers(2)))
              for _ in range(n)]
    pop = population_from_devices(params, states, theta_ambient=ambient)
    a = np.array([p.decay(h) for p in params])
    on = (1.0 - a) * (ambient - pop.P * pop.R)
    off = (1.0 - a) * ambient
    assert pop.forcing(h).tobytes() == np.where(pop.m & pop.v, on, off).tobytes()
    pop.set_dispatch(rng.uniform(0.0, 40.0, n), 20.0)
    assert pop.forcing(h).tobytes() == np.where(pop.m & pop.v, on, off).tobytes()


def _where_forcing(pop, h):
    """``np.where(m & v, on, off)`` of a step of h seconds, computed apart from the population."""
    a = np.array([math.exp(x) for x in (-h / (pop.C * pop.R * 3600.0)).tolist()])
    on = (1.0 - a) * (pop.theta_ambient - pop.P * pop.R)
    return np.where(pop.m & pop.v, on, (1.0 - a) * pop.theta_ambient)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    ops=st.lists(st.tuples(st.sampled_from(["fresh row", "row it reads", "dispatch", "assign m"]),
                           st.sampled_from([10.0, 20.0])), min_size=1, max_size=40),
)
def test_kept_forcing_term_equals_a_full_rebuild_after_every_step(n, seed, ops):
    # time constants of 36-360 s, so that most steps switch some loads
    rng = np.random.default_rng(seed)
    params = [TclParams(id=i, C=float(rng.uniform(0.005, 0.05)), R=float(rng.uniform(1.8, 2.2)))
              for i in range(n)]
    states = [TclState(float(rng.uniform(19.0, 21.0)), int(rng.integers(2)), int(rng.integers(2)))
              for _ in range(n)]
    # the twin marks its term stale before every step, so each of its steps rebuilds it
    pop, twin = (population_from_devices(params, states, theta_ambient=32.0) for _ in range(2))
    for op, h in ops:
        if op == "dispatch":
            prices = rng.uniform(0.0, 40.0, n)
            pop.set_dispatch(prices, 20.0)
            twin.set_dispatch(prices, 20.0)
        elif op == "assign m":
            m = rng.integers(0, 2, n).astype(bool)
            pop.m, twin.m = m, m.copy()
        else:
            noise = rng.normal(0.0, 0.2, n)
            twin.m = twin.m
            for p in (pop, twin):
                if op == "fresh row":
                    p.step_physics(h, noise, np.empty(n), np.empty(n, dtype=bool))
                else:   # as run() steps when a block holds one row
                    p.step_physics(h, noise, p.theta, p.m)
            assert pop.forcing(h).tobytes() == _where_forcing(pop, h).tobytes()
            assert pop.theta.tobytes() == twin.theta.tobytes()
            assert pop.m.tobytes() == twin.m.tobytes()


@pytest.mark.parametrize("base", ["tied with bids", "above every bid", "zero"])
def test_base_demand_from_limb_sum_equals_the_curve(base):
    # run() takes the demand at the base price from the population's limb
    # table instead of a curve; both must equal the exact sum, rounded once
    rng = np.random.default_rng(9)
    n = 2000
    P = rng.uniform(1.0, 2.0, n) * 2.0 ** rng.integers(0, 8, n)
    eta = rng.uniform(1.0, 4.0, n)
    pop = _population_of(P, eta, np.ones(n), np.ones(n))
    prices = rng.choice([0.0, 9.0, 20.0, 31.25], n)
    base_price = {"tied with bids": 20.0, "above every bid": 42.0, "zero": 0.0}[base]
    expected = math.fsum(pop.elec_power[prices >= base_price].tolist())
    got = _power(pop, prices >= base_price)
    assert got == expected
    assert build_demand_curve(prices, pop.power_limbs).demand(base_price) == expected
    assert math.copysign(1.0, got) == math.copysign(1.0, expected)
    assert (got == 0.0) == (base == "above every bid")


def test_population_rejects_mismatched_lengths():
    params = [TclParams(id=i) for i in range(3)]
    with pytest.raises(ValueError):
        population_from_devices(params, [TclState(20.0)], theta_ambient=32.0)
    with pytest.raises(ValueError, match="^population must contain at least one TCL$"):
        population_from_devices([], [], theta_ambient=32.0)


def _device_arrays(n=6):
    pop = _pop([TclState(20.0, 1, 1) for _ in range(n)], n)
    arrays = {name: getattr(pop, name).copy() for name in PARAM_FIELDS + ("theta",)}
    # the switches as callers pass them (Population stores them as booleans)
    arrays.update(m=pop.m.astype(np.int8), v=pop.v.astype(np.int8))
    return arrays


def test_invalid_per_load_array_raises_the_tclparams_message():
    for field, value in [("p0", 50.0), ("C", 0.0), ("gamma2", -1.0), ("P", 0.1),
                         ("noise_std", float("-inf")), ("P", float("nan")),
                         ("eta", float("inf")), ("P", float("inf")),
                         ("noise_std", float("inf")), ("noise_std", float("nan")),
                         ("theta_set", float("nan")), ("theta_set", float("-inf")),
                         ("theta_set", float("inf")), ("deadband", 1e-15)]:
        arrays = _device_arrays()
        arrays[field][[3, 5]] = value   # only the first offender is reported
        with pytest.raises(ValueError) as scalar:
            TclParams(id=3, **{name: float(arrays[name][3]) for name in PARAM_FIELDS})
        with pytest.raises(ValueError) as vector:
            Population(**arrays, theta_ambient=32.0)
        assert str(vector.value) == str(scalar.value)
    # TCL 2 breaks two rules, and TCL 4 an earlier one than either: the
    # message is that of TCL 2's first rule, with TCL 2's values
    arrays = _device_arrays()
    arrays["noise_std"][2], arrays["p0"][2], arrays["C"][4] = -1.0, 50.0, 0.0
    with pytest.raises(ValueError) as scalar:
        TclParams(id=2, **{name: float(arrays[name][2]) for name in PARAM_FIELDS})
    with pytest.raises(ValueError) as vector:
        Population(**arrays, theta_ambient=32.0)
    assert str(vector.value) == str(scalar.value)
    assert str(vector.value) == "TCL 2: require 0 <= p0 <= p_cap < inf, got p0=50.0, p_cap=35.0"
    arrays = _device_arrays()
    arrays["v"][4] = 2
    with pytest.raises(ValueError, match="m and v must be 0 or 1, got m=1, v=2"):
        Population(**arrays, theta_ambient=32.0)
    for theta in (math.nan, math.inf, -math.inf):
        arrays = _device_arrays()
        arrays["theta"][[3, 5]] = theta
        with pytest.raises(ValueError) as scalar:
            TclState(theta)
        with pytest.raises(ValueError) as vector:
            Population(**arrays, theta_ambient=32.0)
        assert str(vector.value) == str(scalar.value) == f"theta must be finite, got theta={theta}"


def test_population_rejects_a_band_that_rounds_to_one_temperature():
    # theta_set -/+ deadband/2 round to theta_set itself: no band to cycle in
    for field, value, message in [
        ("deadband", 1e-15, "TCL 3: deadband 1e-15 is below the float spacing at theta_set 20.0"),
        ("theta_set", -1e17, "TCL 3: deadband 0.5 is below the float spacing at theta_set -1e+17"),
    ]:
        arrays = _device_arrays()
        arrays[field][[3, 5]] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}: theta_set "):
            Population(**arrays, theta_ambient=32.0)
    # TCL 1 has no band and TCL 2 a negative C: the band is checked with the
    # other rules, so the message is that of TCL 1, the first offender
    arrays = _device_arrays()
    arrays["deadband"][1], arrays["C"][2] = 1e-15, -1.0
    message = "TCL 1: deadband 1e-15 is below the float spacing at theta_set 20.0: theta_set "
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        Population(**arrays, theta_ambient=32.0)


@pytest.mark.parametrize("values, message", [
    # a = exp(-h/(C*R*3600)) is exactly 1: the temperature would never move
    ({"C": math.inf},
     "C, R, P and eta must all be positive, C and R finite, got C=inf, R=2.0, P=14.0, eta=2.5"),
    ({"R": math.inf},
     "C, R, P and eta must all be positive, C and R finite, got C=10.0, R=inf, P=14.0, eta=2.5"),
    # theta_set -/+ deadband/2 pass float64: the rule says so, and no warning does
    ({"theta_set": 1.79769e308, "deadband": 1e304, "R": 1e303},
     "theta_set +/- deadband/2 must be finite, got theta_set=1.79769e+308, "
     "deadband=1e+304"),
    ({"theta_set": -1.79769e308, "deadband": 1e304, "R": 1e303},
     "theta_set +/- deadband/2 must be finite, got theta_set=-1.79769e+308, "
     "deadband=1e+304"),
    ({"p_cap": math.inf}, "require 0 <= p0 <= p_cap < inf, got p0=22.0, p_cap=inf"),
    ({"gamma1": math.inf}, "bid slopes must be finite and >= 0, got gamma1=inf, gamma2=20.0"),
    ({"gamma2": math.inf}, "bid slopes must be finite and >= 0, got gamma1=20.0, gamma2=inf"),
    # P/eta past float64 is reported by its rule, not by an overflow warning
    ({"P": 1e308, "eta": 0.1}, "P/eta must be positive and finite"),
])
def test_population_rejects_every_load_the_validator_rules_out(values, message):
    arrays = _device_arrays(1)
    for name, value in values.items():
        arrays[name][0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as scalar:
            TclParams(id=0, **{name: float(arrays[name][0]) for name in PARAM_FIELDS})
        with pytest.raises(ValueError) as vector:
            Population(**arrays, theta_ambient=32.0)
    assert str(vector.value) == str(scalar.value) == f"TCL 0: {message}"


def test_population_requires_ambient_above_setpoints():
    params = [TclParams(id=0, theta_set=33.0)]
    with pytest.raises(ValueError, match=r"^theta_ambient must exceed every set-point "):
        population_from_devices(params, [TclState(20.0)], theta_ambient=32.0)
    # a NaN ambient fails every comparison; an infinite one has no finite step
    for ambient in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^theta_ambient must be finite, got {ambient}$"):
            population_from_devices([TclParams(id=0)], [TclState(20.0)], theta_ambient=ambient)


@pytest.mark.parametrize("spread", [False, True])
def test_set_dispatch_folds_v_into_every_cached_flip(spread):
    # each cached flip is 0 where v is 0 and _flip_bits(on, off) where v is 1
    rng = np.random.default_rng(6)
    n = 200
    R = rng.uniform(1.8, 2.2, n) if spread else [2.0] * n
    P = rng.uniform(13.0, 15.0, n) if spread else [14.0] * n
    pop = _spread_population(R, P, [2.5] * n, rng.integers(0, 2, n))
    cached = {h: pop.step_terms(h) for h in (10.0, 2.5)}

    def check():
        for h, (a, flip, off_bits) in cached.items():
            assert pop.step_terms(h)[1] is flip   # rewritten in place
            off = off_bits.view(np.float64)
            on = (1.0 - a) * (32.0 - pop.P * pop.R)
            assert flip.tolist() == np.where(pop.v, _flip_bits(on, off), 0).tolist()

    check()   # v from the constructor: every load dispatched
    for prices, clearing_price in [(rng.uniform(0.0, 40.0, n), 20.0), (np.zeros(n), 1.0),
                                   (np.zeros(n), 0.0), (rng.uniform(0.0, 40.0, n), 30.0)]:
        pop.set_dispatch(prices, clearing_price)
        assert pop.v.tolist() == (prices >= clearing_price).tolist()
        check()


def test_v_is_a_read_only_copy_the_population_owns():
    # a write into v in place would leave the flip of every cached step term stale
    mask = np.array([True, False, True, False])
    pop = _population_of(np.full(4, 14.0), np.full(4, 2.5), np.ones(4), mask)
    mask[:] = True   # the caller's array is not the population's
    flip = pop.step_terms(10.0)[1]
    assert pop.v.tolist() == [1, 0, 1, 0] and flip[1] == flip[3] == 0 != flip[0]
    with pytest.raises(ValueError, match="read-only"):
        pop.v[1] = True
    pop.set_dispatch(np.array([1.0, 2.0, 3.0, 4.0]), 2.5)
    with pytest.raises(ValueError, match="read-only"):
        pop.v[::3] = False
    assert pop.v.tolist() == [0, 0, 1, 1] and flip[0] == flip[1] == 0 != flip[3]
    with pytest.raises(AttributeError):   # set_dispatch is the one writer
        pop.v = mask


def test_population_with_spread_p_and_r_keeps_bytes_per_load(traced_peak):
    # numpy imports its random module on first use; load it before tracing
    np.random.SeedSequence(0)
    n = 20_000
    spec = PopulationSpec(count=n, r_rel_width=0.1, p_rel_width=0.1)

    def build():
        pop = generate_population(spec, 0)
        pop.step_terms(10.0)
        pop.set_dispatch(np.arange(n) % 2.0, 0.5)
        return pop, tracemalloc.get_traced_memory()[0]

    (pop, kept), _ = traced_peak(build)
    assert pop.R.strides == pop.P.strides == (8,)
    # measured 122.2 B per load; 130.4 while the population kept
    # theta_ambient - P*R for every load rather than folding v in from scratch
    assert kept <= 125 * n


def test_set_dispatch_grants_at_or_above_clearing_price():
    pop = _pop([TclState(20.0, 1, 1) for _ in range(3)])
    pop.set_dispatch(np.array([25.0, 20.0, 15.0]), 20.0)
    assert pop.v.tolist() == [1, 1, 0]   # equality clears


# ---------------------------------------------------------------- one value

def test_one_value_merges_only_equal_bits():
    for values in ([2.5, 2.5, 2.5], [math.nan] * 2, [-0.0], [0.0, 0.0]):
        view = one_value(np.array(values))
        assert view.strides == (0,) and not view.flags.writeable, values
        assert view.tobytes() == np.array(values).tobytes(), values
    for values in ([0.0, -0.0], [-0.0, 0.0], [2.5, 2.5, math.nextafter(2.5, 3.0)], [1.0, 2.0]):
        array = np.array(values)
        assert one_value(array) is array, values
    empty = np.empty(0)
    assert one_value(empty) is empty


@pytest.mark.parametrize("read_only", [True, False])
def test_one_value_of_a_zero_stride_array_holds_its_own_copy(read_only):
    base = np.array([2.5])
    given = (np.broadcast_to(base, 7) if read_only
             else np.lib.stride_tricks.as_strided(base, (7,), (0,)))
    shared = one_value(given)
    assert shared.strides == (0,) and not shared.flags.writeable
    assert shared.tolist() == [2.5] * 7
    base[0] = 3.0   # the caller's array changes; the shared value does not
    assert shared.tolist() == [2.5] * 7


@pytest.mark.parametrize("n", [0, 1, 2, 255, 256, 2**17 - 1, 2**17])
@pytest.mark.parametrize("value", [5.6, 8.0 - 2.0**-50, 5e-324, 1.5e300])
def test_one_value_limb_table_totals_equal_the_full_table(n, value):
    # n = 2**k - 1 and 2**k give the two sides of a digit-width step
    full = LimbTable(np.full(n, value))
    view = LimbTable(np.broadcast_to(value, n))
    # the view's totals are count x value, the full array's come from its limbs
    assert full.value is None and view.value == (None if n == 0 else value)
    assert hasattr(full, "limbs") and hasattr(view, "limbs") == (n == 0)
    rng = np.random.default_rng(n)
    masks = rng.random((4, n)) < rng.random((4, 1))
    masks[0], masks[1] = True, False
    assert view.sum.hex() == full.sum.hex()
    counts = np.count_nonzero(masks, axis=1)
    totals = view.total(masks, counts)
    assert totals.tobytes() == full.total(masks, counts).tobytes()
    assert totals[0] == view.sum   # the all-loads row
    if n:
        assert totals[0] == math.fsum([value] * n)


def _largest_shared_value(n):
    """The largest float64 whose exact n-fold total rounds to a finite float64."""
    # totals from halfway between the largest float64 and 2**1024 up round to inf
    limit = Fraction(2**1024 - 2**970)
    value = float(limit / n)
    while n * Fraction(value) >= limit:
        value = math.nextafter(value, 0.0)
    while n * Fraction(math.nextafter(value, math.inf)) < limit:
        value = math.nextafter(value, math.inf)
    return value


@pytest.mark.parametrize("value", [5.6, 5e-324, 2.5e-310, "largest"])
def test_one_value_totals_are_the_exact_total_rounded_once(value):
    # an inexact value, two subnormals (the second's products round), and the
    # largest value whose n-fold total is finite; every count from 0 to n
    n = 300
    value = _largest_shared_value(n) if value == "largest" else value
    table = LimbTable(np.broadcast_to(value, n))
    full = LimbTable(np.full(n, value))
    masks = np.arange(n) < np.arange(n + 1)[:, None]   # row c selects c values
    expected = [float(c * Fraction(value)) for c in range(n + 1)]
    assert table.total(masks, np.arange(n + 1)).tolist() == expected
    assert full.total(masks, np.arange(n + 1)).tolist() == expected
    assert table.sum == expected[-1] == full.sum


def test_one_value_table_rejects_one_ulp_above_the_largest_value():
    # the message is the one the limb table gives at the same threshold
    n = 300
    above = math.nextafter(_largest_shared_value(n), math.inf)
    message = (f"P/eta sums past the float64 range: the exact total of all {n} values "
               f"exceeds {sys.float_info.max!r} (largest {above!r}, TCL 0)")
    for values in (np.broadcast_to(above, n), np.full(n, above)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LimbTable(values)


def test_one_value_limb_table_rejects_a_total_past_float64():
    for values in (np.full(2, 1.5e308), np.broadcast_to(1.5e308, 2)):
        with pytest.raises(ValueError, match="sums past the float64 range.*TCL 0"):
            LimbTable(values)


SHARED = ("R", "P", "eta", "theta_set", "deadband", "noise_std")
DERIVED = ("theta_min", "theta_max", "elec_power")


def test_parameters_every_load_shares_are_read_only_views():
    pop = generate_population(PopulationSpec(count=500), 0)
    for name in SHARED + DERIVED:
        values = getattr(pop, name)
        assert values.shape == (500,) and values.strides == (0,), name
        assert not values.flags.writeable, name
    assert pop.power_limbs.value == pop.elec_power[0]
    assert not hasattr(pop.power_limbs, "limbs")
    for name in ("C", "p0", "p_cap", "gamma1", "gamma2"):
        assert getattr(pop, name).strides == (8,), name

    spread = PopulationSpec(count=500, r_rel_width=0.1, p_rel_width=0.05,
                            eta_rel_width=0.08, theta_set_width=0.5)
    pop = generate_population(spread, 0)
    for name in set(PARAM_FIELDS + DERIVED) - {"deadband", "noise_std"}:
        assert getattr(pop, name).strides == (8,), name
    assert pop.power_limbs.value is None


def test_population_constructor_makes_equal_parameters_views():
    n = 4
    arrays = {name: np.full(n, x) for name, x in (
        ("C", 10.0), ("R", 2.0), ("P", 14.0), ("eta", 2.5), ("theta_set", 20.0),
        ("deadband", 0.5), ("p0", 22.0), ("p_cap", 35.0), ("gamma1", 20.0), ("gamma2", 20.0),
        ("noise_std", 0.0), ("theta", 20.0))}
    arrays["theta_set"][2] = 20.5
    pop = Population(**arrays, m=np.ones(n), v=np.ones(n), theta_ambient=32.0)
    for name in set(PARAM_FIELDS + ("elec_power",)) - {"theta_set"}:
        assert getattr(pop, name).strides == (0,), name
    # the set-points differ, and so do the band edges derived from them
    for name in ("theta_set", "theta_min", "theta_max"):
        assert getattr(pop, name).strides == (8,), name
    assert pop.theta.strides == (8,) and pop.theta.flags.writeable


@pytest.mark.parametrize("theta_set, deadband, P, eta", [
    # every input shared
    ([20.0] * 3, [0.5] * 3, [14.0] * 3, [2.5] * 3),
    # the set-points and deadbands differ, and only the lower edges agree
    ([20.0, 20.25, 20.5], [0.5, 1.0, 1.5], [14.0] * 3, [2.5] * 3),
    # P and eta differ by powers of two, so P/eta has one value
    ([20.0] * 3, [0.5] * 3, [14.0, 28.0, 7.0], [2.5, 5.0, 1.25]),
    # P/eta differs by one ulp
    ([20.0] * 3, [0.5] * 3, [14.0, 14.0, math.nextafter(14.0, 15.0)], [2.5] * 3),
    # nothing shared
    ([20.0, 20.1, 19.7], [0.5, 0.6, 0.7], [14.0, 13.0, 15.0], [2.5, 2.4, 2.6]),
])
def test_derived_values_are_views_exactly_when_their_bits_agree(theta_set, deadband, P, eta):
    n = len(P)
    arrays = {name: np.full(n, x) for name, x in (
        ("C", 10.0), ("R", 2.0), ("p0", 22.0), ("p_cap", 35.0), ("gamma1", 20.0),
        ("gamma2", 20.0), ("noise_std", 0.0), ("theta", 20.0))}
    pop = Population(**arrays, theta_set=theta_set, deadband=deadband, P=P, eta=eta,
                     m=np.ones(n), v=np.ones(n), theta_ambient=32.0)
    set_point, half = np.array(theta_set), np.array(deadband) / 2.0
    for name, values in (("theta_min", set_point - half), ("theta_max", set_point + half),
                         ("elec_power", np.array(P) / np.array(eta))):
        derived = getattr(pop, name)
        assert derived.tobytes() == values.tobytes(), name
        shared = len(set(values.view(np.int64).tolist())) == 1
        assert (derived.strides == (0,)) == shared, name
        assert not (shared and derived.flags.writeable), name
    # a one-value P/eta sums as count x value, as its limbs would
    limbs = LimbTable(np.array(P) / np.array(eta))
    assert (pop.power_limbs.value is not None) == (pop.elec_power.strides == (0,))
    masks = np.arange(n) < np.arange(n + 1)[:, None]   # row c selects c loads
    counts = np.arange(n + 1)
    assert pop.power_limbs.total(masks, counts).tobytes() == limbs.total(masks, counts).tobytes()
    assert pop.capacity_kw == limbs.sum == limbs.total(masks, counts)[-1]
