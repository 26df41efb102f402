"""Scenario configuration, population generation, and the closed-loop run."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tclmarket.engine as engine
import tclmarket.market as market
from tclmarket.cli import BUILTIN_SCENARIOS
from tclmarket.engine import N_BID_SAMPLES, generate_population, price_signal_value, run
from tclmarket.metrics import sync_index, temperature_dispersion
from tclmarket.population import PARAM_FIELDS, Population
from tclmarket.scenario import (
    PopulationSpec,
    PriceSignal,
    Scenario,
    ScenarioError,
    _subgroup_anchors,
    _subgroup_ranges,
)
from oracle import (
    Bid,
    TclParams,
    TclState,
    devices,
    population_from_devices,
)


# ------------------------------------------------------------- price signals

def base_prices(signal: PriceSignal, **kwargs) -> np.ndarray:
    """The plan's per-interval base prices of ``signal`` (a 24 h, 5-min grid)."""
    return Scenario(price_signal=signal, **kwargs).plan().base_price


def test_step_schedule_values():
    prices = base_prices(PriceSignal.step([(0.0, 42.0), (360.0, 20.0), (720.0, 9.0)]))
    assert prices[0] == 42.0
    assert prices[71] == 42.0    # t=355, still the first level
    assert prices[72] == 20.0    # t=360, change applies
    assert prices[80] == 20.0    # t=400
    assert prices[144] == 9.0    # t=720
    assert prices[287] == 9.0


def test_square_wave_low_first():
    prices = base_prices(PriceSignal.square(low=14.0, high=24.0, period_min=10.0))
    assert prices[0] == 14.0
    assert prices[1] == 24.0
    assert prices[2] == 14.0


def test_square_wave_offset_starts_high():
    # half-period offset flips the starting level; first drop at t=240
    prices = base_prices(
        PriceSignal.square(low=14.0, high=24.0, period_min=480.0, offset_min=240.0)
    )
    assert prices[0] == 24.0
    assert prices[47] == 24.0    # t=235
    assert prices[48] == 14.0    # t=240
    assert prices[95] == 14.0
    assert prices[96] == 24.0    # t=480


def test_constant_and_series_values():
    assert base_prices(PriceSignal.constant(30.0))[123] == 30.0
    sig = PriceSignal.series([5.0, 6.0, 7.0])
    assert base_prices(sig, horizon_min=15.0).tolist() == [5.0, 6.0, 7.0]
    with pytest.raises(ScenarioError, match="covers 3 intervals but the horizon has 4"):
        base_prices(sig, horizon_min=20.0)


def test_price_signal_value_rejects_out_of_horizon():
    sig = PriceSignal.constant(10.0)
    with pytest.raises(IndexError):
        price_signal_value(sig, -1)
    with pytest.raises(IndexError):
        price_signal_value(sig, 12, n_intervals=12)


def test_plan_prices_equal_price_signal_value():
    # the name is kept for the benchmark's tracer; it reads the same runs
    for sig in (PriceSignal.step([(0.0, 42.0), (360.0, 20.0), (720.0, 9.0)]),
                PriceSignal.square(14.0, 24.0, 480.0, offset_min=-235.0)):
        assert [price_signal_value(sig, t) for t in range(288)] == base_prices(sig).tolist()


def test_price_signal_violations():
    assert PriceSignal.constant(25.0).violations(5.0, 288) == []
    assert PriceSignal.constant(-1.0).violations(5.0, 288)
    # step: must start at 0, strictly increase, land on boundaries, stay >= 0
    assert PriceSignal.step([(10.0, 5.0)]).violations(5.0, 288)
    assert PriceSignal.step([(0.0, 5.0), (0.0, 6.0)]).violations(5.0, 288)
    assert PriceSignal.step([(0.0, 5.0), (7.0, 6.0)]).violations(5.0, 288)
    assert PriceSignal.step([(0.0, -5.0)]).violations(5.0, 288)
    # square: half-period and offset must be whole intervals
    assert PriceSignal.square(20.0, 30.0, period_min=15.0).violations(5.0, 288)
    assert PriceSignal.square(20.0, 30.0, 10.0, offset_min=2.0).violations(5.0, 288)
    assert PriceSignal.square(20.0, 30.0, 10.0).violations(5.0, 288) == []
    # series: must cover the horizon
    errs = PriceSignal.series([1.0, 2.0]).violations(5.0, 3)
    assert any("covers 2 intervals" in e for e in errs)


# ---------------------------------------------------------- population specs

def test_population_spec_collects_all_violations():
    spec = PopulationSpec(count=0, deadband=-1.0, noise_std=-0.5)
    errs = spec.violations()
    assert len(errs) >= 3
    assert any("count" in e for e in errs)
    assert any("deadband" in e for e in errs)
    assert any("noise_std" in e for e in errs)
    # a NaN or infinite mean would give loads NaN or infinite P/eta
    errs = PopulationSpec(p_mean=math.nan, eta_mean=math.inf).violations()
    assert any("p_mean must be finite" in e for e in errs)
    assert any("eta_mean must be finite" in e for e in errs)


def test_population_spec_bid_range_ordering():
    assert PopulationSpec(p0_range=(30.0, 20.0)).violations()
    assert PopulationSpec(p0_range=(20.0, 35.0), p_cap_range=(30.0, 40.0)).violations()
    assert PopulationSpec(theta_ambient=20.0).violations()
    # a thermostat whose heat gain cannot span the deadband would stall
    assert PopulationSpec(p_mean=0.1, r_mean=2.0, deadband=0.5).violations()


def test_population_spec_bounds_subgroup_jitter_by_p_cap():
    ranges = dict(p0_range=(29.0, 30.0), p_cap_range=(30.0, 31.0), subgroups=2)
    errs = PopulationSpec(count=50, subgroup_rel_width=0.5, **ranges).violations()
    assert len(errs) == 1 and "subgroup_rel_width" in errs[0]
    # at zero width each group's anchors alone decide, and they are ordered
    tight = PopulationSpec(count=50, subgroup_rel_width=0.0, **ranges)
    assert tight.violations() == []
    generate_population(tight, seed=0)
    # group 1 (anchors 29.75 and 30.75) allows w up to 1/60.5 = 0.01653
    edge = PopulationSpec(count=400, subgroup_rel_width=0.0165, **ranges)
    assert edge.violations() == []
    pop = generate_population(edge, seed=0)
    assert np.all(pop.p0 <= pop.p_cap)
    assert PopulationSpec(count=400, subgroup_rel_width=0.0166, **ranges).violations()


def test_degenerate_widths_give_identical_tcls():
    spec = PopulationSpec(
        count=5,
        c_rel_width=0.0,
        p0_range=(22.0, 22.0),
        p_cap_range=(35.0, 35.0),
        gamma_range=(20.0, 20.0),
    )
    pop = generate_population(spec, seed=3)
    first = dataclasses.replace(devices(pop)[0][0], id=0)
    for p in devices(pop)[0][1:]:
        assert dataclasses.replace(p, id=0) == first


def test_default_population_capacity():
    pop = generate_population(PopulationSpec(), seed=0)
    assert pop.size == 1000
    # P and eta widths default to zero, so capacity is the nominal 5600 kW
    assert pop.capacity_kw == pytest.approx(5600.0, rel=1e-12)
    assert pop.capacity_kw == pytest.approx(5600.0, rel=0.02)
    # both thermostat states appear among the initial conditions
    assert 0 < pop.m.sum() < pop.size
    assert np.all(pop.theta >= pop.theta_min) and np.all(pop.theta <= pop.theta_max)


def test_four_subgroups_width_zero_gives_four_curves():
    spec = PopulationSpec(count=100, subgroups=4, subgroup_rel_width=0.0)
    pop = generate_population(spec, seed=1)
    curves = [(p.p0, p.p_cap, p.gamma1, p.gamma2) for p in devices(pop)[0]]
    assert len(set(curves)) == 4
    # the subgroups are four blocks of 25 consecutive ids, each sharing one bid curve
    for g in range(4):
        assert len(set(curves[25 * g : 25 * (g + 1)])) == 1


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 300), other=st.integers(1, 2**63 - 1), more_groups=st.booleans())
@example(m=1000, other=10**16, more_groups=True)   # np.arange(1000) * K wraps in int64
@example(m=3, other=2**63 - 1, more_groups=False)
def test_subgroup_ranges_are_exact_for_every_int64_size(m, other, more_groups):
    n, K = (m, max(m, other)) if more_groups else (max(m, other), m)
    groups, edges = _subgroup_ranges(n, K)
    assert groups.dtype == edges.dtype == np.int64
    assert len(groups) == len(edges) - 1 == min(n, K)
    assert edges[0] == 0 and edges[-1] == n and np.all(np.diff(groups) > 0)
    # TCL i belongs to subgroup i*K // n, in Python's exact integers: each
    # range starts and ends inside its subgroup, so it holds all of it
    for g, start, stop in zip(groups.tolist(), edges[:-1].tolist(), edges[1:].tolist()):
        assert start < stop and start * K // n == g == (stop - 1) * K // n


@pytest.mark.parametrize("n, K", [(1003, 4), (12, 12), (7, 12), (7, 2**62), (1, 2**62)])
def test_subgroup_ranges_hold_the_per_load_labels(n, K):
    # one formula whether K is below, at or above n: load i is in subgroup i*K // n
    groups, edges = _subgroup_ranges(n, K)
    assert np.repeat(groups, np.diff(edges)).tolist() == [i * K // n for i in range(n)]


def test_generation_is_deterministic_and_seed_sensitive():
    spec = PopulationSpec(count=50)
    a = generate_population(spec, seed=7)
    b = generate_population(spec, seed=7)
    c = generate_population(spec, seed=8)
    assert devices(a)[0] == devices(b)[0]
    assert [s.theta for s in devices(a)[1]] == [s.theta for s in devices(b)[1]]
    assert devices(a)[0] != devices(c)[0]


def test_zero_width_draws_do_not_reshuffle_other_parameters():
    # every distribution consumes its draws even at width 0, so narrowing C
    # must leave the bid-curve draws untouched
    wide = generate_population(PopulationSpec(count=20, c_rel_width=0.10), seed=5)
    slim = generate_population(PopulationSpec(count=20, c_rel_width=0.0), seed=5)
    assert [p.p0 for p in devices(wide)[0]] == [p.p0 for p in devices(slim)[0]]
    assert [p.gamma1 for p in devices(wide)[0]] == [p.gamma1 for p in devices(slim)[0]]
    assert all(p.C == 10.0 for p in devices(slim)[0])
    assert any(p.C != 10.0 for p in devices(wide)[0])


@pytest.mark.parametrize("subgroups", [1, 4])
def test_generated_arrays_match_from_devices_bit_for_bit(subgroups):
    spec = PopulationSpec(
        count=200, c_rel_width=0.1, r_rel_width=0.05, p_rel_width=0.05,
        eta_rel_width=0.05, theta_set_width=0.5, noise_std=0.01,
        subgroups=subgroups, subgroup_rel_width=0.01,
    )
    pop = generate_population(spec, seed=11)
    # every field of the per-device form has its array, so nothing is dropped
    fields = tuple(f.name for f in dataclasses.fields(TclParams) if f.name != "id")
    assert PARAM_FIELDS == fields
    params, states = devices(pop)
    again = population_from_devices(params, states, pop.theta_ambient)
    names = PARAM_FIELDS + ("theta", "m", "v", "theta_min", "theta_max", "elec_power")
    for name in names:
        a, b = getattr(pop, name), getattr(again, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert [p.id for p in params] == list(range(200))


def test_run_builds_no_per_load_objects(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built on the run path")

    for cls in (Bid, TclParams, TclState):
        monkeypatch.setattr(cls, "__init__", refuse)
    scenario = Scenario(
        population=PopulationSpec(count=200, noise_std=0.01, subgroups=2),
        price_signal=PriceSignal.step([(0.0, 42.0), (15.0, 20.0), (30.0, 9.0)]),
        horizon_min=45.0,
    )
    trace = run(scenario)
    assert trace.constrained.any() and not trace.constrained.all()


def test_run_clears_with_one_exact_total_or_a_logarithmic_count(monkeypatch):
    # An unconstrained interval sums the demand at the base once; a
    # constrained one adds one exact total per halving of the m bids above
    # the base, plus the demand at the clearing price. Every curve sums on
    # the population's own limb table.
    demand, clear = market.DemandCurve.demand, engine.clear
    clears, tables = [], []

    def count_demand(curve, price):
        clears[-1][1] += 1
        return demand(curve, price)

    def record_clear(curve, base_price, *args):
        clears.append([None, 0, int(np.count_nonzero(curve.bids > base_price))])
        tables.append(curve.table)
        result = clear(curve, base_price, *args)
        clears[-1][0] = result.constrained
        return result

    monkeypatch.setattr(market.DemandCurve, "demand", count_demand)
    monkeypatch.setattr(engine, "clear", record_clear)
    trace = run(Scenario(
        population=PopulationSpec(count=200),
        price_signal=PriceSignal.step([(0.0, 42.0), (15.0, 20.0), (30.0, 9.0)]),
        horizon_min=45.0,
    ))
    assert [c for c, _, _ in clears] == trace.constrained.tolist()
    assert len(tables) == trace.n_intervals
    assert all(table is trace.population.power_limbs for table in tables)
    assert 0 < trace.constrained.sum() < trace.n_intervals
    assert all(totals == 1 for c, totals, _ in clears if not c)
    assert all(totals <= m.bit_length() + 2 for c, totals, m in clears if c)
    assert max(m for c, _, m in clears if c) > 16   # more bids than halvings


def test_production_path_never_imports_the_reference(tmp_path):
    # A fresh interpreter imports the package and runs the command line,
    # which must load every module of the package: a module only the tests
    # use (such as the per-device oracle) belongs in tests/, not in src/.
    scenario = Scenario(
        population=PopulationSpec(count=200, noise_std=0.01, subgroups=2),
        price_signal=PriceSignal.step([(0.0, 42.0), (15.0, 20.0), (30.0, 9.0)]),
        horizon_min=45.0,
    )
    path = tmp_path / "scenario.json"
    path.write_text(scenario.to_json())
    code = (
        "import os, sys, tclmarket, tclmarket.cli\n"
        "assert tclmarket.cli.main(sys.argv[1:]) == 0\n"
        "package = os.path.dirname(tclmarket.__file__)\n"
        "unused = sorted(f'tclmarket.{name[:-3]}' for name in os.listdir(package)\n"
        "                if name.endswith('.py') and name != '__init__.py'\n"
        "                and f'tclmarket.{name[:-3]}' not in sys.modules)\n"
        "assert not unused, f'modules no run loads: {unused}'\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(engine.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, "--scenario", str(path), "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "trace.csv").exists()


def test_generate_population_rejects_invalid_spec():
    with pytest.raises(ScenarioError):
        generate_population(PopulationSpec(count=-1), seed=0)


# ------------------------------------------------------- scenario validation

def test_scenario_defaults_validate():
    assert Scenario().validate() == []


def test_scenario_misalignment_reports_both_violations():
    # 290/60 prints as 4.833333333333333 min: the 24 h horizon does not divide
    # into it, the step change at t=360 min does not land on a boundary, and
    # read as that decimal it is not a whole number of 10 s steps
    s = Scenario(
        market_interval_min=290.0 / 60.0,
        price_signal=PriceSignal.step([(0.0, 42.0), (360.0, 20.0)]),
    )
    errs = s.validate()
    assert len(errs) == 3
    assert any("horizon_min" in e for e in errs)
    assert any("boundaries" in e for e in errs)
    assert any("market_interval_min (4.833333333333333 min) must be a whole number "
               "of physics steps" in e for e in errs)


def test_plan_reads_times_as_the_decimals_written():
    # 0.3 / 0.1 and 0.6 / 0.1 are whole; binary float % said they were not
    grid = dict(population=PopulationSpec(count=16), market_interval_min=0.1,
                h_seconds=2.0, lookahead_s=4.0, seed=3)
    step = Scenario(horizon_min=0.6, price_signal=PriceSignal.step([(0.0, 30.0), (0.3, 10.0)]),
                    **grid)
    square = Scenario(horizon_min=1.2, price_signal=PriceSignal.square(20.0, 30.0, 0.6), **grid)
    for scenario, prices in [
        (step, [30.0, 30.0, 30.0, 10.0, 10.0, 10.0]),
        (square, [20.0, 20.0, 20.0, 30.0, 30.0, 30.0, 20.0, 20.0, 20.0, 30.0, 30.0, 30.0]),
    ]:
        plan = scenario.plan()
        assert (plan.n_intervals, plan.steps_per_interval, plan.lookahead_steps) == (
            len(prices), 3, 2)
        assert plan.base_price.tolist() == prices
        trace = run(scenario)
        assert trace.base_price.tolist() == prices
        assert trace.step_power_kw.shape == (3 * len(prices),)
        assert np.all(trace.cleared_demand_kw <= trace.feeder_limit_kw)


def test_plan_of_numpy_grid_fields_equals_the_float_plan():
    signal = PriceSignal.square(20.0, 30.0, 0.6, offset_min=0.3)
    floats = Scenario(horizon_min=6.0, market_interval_min=0.1, h_seconds=0.5,
                      lookahead_s=1.5, price_signal=signal)
    numpy = dataclasses.replace(floats, **{
        name: np.float64(getattr(floats, name))
        for name in ("horizon_min", "market_interval_min", "h_seconds", "lookahead_s")
    })
    a, b = floats.plan(), numpy.plan()
    assert (a.n_intervals, a.steps_per_interval, a.lookahead_steps) == (60, 12, 3)
    assert (b.n_intervals, b.steps_per_interval, b.lookahead_steps) == (60, 12, 3)
    assert a.base_price.tobytes() == b.base_price.tobytes()


def test_scenario_validates_timing_and_limits():
    assert Scenario(h_seconds=0.0).validate()
    assert Scenario(market_interval_min=0.25, h_seconds=45.0).validate()
    assert Scenario(horizon_min=1441.0).validate()
    assert Scenario(feeder_limit_kw=-5.0).validate()
    assert Scenario(feeder_limit_kw=None, feeder_fraction=0.0).validate()
    assert Scenario(lookahead_s=155.0).validate()
    assert Scenario(price_tick=0.0).validate()


def test_price_tick_must_raise_the_largest_possible_bid():
    top = 40.0   # the default p_cap_range's upper end
    assert Scenario(price_tick=np.spacing(top)).validate() == []
    (err,) = Scenario(price_tick=np.nextafter(np.spacing(top), 0.0)).validate()
    assert err.startswith("price_tick (") and "largest possible bid price (40 $/MWh)" in err
    # subgroup jitter raises the largest p_cap into the next binade
    spec = PopulationSpec(p_cap_range=(60.0, 63.9))
    assert np.spacing(63.9) <= 1e-14 < np.spacing(64.0)
    assert Scenario(population=spec, price_tick=1e-14).validate() == []
    jittered = dataclasses.replace(spec, subgroups=2, subgroup_rel_width=0.02)
    (err,) = Scenario(population=jittered, price_tick=1e-14).validate()
    assert "largest possible bid price (64.1835 $/MWh)" in err
    # the price above every bid must be finite too (one load, so that the
    # bids sum within range: see the test below)
    huge = PopulationSpec(count=1, p_cap_range=(8e307, 8e307))
    assert Scenario(population=huge, price_tick=1e300).validate() == []
    (err,) = Scenario(population=huge, price_tick=1e308).validate()
    assert err.startswith("price_tick (1e+308) must be at least the float spacing")


def test_the_bids_of_every_load_must_sum_within_range():
    # run() takes the mean bid as prices.sum() / n: a sum of n bids of at
    # most p_cap that passes float64 read inf in trace.csv
    biggest = float(np.finfo(np.float64).max)
    fits = biggest / 10.0   # the largest p_cap whose 2*count*p_cap is finite for 5 loads
    above = float(np.nextafter(fits, math.inf))
    assert 2.0 * 5 * fits < math.inf == 2.0 * 5 * above

    def scenario(count, top):
        spec = PopulationSpec(count=count, p0_range=(top, top), p_cap_range=(top, top))
        return Scenario(population=spec, horizon_min=15.0, price_tick=1e300)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert scenario(5, fits).validate() == []
        trace = run(scenario(5, fits))
    assert np.isfinite(trace.bid_price_mean).all() and trace.bid_price_max.max() <= fits
    for count, top in ((5, above), (5, 1.7e308), (1000, 1e308)):
        assert scenario(count, top).validate() == [
            f"population: the total of all bids must be finite, but count*p_cap "
            f"({count}*{top:.6g} $/MWh) exceeds half the float64 range"
        ]


@pytest.mark.parametrize("spec", [
    PopulationSpec(count=5000, p_cap_range=(30.0, 40.0)),
    PopulationSpec(count=5000, p0_range=(0.0, 0.1), p_cap_range=(0.1, 0.7)),
    PopulationSpec(count=5000, subgroups=4, subgroup_rel_width=0.02),
    PopulationSpec(count=5000, p_cap_range=(60.0, 63.9), subgroups=3, subgroup_rel_width=0.3),
    PopulationSpec(count=3, subgroups=7, subgroup_rel_width=0.1),
])
def test_p_cap_bound_covers_every_draw(spec):
    bound = spec._p_cap_bound()
    for seed in range(5):
        assert generate_population(spec, seed).p_cap.max() <= bound


@settings(max_examples=500, deadline=None)
@given(n=st.integers(1, 3000), K=st.integers(2, 2**40),
       lo=st.floats(0.0, 1e6), width=st.floats(0.0, 1e6), w=st.floats(0.0, 1.0, exclude_max=True))
@example(n=3, K=7, lo=30.0, width=10.0, w=0.1)
@example(n=1000, K=2**40, lo=0.1, width=0.6, w=0.3)
def test_p_cap_bound_is_the_largest_drawn_anchor_times_one_plus_w(n, K, lo, width, w):
    # the anchor of the last drawn subgroup is the largest anchor of any
    spec = PopulationSpec(count=n, subgroups=K, p_cap_range=(lo, lo + width),
                          subgroup_rel_width=w)
    anchors = _subgroup_anchors(spec.p_cap_range, _subgroup_ranges(n, K)[0], K)
    assert spec._p_cap_bound() == float(anchors.max() * (1.0 + w))


@settings(max_examples=300, deadline=None)
@given(mean=st.floats(-1e20, 1e20), width_ulps=st.integers(0, 4),
       deadband_ulps=st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]))
# both ends have odd significands, so each keeps a band of one spacing, while
# 20.0, between them, has none: a test at the ends alone would pass it
@example(mean=20.0 + math.ulp(20.0), width_ulps=2, deadband_ulps=1.0)
def test_band_rule_leaves_every_drawn_load_a_band(mean, width_ulps, deadband_ulps):
    width = width_ulps * math.ulp(mean)
    deadband = deadband_ulps * math.ulp(mean)
    spec = PopulationSpec(count=64, theta_set_mean=mean, theta_set_width=width,
                          deadband=deadband, r_mean=1.0 + deadband,
                          theta_ambient=2.0 * abs(mean) + width + 10.0)
    errs = spec.violations()
    if errs:
        (err,) = errs
        assert err == "population.deadband must be > 0" or err.startswith(
            "population: every drawn TCL must be valid, but a drawn TCL could break a rule: "
            f"deadband {deadband!r} is below the float spacing"), err
        return
    pop = generate_population(spec, seed=0)
    assert np.all(pop.theta_min < pop.theta_max)


def test_run_peak_memory_per_step(traced_peak):
    # numpy imports its random module on first use; load it before tracing
    np.random.SeedSequence(0)
    trace, peak = traced_peak(lambda: run(Scenario(population=PopulationSpec(count=20),
                                                   horizon_min=2880.0)))
    n_steps = len(trace.step_power_kw)
    assert n_steps == 17_280
    # measured 43.2 B per step, 32 of them the four per-step series; 51.3
    # while the trace also kept each step's time
    assert peak <= 46 * n_steps


def test_run_peak_memory_per_load(traced_peak):
    # numpy imports its random module on first use; load it before tracing
    np.random.SeedSequence(0)
    n = 20_000
    scenario = Scenario(
        population=PopulationSpec(count=n),
        price_signal=PriceSignal.step([(0.0, 42.0), (10.0, 20.0), (20.0, 9.0)]),
        horizon_min=30.0,
    )
    trace, peak = traced_peak(lambda: run(scenario))
    assert trace.constrained.sum() == 4
    # measured 109.2 B per load; 116.3 while step_terms built on in two
    # temporaries of its own; 189.0 while the population held n copies of
    # R, P, eta, theta_set, the derived band edges and P/eta and its limb
    # table, and 288.4 while run() also kept each interval's demand curve and
    # predicted temperatures alive into the next interval and the population
    # held n copies of deadband, noise_std and P*R
    assert peak <= 135 * n


def test_stepprice_draw_and_run_peak_memory_per_load(traced_peak):
    # numpy imports its random module on first use; load it before tracing
    np.random.SeedSequence(0)
    n = 20_000
    stepprice = BUILTIN_SCENARIOS["stepprice"]
    scenario = dataclasses.replace(
        stepprice, population=dataclasses.replace(stepprice.population, count=n),
        horizon_min=30.0,
    )
    pop, peak = traced_peak(lambda: generate_population(scenario.population, scenario.seed))
    # measured 74.5 B per load (58.2 of them kept): the initial band and the
    # duty are n-element temporaries, and the duty is freed before the
    # constructor's checks; 75.7 while the checks kept one mask per rule,
    # 83.7 while the duty was held through them, 74.6 while the band and the
    # duty were one-value views, and 164.4 (130.2 kept) while every draw,
    # the band edges and P/eta were n-element arrays
    assert pop.R.strides == (0,) and peak <= 80 * n
    hetset = BUILTIN_SCENARIOS["stepprice-hetset"]
    hetset_spec = dataclasses.replace(hetset.population, count=n)
    _, peak = traced_peak(lambda: generate_population(hetset_spec, hetset.seed))
    # measured 93.5 B per load with spread set-points, whose band edges are
    # n-element arrays; 99.5 while the checks kept one mask per rule
    assert peak <= 96 * n
    trace, peak = traced_peak(lambda: run(scenario))
    # measured 109.0 B per load; 116.2 while step_terms built on in two
    # temporaries of its own, 189.3 with the n-element arrays
    assert not trace.constrained.any() and peak <= 135 * n
    groups = BUILTIN_SCENARIOS["subgroups"]

    def draw_groups():
        pop = generate_population(
            dataclasses.replace(groups.population, count=n), groups.seed
        )
        return pop, tracemalloc.get_traced_memory()[0]

    (pop, kept), _ = traced_peak(draw_groups)
    # measured 50.3 B per load kept; 58.3 while gamma2 was a copy of gamma1
    assert pop.gamma2 is pop.gamma1 and kept <= 51 * n


def test_scenario_json_round_trip():
    s = Scenario(
        name="roundtrip",
        population=PopulationSpec(count=12, subgroups=3, theta_set_width=0.5),
        price_signal=PriceSignal.square(low=20.0, high=30.0, period_min=10.0),
        horizon_min=60.0,
        feeder_limit_kw=48.0,
        seed=42,
    )
    assert Scenario.from_json(s.to_json()) == s
    # step schedules survive the tuple/list boundary too
    s2 = Scenario(price_signal=PriceSignal.step([(0.0, 42.0), (360.0, 20.0)]))
    assert Scenario.from_json(s2.to_json()) == s2


def test_scenario_from_dict_rejects_unknown_fields():
    with pytest.raises(ScenarioError, match="mystery"):
        Scenario.from_dict({"mystery": 1})
    with pytest.raises(ScenarioError, match="population"):
        Scenario.from_dict({"population": {"weird_knob": 2}})


def test_scenario_from_json_reports_parse_position():
    with pytest.raises(ScenarioError, match=r"line 1"):
        Scenario.from_json("{not json")


#: One value of each kind JSON can hold, and values at the edges of float64.
JSON_VALUES = (0, -1, 1.5, True, None, "x", [], [1], [1, 2], [[0, 1]], {}, 1e308, 10**30)
MISSING = object()   # the field left out of the JSON object

#: A valid price signal of each kind, as JSON.
SIGNALS = {
    "constant": {"kind": "constant", "level": 20},
    "step": {"kind": "step", "schedule": [[0, 42], [10, 20]]},
    "square": {"kind": "square", "low": 10, "high": 30, "period_min": 10},
    "series": {"kind": "series", "values": [20] * 12},
}


def _scenarios_with_one_odd_field():
    """(where, scenario JSON) with one field of a valid scenario replaced."""
    def put(d, name, value):
        d = {k: v for k, v in d.items() if k != name}
        return d if value is MISSING else {**d, name: value}

    for value in JSON_VALUES:
        for f in dataclasses.fields(Scenario):
            yield f"{f.name}={value!r}", put({"horizon_min": 60}, f.name, value)
        for f in dataclasses.fields(PopulationSpec):
            yield f"population.{f.name}={value!r}", {
                "horizon_min": 60, "population": put({}, f.name, value)}
    for kind, signal in SIGNALS.items():
        for f in dataclasses.fields(PriceSignal):
            for value in (*JSON_VALUES, MISSING):
                shown = "(missing)" if value is MISSING else repr(value)
                yield f"{kind} price_signal.{f.name}={shown}", {
                    "horizon_min": 60, "price_signal": put(signal, f.name, value)}


def test_no_field_value_makes_validation_raise_anything_but_scenario_error():
    # Every field of Scenario, PopulationSpec and PriceSignal (under each
    # kind) given each kind of JSON value: the scenario is read and validated,
    # or refused with a ScenarioError, never with another exception.
    crashes = []
    for where, d in _scenarios_with_one_odd_field():
        try:
            assert isinstance(Scenario.from_dict(d).validate(), list)
        except ScenarioError:
            pass
        except Exception as exc:
            crashes.append(f"{where}: {type(exc).__name__}: {exc}")
    assert crashes == []


# ------------------------------------------------------------------ run loop

def tiny_scenario(**kwargs) -> Scenario:
    defaults = dict(
        name="tiny",
        population=PopulationSpec(count=16),
        price_signal=PriceSignal.constant(25.0),
        horizon_min=30.0,
        seed=11,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


def test_run_trace_shapes_and_frames():
    s = tiny_scenario()
    trace = run(s)
    assert trace.n_intervals == 6
    assert trace.time_min.tolist() == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0]
    assert trace.step_power_kw.shape == (6 * 30,)
    assert trace.sync.shape == trace.dispersion_degc.shape == (6,)
    assert trace.subgroup_sync.shape == (0, 6)
    assert trace.bid_sample.shape == (6, 16)
    assert trace.bid_price_min.shape == trace.bid_price_max.shape == (6,)
    assert np.all(trace.bid_price_min <= trace.bid_price_mean)
    assert np.all(trace.bid_price_mean <= trace.bid_price_max)


def test_trace_records_share_no_memory():
    trace = run(tiny_scenario(
        population=PopulationSpec(count=30, noise_std=0.02, subgroups=3),
    ))
    arrays = {
        f.name: getattr(trace, f.name) for f in dataclasses.fields(trace)
        if isinstance(getattr(trace, f.name), np.ndarray)
    }
    assert trace.subgroup_sync.shape == (3, 6) and len(arrays) == 20
    for (a, x), (b, y) in itertools.combinations(arrays.items(), 2):
        assert not np.shares_memory(x, y), (a, b)
    for name, x in arrays.items():
        assert not np.shares_memory(x, trace.population.theta), name


def test_run_is_deterministic():
    s = tiny_scenario(horizon_min=60.0)
    a, b = run(s), run(s)
    assert np.array_equal(a.avg_demand_kw, b.avg_demand_kw)
    assert np.array_equal(a.step_power_kw, b.step_power_kw)
    assert np.array_equal(a.population.theta, b.population.theta)
    assert np.array_equal(a.sync, b.sync)
    assert np.array_equal(a.dispersion_degc, b.dispersion_degc)
    assert np.array_equal(a.bid_sample, b.bid_sample)
    assert np.array_equal(a.bid_price_mean, b.bid_price_mean)
    assert np.array_equal(a.clearing_price, b.clearing_price)


def test_run_rejects_invalid_scenario_before_starting():
    with pytest.raises(ScenarioError, match="invalid scenario"):
        run(tiny_scenario(horizon_min=-1.0))


def test_feeder_limit_fraction_and_absolute():
    frac = run(tiny_scenario())
    assert frac.feeder_limit_kw == pytest.approx(0.70 * frac.population.capacity_kw)
    fixed = run(tiny_scenario(feeder_limit_kw=33.0))
    assert fixed.feeder_limit_kw == 33.0


def test_realized_power_never_exceeds_cleared_demand():
    s = tiny_scenario(horizon_min=120.0, price_signal=PriceSignal.square(20.0, 30.0, 10.0))
    trace = run(s)
    per_step_cleared = np.repeat(trace.cleared_demand_kw, s.plan().steps_per_interval)
    assert np.all(trace.step_power_kw <= per_step_cleared + 1e-9)


def test_base_price_above_every_cap_blocks_all_dispatch():
    s = tiny_scenario(
        population=PopulationSpec(count=20),
        price_signal=PriceSignal.constant(50.0),   # above the 40 $/MWh cap ceiling
        horizon_min=360.0,
    )
    trace = run(s)
    assert np.all(trace.cleared_demand_kw == 0.0)
    assert np.all(trace.n_dispatched == 0)
    assert np.all(trace.step_power_kw == 0.0)
    # with cooling blocked, every house drifts monotonically toward ambient
    steps_per = s.plan().steps_per_interval
    interval_means = trace.step_theta_mean[steps_per - 1 :: steps_per]
    assert len(interval_means) == trace.n_intervals
    assert np.all(np.diff(interval_means) > 0)
    assert interval_means[-1] > 22.5
    assert np.all(trace.population.theta < s.population.theta_ambient)


def test_natural_cycling_matches_analytic_duty():
    s = tiny_scenario(
        name="natural-small",
        population=PopulationSpec(count=64),
        price_signal=PriceSignal.constant(0.0),
        feeder_limit_kw=None,
        feeder_fraction=1.0,
        horizon_min=1440.0,
    )
    trace = run(s)
    # P and R are homogeneous here, so every TCL's duty is (32-20)/28 = 3/7
    predicted = trace.population.capacity_kw * (32.0 - 20.0) / 28.0
    tail = trace.avg_demand_kw[trace.time_min >= 720.0]
    assert tail.mean() == pytest.approx(predicted, rel=0.05)


def _fraction_mean(values):
    """Oracle: the mean accumulated as an exact rational, rounded once."""
    total = Fraction(0)
    for x in values:
        total += Fraction(x)
    return float(total / len(values))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1e9)), min_size=1, max_size=400))
def test_exact_mean_matches_the_fraction_mean(values):
    assert engine._exact_mean(values) == _fraction_mean(values)


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([1, 7, 8, 9, 1003]), B=st.sampled_from([1, 3, 30]),
       density=st.sampled_from([0.0, 0.1, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_row_counts_of_a_padded_block_equal_count_nonzero(n, B, density, seed):
    # run() counts each consuming row of a block padded to whole 8-byte words
    rng = np.random.default_rng(seed)
    rows = rng.random((B, n)) < density
    block = np.zeros((B, -(-n // 8) * 8), dtype=bool)
    block[:, :n] = rows
    b = int(rng.integers(1, B + 1))   # a partial block counts its first b rows
    counts = engine._row_counts(block[:b])
    assert counts.tolist() == [np.count_nonzero(row) for row in rows[:b]]
    # the on-fraction divides the counts at once, as count / n does each
    assert (counts / n).tolist() == [np.count_nonzero(row) / n for row in rows[:b]]


@pytest.mark.parametrize("population", [
    PopulationSpec(count=16),
    # 2000 loads step in blocks of 16 rows, so an interval of 30 steps ends in a
    # partial block; noise and subgroups take their own paths through the loop
    PopulationSpec(count=2000, noise_std=0.02, subgroups=3),
])
def test_run_calls_step_physics_once_per_physics_step(monkeypatch, population):
    # one call per step on the run's population is what a profile of
    # Population.step_physics counts as physics steps and load-steps
    scenario = tiny_scenario(population=population, horizon_min=20.0)
    callers = []
    step_physics = Population.step_physics

    def record_step(pop, *args, **kwargs):
        callers.append(pop)
        return step_physics(pop, *args, **kwargs)

    monkeypatch.setattr(Population, "step_physics", record_step)
    trace = run(scenario)
    plan = scenario.plan()
    assert len(callers) == plan.n_intervals * plan.steps_per_interval == 4 * 30
    assert all(pop is trace.population for pop in callers)


def test_run_is_the_same_for_one_row_blocks_and_a_one_step_last_block(monkeypatch):
    # one-row blocks write each step's switches into the row it reads; blocks
    # of 59 steps end each 60-step interval with a block of one step, so the
    # next interval's first step reads and writes row 0 too
    scenario = tiny_scenario(
        population=PopulationSpec(count=150, p_rel_width=0.3, theta_set_width=0.8,
                                  noise_std=0.02, subgroups=3),
        price_signal=PriceSignal.square(20.0, 30.0, 10.0),
        horizon_min=30.0,
        h_seconds=5.0,
        seed=3,
    )
    default = run(scenario)
    assert default.constrained.any() and not default.constrained.all()
    for block in (1, 59):
        monkeypatch.setattr(engine, "BLOCK_ELEMENTS", block * 150)
        trace = run(scenario)
        for name, value in vars(default).items():
            if isinstance(value, np.ndarray):
                assert getattr(trace, name).tobytes() == value.tobytes(), (block, name)
        for name in ("theta", "m", "v"):
            got, want = getattr(trace.population, name), getattr(default.population, name)
            assert got.tobytes() == want.tobytes(), (block, name)


@pytest.mark.parametrize("block", [60, 7, 1])   # a whole interval, not a divisor of 60, one step
def test_run_step_records_match_per_step_oracles(monkeypatch, block):
    # unequal P/eta, spread set-points, noise and subgroups: none of the
    # benchmark scenarios exercises these together
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", block * 150)
    scenario = tiny_scenario(
        population=PopulationSpec(count=150, p_rel_width=0.3, eta_rel_width=0.4,
                                  theta_set_width=0.8, noise_std=0.02, subgroups=3),
        price_signal=PriceSignal.square(20.0, 30.0, 10.0),
        horizon_min=60.0,
        h_seconds=5.0,
        seed=3,
    )
    steps, bids, noises = [], [], []
    step_physics, bid_prices = Population.step_physics, engine.bid_prices
    aggregate_power = engine.aggregate_power

    def record_step(pop, h, noise, theta_out, m_out):
        assert theta_out.base.shape == m_out.base.shape == (block, 150)
        noises.append(noise.copy())
        step_physics(pop, h, noise, theta_out, m_out)
        steps.append((pop.theta.copy(), pop.m.copy(), pop.v.copy()))

    def record_power(pop, consuming, counts):
        # the consuming rows sit in a block padded to whole 8-byte words
        assert consuming.base.shape == (block, 152)
        return aggregate_power(pop, consuming, counts)

    def record_bids(pop, theta_bid):
        prices = bid_prices(pop, theta_bid)
        bids.append(prices.copy())
        return prices

    monkeypatch.setattr(Population, "step_physics", record_step)
    monkeypatch.setattr(engine, "bid_prices", record_bids)
    monkeypatch.setattr(engine, "aggregate_power", record_power)
    trace = run(scenario)
    assert len(steps) == len(trace.step_power_kw) == 12 * 60
    assert trace.feeder_limit_kw < trace.population.capacity_kw and trace.constrained.any()
    elec = trace.population.elec_power
    assert len(np.unique(elec)) == 150
    # the noise of each step is one draw of n from the noise stream, in step order
    noise_rng = np.random.default_rng(np.random.SeedSequence(3).spawn(4)[2])
    for noise in noises:
        assert noise.tolist() == (noise_rng.standard_normal(150) * 0.02).tolist()
    for k, (theta, m, v) in enumerate(steps):
        consuming = (m == 1) & (v == 1)
        assert trace.step_power_kw[k] == math.fsum(elec[consuming].tolist())
        assert trace.step_on_fraction[k] == consuming.mean()
        assert trace.step_theta_mean[k] == theta.mean()
        assert trace.step_theta_std[k] == theta.std()
    per_interval = trace.step_power_kw.reshape(12, 60)
    assert trace.avg_demand_kw.tolist() == [_fraction_mean(p.tolist()) for p in per_interval]
    # the sampled bid record is the bid matrix's columns, chosen as before
    sample_rng = np.random.default_rng(np.random.SeedSequence(3).spawn(4)[3])
    chosen = np.sort(sample_rng.choice(150, size=N_BID_SAMPLES, replace=False))
    assert trace.bid_sample_ids.tolist() == chosen.tolist()
    matrix = np.array(bids)
    assert trace.bid_sample.tobytes() == matrix[:, chosen].tobytes()
    assert trace.bid_price_min.tolist() == matrix.min(axis=1).tolist()
    assert trace.bid_price_mean.tolist() == [row.mean() for row in matrix]
    # run() takes the mean as sum / n: the reduction and division of mean()
    assert np.array([row.sum() / len(row) for row in matrix]).tobytes() == np.array(
        [row.mean() for row in matrix]).tobytes()
    assert trace.bid_price_max.tolist() == matrix.max(axis=1).tolist()
    # the synchronization record is the statistics of each interval's last step
    pop = trace.population
    members = [slice(50 * g, 50 * (g + 1)) for g in range(3)]   # 150 loads in 3 blocks
    for t in range(12):
        theta, m, _ = steps[60 * t + 59]
        assert trace.sync[t] == sync_index(theta, m, pop.theta_min, pop.theta_max, [(0, 150)])[0]
        assert trace.dispersion_degc[t] == temperature_dispersion(theta, pop.theta_set)
        assert trace.subgroup_sync[:, t].tolist() == [
            sync_index(theta[g], m[g], pop.theta_min[g], pop.theta_max[g], [(0, 50)])[0]
            for g in members
        ]
    # nothing is recorded per TCL per interval
    for name, value in vars(trace).items():
        if isinstance(value, np.ndarray):
            assert value.size < 150 * 12, name
