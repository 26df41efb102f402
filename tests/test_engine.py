"""Scenario configuration, population generation, and the closed-loop run."""

import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tclmarket.engine as engine
from tclmarket.engine import (
    N_BID_SAMPLES,
    PopulationSpec,
    PriceSignal,
    Scenario,
    ScenarioError,
    generate_population,
    price_signal_value,
    run,
)
from tclmarket.metrics import sync_index, temperature_dispersion
from tclmarket.population import PARAM_FIELDS, Population
from tclmarket.reference import (
    Bid,
    TclParams,
    TclState,
    devices,
    population_from_devices,
)


# ------------------------------------------------------------- price signals

def test_step_schedule_values():
    sig = PriceSignal.step([(0.0, 42.0), (360.0, 20.0), (720.0, 9.0)])
    assert price_signal_value(sig, 0) == 42.0
    assert price_signal_value(sig, 71) == 42.0    # t=355, still the first level
    assert price_signal_value(sig, 72) == 20.0    # t=360, change applies
    assert price_signal_value(sig, 80) == 20.0    # t=400
    assert price_signal_value(sig, 144) == 9.0    # t=720
    assert price_signal_value(sig, 287) == 9.0


def test_square_wave_low_first():
    sig = PriceSignal.square(low=14.0, high=24.0, period_min=10.0)
    assert price_signal_value(sig, 0) == 14.0
    assert price_signal_value(sig, 1) == 24.0
    assert price_signal_value(sig, 2) == 14.0


def test_square_wave_offset_starts_high():
    # half-period offset flips the starting level; first drop at t=240
    sig = PriceSignal.square(low=14.0, high=24.0, period_min=480.0, offset_min=240.0)
    assert price_signal_value(sig, 0) == 24.0
    assert price_signal_value(sig, 47) == 24.0    # t=235
    assert price_signal_value(sig, 48) == 14.0    # t=240
    assert price_signal_value(sig, 95) == 14.0
    assert price_signal_value(sig, 96) == 24.0    # t=480


def test_constant_and_series_values():
    assert price_signal_value(PriceSignal.constant(30.0), 123) == 30.0
    sig = PriceSignal.series([5.0, 6.0, 7.0])
    assert [price_signal_value(sig, i) for i in range(3)] == [5.0, 6.0, 7.0]
    with pytest.raises(IndexError):
        price_signal_value(sig, 3)


def test_price_signal_value_rejects_out_of_horizon():
    sig = PriceSignal.constant(10.0)
    with pytest.raises(IndexError):
        price_signal_value(sig, -1)
    with pytest.raises(IndexError):
        price_signal_value(sig, 12, n_intervals=12)


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
    curves = {
        (p.p0, p.p_cap, p.gamma1, p.gamma2) for p in devices(pop)[0]
    }
    assert len(curves) == 4
    assert pop.subgroup is not None
    counts = np.bincount(pop.subgroup)
    assert list(counts) == [25, 25, 25, 25]
    # members of one subgroup share one bid curve
    for g in range(4):
        sel = [p for p, s in zip(devices(pop)[0], pop.subgroup) if s == g]
        assert len({(p.p0, p.p_cap, p.gamma1, p.gamma2) for p in sel}) == 1


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
    again = population_from_devices(params, states, pop.theta_ambient, pop.subgroup)
    names = PARAM_FIELDS + ("theta", "m", "v", "theta_min", "theta_max",
                            "theta_gain", "elec_power")
    for name in names:
        a, b = getattr(pop, name), getattr(again, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert [p.id for p in params] == list(range(200))
    if subgroups > 1:
        assert again.subgroup.tobytes() == pop.subgroup.tobytes()


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


def test_production_path_never_imports_the_reference(tmp_path):
    # A fresh interpreter imports the package and runs the command line;
    # the per-device reference is the tests' oracle and must stay unloaded.
    scenario = Scenario(
        population=PopulationSpec(count=200, noise_std=0.01, subgroups=2),
        price_signal=PriceSignal.step([(0.0, 42.0), (15.0, 20.0), (30.0, 9.0)]),
        horizon_min=45.0,
    )
    path = tmp_path / "scenario.json"
    path.write_text(scenario.to_json())
    code = (
        "import sys, tclmarket, tclmarket.cli\n"
        "assert tclmarket.cli.main(sys.argv[1:]) == 0\n"
        "assert 'tclmarket.reference' not in sys.modules, "
        "'a production module imported tclmarket.reference'\n"
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
    # 290 s market interval: the 24 h horizon no longer divides into it, and
    # the step change at t=360 min no longer lands on a boundary
    s = Scenario(
        market_interval_min=290.0 / 60.0,
        price_signal=PriceSignal.step([(0.0, 42.0), (360.0, 20.0)]),
    )
    errs = s.validate()
    assert len(errs) == 2
    assert any("horizon_min" in e for e in errs)
    assert any("boundaries" in e for e in errs)


def test_scenario_validates_timing_and_limits():
    assert Scenario(h_seconds=0.0).validate()
    assert Scenario(market_interval_min=0.25, h_seconds=45.0).validate()
    assert Scenario(horizon_min=1441.0).validate()
    assert Scenario(feeder_limit_kw=-5.0).validate()
    assert Scenario(feeder_limit_kw=None, feeder_fraction=0.0).validate()
    assert Scenario(lookahead_s=155.0).validate()
    assert Scenario(price_tick=0.0).validate()


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
    assert trace.step_time_min.shape == (6 * 30,)
    assert trace.step_time_min[0] == pytest.approx(10.0 / 60.0)
    assert trace.step_time_min[-1] == pytest.approx(30.0)
    assert trace.sync.shape == trace.dispersion_degc.shape == (6,)
    assert trace.subgroup_sync is None
    assert trace.bid_sample.shape == (6, 16)
    assert trace.bid_price_min.shape == trace.bid_price_max.shape == (6,)
    assert np.all(trace.bid_price_min <= trace.bid_price_mean)
    assert np.all(trace.bid_price_mean <= trace.bid_price_max)


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
    assert frac.feeder_limit_kw == pytest.approx(0.70 * frac.capacity_kw)
    fixed = run(tiny_scenario(feeder_limit_kw=33.0))
    assert fixed.feeder_limit_kw == 33.0


def test_realized_power_never_exceeds_cleared_demand():
    s = tiny_scenario(horizon_min=120.0, price_signal=PriceSignal.square(20.0, 30.0, 10.0))
    trace = run(s)
    per_step_cleared = np.repeat(trace.cleared_demand_kw, s.steps_per_interval)
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
    steps_per = s.steps_per_interval
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
    predicted = trace.capacity_kw * (32.0 - 20.0) / 28.0
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

    def record_step(pop, h, noise=None, theta_out=None, consuming_out=None):
        assert theta_out.base.shape == consuming_out.base.shape == (block, 150)
        noises.append(noise.copy())
        step_physics(pop, h, noise, theta_out, consuming_out)
        steps.append((pop.theta.copy(), pop.m.copy(), pop.v.copy()))

    def record_bids(pop, theta_bid):
        prices = bid_prices(pop, theta_bid)
        bids.append(prices.copy())
        return prices

    monkeypatch.setattr(Population, "step_physics", record_step)
    monkeypatch.setattr(engine, "bid_prices", record_bids)
    trace = run(scenario)
    assert len(steps) == len(trace.step_power_kw) == 12 * 60
    assert trace.feeder_limit_kw < trace.capacity_kw and trace.constrained.any()
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
    assert trace.bid_price_max.tolist() == matrix.max(axis=1).tolist()
    # the synchronization record is the statistics of each interval's last step
    pop = trace.population
    members = [pop.subgroup == g for g in range(3)]
    for t in range(12):
        theta, m, _ = steps[60 * t + 59]
        assert trace.sync[t] == sync_index(theta, m, pop.theta_min, pop.theta_max)
        assert trace.dispersion_degc[t] == temperature_dispersion(theta, pop.theta_set)
        assert trace.subgroup_sync[:, t].tolist() == [
            sync_index(theta[g], m[g], pop.theta_min[g], pop.theta_max[g]) for g in members
        ]
    # nothing is recorded per TCL per interval
    for name, value in vars(trace).items():
        if isinstance(value, np.ndarray):
            assert value.size < 150 * 12, name
