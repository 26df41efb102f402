"""End-to-end acceptance suite.

Ten numbered criteria, one test each, so ``pytest -v`` reports one
PASS/FAIL line per criterion:

  1. feeder-limit invariant over built-ins plus 100 randomized scenarios
  2. clearing matches a brute-force oracle on 10,000 random bid sets
  3. unconstrained baseline demand matches the analytic duty cycle
  4. price-step experiment: synchronization, feeder pinning, oscillations
  5. oscillations survive set-point heterogeneity
  6. fluctuating prices amplify demand swings vs. a constant price
  7. pulse-train lows: feeder-limited demand with staged cascades
  8. four bid-curve subgroups: mixed periods, per-group coherence
  9. byte-identical traces across repeated runs
 10. bid-curve monotonicity/continuity/range on random draws
"""

import math
import random

import numpy as np
import pytest

from tclmarket.bidding import bid_prices
from tclmarket.cli import builtin_scenario, main
from tclmarket.engine import run
from tclmarket.market import DEFAULT_PRICE_TICK, build_demand_curve, clear
from tclmarket.metrics import compute_metrics
from tclmarket.population import LimbTable
from tclmarket.scenario import PopulationSpec, PriceSignal, Scenario
from oracle import Bid, TclParams, TclState, make_bid, population_from_devices


# --------------------------------------------------------------- shared runs

@pytest.fixture(scope="module")
def stepprice_trace():
    return run(builtin_scenario("stepprice"))


@pytest.fixture(scope="module")
def hetset_trace():
    return run(builtin_scenario("stepprice-hetset"))


@pytest.fixture(scope="module")
def fluctuating_trace():
    return run(builtin_scenario("fluctuating"))


@pytest.fixture(scope="module")
def pulsetrain_trace():
    return run(builtin_scenario("pulsetrain"))


@pytest.fixture(scope="module")
def subgroups_trace():
    return run(builtin_scenario("subgroups"))


@pytest.fixture(scope="module")
def natural_trace():
    return run(builtin_scenario("natural"))


# ----------------------------------------------------- criterion 1: feeder

def _random_mini_scenario(rng: random.Random, idx: int) -> Scenario:
    count = rng.randrange(5, 41)
    horizon = rng.choice([60.0, 90.0, 120.0])
    n_int = int(horizon / 5.0)
    kind = rng.randrange(4)
    if kind == 0:
        signal = PriceSignal.constant(rng.choice([0.0, 9.0, 20.0, 25.0, 42.0]))
    elif kind == 1:
        times = sorted(rng.sample(range(1, n_int), k=min(2, n_int - 1)))
        schedule = [(0.0, rng.uniform(5.0, 45.0))]
        schedule += [(5.0 * t, rng.uniform(5.0, 45.0)) for t in times]
        signal = PriceSignal.step(schedule)
    elif kind == 2:
        half = rng.choice([5.0, 10.0, 15.0, 30.0])
        signal = PriceSignal.square(
            low=rng.uniform(5.0, 25.0),
            high=rng.uniform(25.0, 45.0),
            period_min=2.0 * half,
            offset_min=rng.choice([0.0, half]),
        )
    else:
        signal = PriceSignal.series([rng.uniform(0.0, 45.0) for _ in range(n_int)])
    population = PopulationSpec(
        count=count,
        c_rel_width=rng.uniform(0.0, 0.2),
        theta_set_width=rng.choice([0.0, 1.0]),
        noise_std=rng.choice([0.0, 0.0, 0.005]),
        subgroups=rng.choice([1, 1, 1, 4]),
    )
    feeder_kw = None
    if rng.random() < 0.3:
        feeder_kw = rng.uniform(0.3, 1.0) * count * 5.6
    return Scenario(
        name=f"mini{idx}",
        population=population,
        price_signal=signal,
        horizon_min=horizon,
        feeder_limit_kw=feeder_kw,
        feeder_fraction=rng.uniform(0.3, 1.0),
        seed=idx,
    )


def _feeder_violations(trace) -> list[str]:
    limit = trace.feeder_limit_kw
    out = []
    if np.any(trace.cleared_demand_kw > limit):
        t = int(np.argmax(trace.cleared_demand_kw > limit))
        out.append(f"cleared {trace.cleared_demand_kw[t]!r} > {limit!r} at interval {t}")
    if np.any(trace.avg_demand_kw > limit):
        t = int(np.argmax(trace.avg_demand_kw > limit))
        out.append(f"avg demand {trace.avg_demand_kw[t]!r} > {limit!r} at interval {t}")
    return out


def test_criterion_01_feeder_limit_never_exceeded(
    stepprice_trace, hetset_trace, fluctuating_trace,
    pulsetrain_trace, subgroups_trace, natural_trace,
):
    # exact comparisons, no tolerance: both the cleared quantity and the
    # realized 5-minute average must respect the limit in every interval
    problems = []
    for trace in (
        stepprice_trace, hetset_trace, fluctuating_trace,
        pulsetrain_trace, subgroups_trace, natural_trace,
    ):
        problems += [f"{trace.scenario.name}: {v}" for v in _feeder_violations(trace)]
    rng = random.Random(20260401)
    for idx in range(100):
        scenario = _random_mini_scenario(rng, idx)
        assert scenario.validate() == [], scenario
        problems += [f"{scenario.name}: {v}" for v in _feeder_violations(run(scenario))]
    print(f"criterion 1: feeder invariant over 6 built-ins + 100 random scenarios "
          f"-> {len(problems)} violations")
    assert problems == []


# ----------------------------------------------- criterion 2: clearing oracle

def _oracle_clear(bids, base_price, feeder_limit):
    levels = sorted({b.price for b in bids}, reverse=True)

    def demand_at(p):
        return math.fsum(b.quantity for b in bids if b.price >= p)

    base_demand = demand_at(base_price)
    if base_demand <= feeder_limit:
        return (base_price, base_demand, False, base_demand)
    feasible = [p for p in levels if p > base_price and demand_at(p) <= feeder_limit]
    if feasible:
        price = min(feasible)
        return (price, demand_at(price), True, base_demand)
    return (max(levels) + DEFAULT_PRICE_TICK, 0.0, True, base_demand)


def test_criterion_02_clearing_matches_bruteforce_oracle():
    rng = random.Random(77)
    price_grid = [0.0, 3.5, 9.0, 10.0, 10.0, 20.0, 20.0, 25.0, 30.0, 30.0, 42.5, 50.0]
    qty_grid = [0.1, 0.5, 1.0, 1.5, 2.0, 5.6]
    mismatches = 0
    for _ in range(10000):
        bids = [
            Bid(i, rng.choice(price_grid), rng.choice(qty_grid))
            for i in range(rng.randint(0, 12))
        ]
        base = rng.choice([0.0, 5.0, 9.0, 10.0, 20.0, 31.0, 50.0, 60.0])
        feeder = rng.uniform(0.05, 25.0)
        curve = build_demand_curve(np.array([b.price for b in bids]),
                                   LimbTable(np.array([b.quantity for b in bids])))
        got = clear(curve, base, feeder)
        want = _oracle_clear(bids, base, feeder)
        if (got.clearing_price, got.cleared_demand, got.constrained, got.base_demand) != want:
            mismatches += 1
    print(f"criterion 2: 10000 random bid sets, {mismatches} oracle mismatches")
    assert mismatches == 0


# ------------------------------------------------ criterion 3: duty baseline

def test_criterion_03_natural_cycling_duty_baseline(natural_trace):
    pop = natural_trace.population
    predicted = float(np.sum(
        pop.elec_power * (pop.theta_ambient - pop.theta_set) / (pop.P * pop.R)
    ))
    tail = natural_trace.avg_demand_kw[natural_trace.time_min >= 720.0]
    observed = float(tail.mean())
    err = abs(observed - predicted) / predicted
    print(f"criterion 3: mean demand {observed:.1f} kW vs analytic {predicted:.1f} kW "
          f"({100 * err:.2f}% error, limit 3%)")
    assert err < 0.03


# --------------------------------------- criterion 4: price-step experiment

def test_criterion_04_price_step_sync_pinning_oscillations(stepprice_trace):
    trace = stepprice_trace
    report = compute_metrics(trace)
    limit = trace.feeder_limit_kw
    t = trace.time_min

    # (a) temperatures synchronize while the 42 $/MWh price blocks dispatch
    sync_before_drop = float(trace.sync[t < 360.0].max())

    # (b) during the 20 $/MWh hold the demand sits pinned at the limit and
    #     the clearing price rises above the base price
    hold = (t >= 360.0) & (t < 720.0)
    pinned_frac = float((trace.avg_demand_kw[hold] >= 0.95 * limit).mean())
    raised_frac = float((trace.clearing_price[hold] > trace.base_price[hold]).mean())

    # (c) after the drop to 9 $/MWh, two-hour windows show large swings
    late = report.window_start_min >= 840.0
    big = report.window_p2p_kw[late] > 0.5 * limit
    swing_frac = float(big.mean())

    print(
        f"criterion 4: max sync {sync_before_drop:.3f} (>0.9); pinned "
        f"{100 * pinned_frac:.0f}% of hold (>=80%), clearing>base "
        f"{100 * raised_frac:.0f}%; {100 * swing_frac:.0f}% of late windows "
        f"with p2p > half the limit (>=90%)"
    )
    assert sync_before_drop > 0.9
    assert pinned_frac >= 0.80
    assert raised_frac > 0.5
    assert swing_frac >= 0.90


# ------------------------------------ criterion 5: heterogeneous set-points

def test_criterion_05_oscillations_survive_setpoint_heterogeneity(hetset_trace):
    report = compute_metrics(hetset_trace)
    limit = hetset_trace.feeder_limit_kw
    late = report.window_start_min >= 840.0
    swing_frac = float((report.window_p2p_kw[late] > 0.5 * limit).mean())
    print(f"criterion 5: {100 * swing_frac:.0f}% of late windows with "
          f"p2p > half the limit (>=90%), set-points spread +-1 degC")
    assert swing_frac >= 0.90


# ------------------------------------- criterion 6: fluctuating vs constant

def test_criterion_06_fluctuating_price_amplifies_swings(fluctuating_trace):
    trace = fluctuating_trace
    capacity = trace.population.capacity_kw
    jumps = np.abs(np.diff(trace.avg_demand_kw))
    volatile_frac = float((jumps > 0.30 * capacity).mean())

    steady = run(Scenario(
        name="constant25",
        population=PopulationSpec(),
        price_signal=PriceSignal.constant(25.0),
    ))
    steady_jumps = np.abs(np.diff(steady.avg_demand_kw))
    settled = steady.time_min[1:] >= 360.0
    worst_settled = float(steady_jumps[settled].max())

    print(
        f"criterion 6: {100 * volatile_frac:.0f}% of intervals jump > 30% of "
        f"capacity (>=10%); constant-price worst jump "
        f"{100 * worst_settled / capacity:.1f}% of capacity (<10%)"
    )
    assert volatile_frac >= 0.10
    assert worst_settled < 0.10 * capacity


# ----------------------------------------------- criterion 7: pulse train

def _contiguous_runs(indices: np.ndarray) -> list[np.ndarray]:
    if len(indices) == 0:
        return []
    breaks = np.where(np.diff(indices) > 1)[0] + 1
    return np.split(indices, breaks)


def test_criterion_07_pulse_train_low_phases_cascade(pulsetrain_trace):
    trace = pulsetrain_trace
    limit = trace.feeder_limit_kw
    low_idx = np.where(trace.base_price == 14.0)[0]
    phases = _contiguous_runs(low_idx)
    assert len(phases) == 3

    details = []
    for phase in phases:
        start = int(phase[0])
        demand = trace.avg_demand_kw[phase]
        peak_ratio = float(demand.max()) / limit
        slopes = np.sign(np.diff(demand))
        slopes = slopes[slopes != 0]
        sign_changes = int(np.count_nonzero(slopes[1:] != slopes[:-1]))
        raised_at_start = trace.clearing_price[start] > trace.base_price[start]
        details.append((peak_ratio, sign_changes, bool(raised_at_start)))

    print("criterion 7: per low phase (peak/limit, slope sign changes, "
          f"clearing raised at entry) = {details}")
    for peak_ratio, sign_changes, raised_at_start in details:
        assert peak_ratio >= 0.95
        assert sign_changes >= 3
        assert raised_at_start


# -------------------------------------------- criterion 8: bid subgroups

def _distinct_dominant_periods(report, min_windows=3, rel_gap=0.25) -> list[float]:
    periods = report.window_period_min
    periods = periods[~np.isnan(periods)]
    values, counts = np.unique(periods, return_counts=True)
    recurring = sorted(float(v) for v, c in zip(values, counts) if c >= min_windows)
    distinct: list[float] = []
    for p in recurring:
        if all(abs(p - q) > rel_gap * max(p, q) for q in distinct):
            distinct.append(p)
    return distinct


def test_criterion_08_subgroups_mix_periods_with_partial_coherence(subgroups_trace):
    trace = subgroups_trace
    report = compute_metrics(trace)
    assert trace.subgroup_sync.shape[0] == 4

    distinct = _distinct_dominant_periods(report)

    coherent_split = (trace.subgroup_sync > 0.9).all(axis=0) & (trace.sync < 0.6)
    runs = _contiguous_runs(np.where(coherent_split)[0])
    interval = trace.scenario.market_interval_min
    longest_min = max((len(r) for r in runs), default=0) * interval
    total_min = int(coherent_split.sum()) * interval

    print(
        f"criterion 8: dominant periods {distinct} min (need >=2 distinct); "
        f"group-coherent/population-split stretches: longest {longest_min:.0f} min, "
        f"total {total_min:.0f} min"
    )
    assert len(distinct) >= 2
    assert longest_min >= 30.0
    assert total_min >= 120.0


# ------------------------------------------------ criterion 9: determinism

def test_criterion_09_repeat_runs_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--scenario", "stepprice", "--out", str(out1), "--emit", "trace"]) == 0
    assert main(["--scenario", "stepprice", "--out", str(out2), "--emit", "trace"]) == 0
    same = (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    print(f"criterion 9: repeated stepprice runs byte-identical: {same}")
    assert same


# --------------------------------------------- criterion 10: bid properties

def test_criterion_10_bid_curve_properties_random_draws():
    rng = random.Random(910)
    evaluations = 0
    curves, temperatures, prices = [], [], []
    for i in range(10000):
        p_cap = rng.uniform(5.0, 60.0)
        params = TclParams(
            id=i,
            p0=rng.uniform(0.0, p_cap),
            p_cap=p_cap,
            gamma1=rng.uniform(0.0, 400.0),
            gamma2=rng.uniform(0.0, 400.0),
        )
        theta_a = rng.uniform(18.0, 22.5)
        theta_b = theta_a + rng.uniform(0.0, 2.0)
        bid_a = make_bid(theta_a, params)
        bid_b = make_bid(theta_b, params)
        at_set = make_bid(params.theta_set, params)
        evaluations += 3
        # range, monotonicity, and continuity at the set-point
        assert 0.0 <= bid_a.price <= params.p_cap
        assert 0.0 <= bid_b.price <= params.p_cap
        assert bid_b.price >= bid_a.price
        assert at_set.price == min(params.p0, params.p_cap)
        eps = 1e-7
        bid_up = make_bid(params.theta_set + eps, params)
        bid_down = make_bid(params.theta_set - eps, params)
        gap = abs(bid_up.price - bid_down.price)
        evaluations += 2
        assert gap <= (params.gamma1 + params.gamma2) * eps + 1e-9
        curves.append(params)
        temperatures.append((theta_a, theta_b, params.theta_set,
                             params.theta_set + eps, params.theta_set - eps))
        prices.append((bid_a.price, bid_b.price, at_set.price, bid_up.price, bid_down.price))
    # the production path prices the same curves at the same temperatures
    population = population_from_devices(curves, [TclState(20.0)] * len(curves), 32.0)
    for k, (theta, want) in enumerate(zip(zip(*temperatures), zip(*prices))):
        got = bid_prices(population, np.array(theta))
        assert got.tolist() == list(want), f"evaluation {k} of each draw"
    print(f"criterion 10: {evaluations} bid evaluations, all within contract "
          "and equal to bid_prices bit for bit")
    assert evaluations >= 10000
