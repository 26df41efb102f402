"""Phase mapping, synchronization index, and oscillation summaries."""

import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracle import demand_oscillation
from tclmarket import metrics
from tclmarket.engine import run
from tclmarket.metrics import (
    compute_metrics,
    cycle_phases,
    mean_std,
    sync_index,
    temperature_dispersion,
    window_intervals,
)
from tclmarket.scenario import PopulationSpec, PriceSignal, Scenario, _subgroup_ranges

LO = np.array([19.75])
HI = np.array([20.25])


def phase_of(theta: float, m: int) -> float:
    return float(cycle_phases(np.array([theta]), np.array([m]), LO, HI)[0])


# ------------------------------------------------------------------- phases

def test_phase_mapping_around_the_loop():
    assert phase_of(19.75, 0) == 0.0                      # cold, warming up
    assert phase_of(20.0, 0) == pytest.approx(math.pi / 2)
    assert phase_of(20.25, 0) == pytest.approx(math.pi)    # top, about to switch
    assert phase_of(20.25, 1) == pytest.approx(math.pi)
    assert phase_of(20.0, 1) == pytest.approx(3 * math.pi / 2)
    assert phase_of(19.75, 1) == 0.0                      # bottom wraps to 0


def test_phase_clips_outside_the_deadband():
    # a blocked device drifting hot parks at the top of the warming leg
    assert phase_of(21.5, 0) == pytest.approx(math.pi)
    assert phase_of(19.0, 0) == 0.0
    assert phase_of(19.0, 1) == 0.0


def _phases_oracle(theta, m, theta_min, theta_max):
    """The phase formula as first written, with the remainder."""
    x = np.clip((theta - theta_min) / (theta_max - theta_min), 0.0, 1.0)
    return np.where(m == 1, np.pi * (2.0 - x), np.pi * x) % (2.0 * np.pi)


def test_cycle_phases_match_the_remainder_formula_at_the_band_edges():
    # theta on each band edge and one ulp either side of it, for a narrow,
    # a zero-based and a very wide band; then -0.0 at a zero edge
    bands = [(19.75, 20.25), (0.0, 0.5), (-3.0, 1e20)]
    rows = [
        (np.nextafter(edge, toward), lo, hi)
        for lo, hi in bands for edge in (lo, hi) for toward in (-np.inf, edge, np.inf)
    ]
    rows += [(-0.0, 0.0, 0.5), (1.0, 0.0, 1e20)]
    # +-0.0, NaN and +-inf temperatures on a zero-based and a shifted band
    rows += [(theta, lo, hi) for lo, hi in [(0.0, 0.5), (19.75, 20.25), (-0.5, 0.0)]
             for theta in (0.0, -0.0, np.nan, np.inf, -np.inf)]
    # band widths of one ulp and of the smallest subnormal, with the
    # temperature on, inside and either side of the band
    for lo, hi in [(20.0, np.nextafter(20.0, np.inf)), (0.0, 5e-324), (-5e-324, 0.0)]:
        rows += [(theta, lo, hi) for theta in (lo, hi, np.nextafter(lo, -np.inf),
                                               np.nextafter(hi, np.inf), (lo + hi) / 2, -0.0)]
    # a NaN or infinite band edge
    rows += [(20.0, np.nan, 20.25), (20.0, 19.75, np.nan), (20.0, -np.inf, 20.25),
             (20.0, 19.75, np.inf), (np.inf, 19.75, np.inf)]
    theta, lo, hi = (np.array(column) for column in zip(*rows))
    with np.errstate(invalid="ignore", divide="ignore"):
        x = np.clip((theta - lo) / (hi - lo), 0.0, 1.0)
    # the cases the remainder changed: 2*pi on the cooling leg (x = 0, and x
    # so small that 2 - x rounds to 2), and -0.0 on the warming leg
    assert (np.pi * (2.0 - x) == 2.0 * np.pi).sum() >= 4
    assert np.signbit(np.pi * x).any() and np.isnan(x).any()
    for m in (np.zeros(len(rows), dtype=bool), np.ones(len(rows), dtype=bool),
              np.zeros(len(rows), dtype=int), np.ones(len(rows), dtype=int),
              np.arange(len(rows)) % 2, np.arange(len(rows)) % 2 == 1):
        with np.errstate(invalid="ignore", divide="ignore"):
            expected = _phases_oracle(theta, m, lo, hi)
            assert cycle_phases(theta, m, lo, hi).tobytes() == expected.tobytes()
            # one band shared by every load, as zero-stride views of its edges
            for band in set(zip(lo.tolist(), hi.tolist())):
                rows_of = (lo == band[0]) & (hi == band[1])
                views = (np.broadcast_to(edge, rows_of.sum()) for edge in band)
                got = cycle_phases(theta[rows_of], m[rows_of], *views)
                assert got.tobytes() == expected[rows_of].tobytes()


def test_cycle_phases_match_the_select_form_on_random_and_edge_phases():
    n = 50_000
    rng = np.random.default_rng(11)
    lo = rng.uniform(18.0, 22.0, n)
    hi = lo + rng.choice([0.5, 1.7, 1e-6, 1e-12], n)
    theta = rng.uniform(lo - 0.5, hi + 0.5)
    # half of the loads on a band edge or one ulp either side of it
    edges = np.where(rng.random(n) < 0.5, lo, hi)
    toward = np.choose(rng.integers(0, 3, n), [np.full(n, -np.inf), edges, np.full(n, np.inf)])
    at_edge = rng.random(n) < 0.5
    theta[at_edge] = np.nextafter(edges, toward)[at_edge]
    random = rng.integers(0, 2, n)
    for m in (random, random == 1):
        expected = _phases_oracle(theta, m, lo, hi)
        assert cycle_phases(theta, m, lo, hi).tobytes() == expected.tobytes()


# --------------------------------------------------------------- sync index

def lo(n):
    return np.full(n, 19.75)


def hi(n):
    return np.full(n, 20.25)


def sync_of(theta, m, theta_min, theta_max):
    """The sync index of all the loads: one slice over the whole array."""
    return sync_index(theta, m, theta_min, theta_max, [(0, len(theta))])[0]


def test_identical_population_is_fully_synchronized():
    theta = np.full(10, 20.1)
    m = np.ones(10, dtype=int)
    assert sync_of(theta, m, lo(10), hi(10)) == 1.0


def test_quadrature_phases_cancel():
    # phases 0, pi/2, pi, 3*pi/2
    theta = np.array([19.75, 20.0, 20.25, 20.0])
    m = np.array([0, 0, 0, 1])
    assert sync_of(theta, m, lo(4), hi(4)) == pytest.approx(0.0, abs=1e-12)


def test_two_coherent_groups_in_antiphase_cancel():
    # ten devices at pi/4 against ten at 5*pi/4
    theta = np.concatenate([np.full(10, 19.875), np.full(10, 20.125)])
    m = np.array([0] * 10 + [1] * 10)
    assert sync_of(theta, m, lo(20), hi(20)) == pytest.approx(0.0, abs=1e-12)


def test_sync_index_invariant_under_relabeling():
    rng = np.random.default_rng(0)
    theta = rng.uniform(19.75, 20.25, 30)
    m = rng.integers(0, 2, 30)
    base = sync_of(theta, m, lo(30), hi(30))
    perm = rng.permutation(30)
    assert sync_of(theta[perm], m[perm], lo(30), hi(30)) == pytest.approx(base)


def test_adding_a_device_at_the_common_phase_keeps_unity():
    theta = np.full(5, 19.9)
    m = np.zeros(5, dtype=int)
    assert sync_of(theta, m, lo(5), hi(5)) == 1.0
    theta2 = np.append(theta, 19.9)
    m2 = np.append(m, 0)
    assert sync_of(theta2, m2, lo(6), hi(6)) == 1.0


def _sync_oracle(theta, m, theta_min, theta_max):
    """The sync index as first written: the phasors from ``1j * phases``."""
    phases = cycle_phases(theta, m, theta_min, theta_max)
    return min(1.0, float(np.abs(np.exp(1j * phases).mean())))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 5000),
    seed=st.integers(0, 2**32 - 1),
    edge_share=st.sampled_from([0.0, 0.3, 1.0]),
    theta_mode=st.sampled_from(["spread", "one temperature"]),
    m_mode=st.sampled_from(["random", "all on", "all off"]),
)
def test_sync_index_equals_the_phasor_product_form(n, seed, edge_share, theta_mode, m_mode):
    rng = np.random.default_rng(seed)
    theta_min = rng.uniform(18.0, 22.0, n)
    theta_max = theta_min + rng.choice([0.5, 0.3, 1.7, 1e-6], n)
    theta = rng.uniform(theta_min - 0.5, theta_max + 0.5)
    if theta_mode == "one temperature":
        theta_min, theta_max, theta = np.full(n, 19.75), np.full(n, 20.25), np.full(n, theta[0])
    # a share of the loads on a band edge or one ulp either side of it
    edges = np.where(rng.random(n) < 0.5, theta_min, theta_max)
    side = rng.integers(-1, 2, n)
    toward = np.where(side < 0, -np.inf, np.where(side > 0, np.inf, edges))
    at_edge = rng.random(n) < edge_share
    theta[at_edge] = np.nextafter(edges, toward)[at_edge]
    m = {"random": rng.integers(0, 2, n), "all on": np.ones(n, dtype=int),
         "all off": np.zeros(n, dtype=int)}[m_mode]
    expected = _sync_oracle(theta, m, theta_min, theta_max)
    assert sync_of(theta, m, theta_min, theta_max) == expected
    # sync_index takes the phasor mean as sum / n: the reduction and division of mean()
    phasors = np.exp(1j * cycle_phases(theta, m, theta_min, theta_max))
    assert np.complex128(phasors.sum() / n).tobytes() == phasors.mean().tobytes()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3000), K=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
@example(n=1003, K=4, seed=0)   # K does not divide n
@example(n=3, K=8, seed=0)      # K > n: only three groups are drawn
@example(n=1, K=2, seed=0)
def test_subgroup_slices_give_the_sync_index_of_each_subgroup(n, K, seed):
    rng = np.random.default_rng(seed)
    theta_min = rng.uniform(18.0, 22.0, n)
    theta_max = theta_min + rng.choice([0.5, 1.7], n)
    theta = rng.uniform(theta_min - 0.5, theta_max + 0.5)
    m = rng.integers(0, 2, n).astype(bool)
    labels = np.arange(n) * K // n
    groups, edges = _subgroup_ranges(n, K)
    slices = list(zip(edges[:-1].tolist(), edges[1:].tolist()))
    assert len(slices) == len(groups) == min(n, K)
    expected = [sync_of(theta, m, theta_min, theta_max)] + [
        sync_of(theta[labels == g], m[labels == g], theta_min[labels == g], theta_max[labels == g])
        for g in groups
    ]
    assert sync_index(theta, m, theta_min, theta_max, [(0, n)] + slices) == expected


def test_sync_index_allocates_only_the_phasors(traced_peak):
    n = 100_000
    rng = np.random.default_rng(5)
    theta, m = rng.uniform(19.5, 20.5, n), rng.integers(0, 2, n).astype(bool)
    theta_min, theta_max = lo(n), hi(n)
    _, peak = traced_peak(lambda: sync_index(theta, m, theta_min, theta_max, [(0, n)]))
    # 16 B per load of complex phasors and 8 of phases (measured 24.0 B per
    # load; the phasors from 1j * phases took 40)
    assert peak <= 25 * n


def test_sync_index_of_a_nan_temperature_is_nan():
    # min(1.0, nan) is 1.0: a NaN must not read as perfect synchrony
    theta = np.array([math.nan, math.inf])
    with np.errstate(invalid="ignore"):   # the phasor of a NaN phase
        whole = sync_of(theta, np.array([1, 0]), lo(2), hi(2))
        parts = sync_index(theta, np.array([1, 0]), lo(2), hi(2), [(0, 1), (1, 2)])
    assert math.isnan(whole) and math.isnan(parts[0]) and parts[1] == 1.0


def test_sync_index_rejects_empty_population():
    with pytest.raises(ValueError):
        sync_index(np.array([]), np.array([]), np.array([]), np.array([]), [])


def test_temperature_dispersion():
    assert temperature_dispersion(np.array([20.5, 21.5]), np.array([20.0, 21.0])) == 0.0
    assert temperature_dispersion(np.array([20.5, 19.5]), np.array([20.0, 20.0])) == 0.5


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 40), n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e6]))
def test_mean_std_equals_numpy_bit_for_bit(rows, n, seed, scale):
    rng = np.random.default_rng(seed)
    x = rng.normal(20.0, scale, (rows, n))
    mean, std = mean_std(x)
    assert mean.tobytes() == np.array([row.mean() for row in x]).tobytes()
    assert std.tobytes() == np.array([row.std() for row in x]).tobytes()
    theta, theta_set = x[0], rng.uniform(19.0, 21.0, n)
    assert mean_std(theta) == (theta.mean(), theta.std())
    assert temperature_dispersion(theta, theta_set) == float(np.std(theta - theta_set))


# ------------------------------------------------------------- oscillations

def test_constant_series_has_no_oscillation():
    p2p, period = demand_oscillation(np.full(24, 500.0))
    assert p2p == 0.0
    assert math.isnan(period)


def test_square_wave_peak_to_peak_and_period():
    # demand flipping between 100 and 300 kW every 15 min: period 30 min
    series = np.tile([100.0] * 3 + [300.0] * 3, 4)
    p2p, period = demand_oscillation(series, interval_minutes=5.0)
    assert p2p == 200.0
    assert period == 30.0


def test_mixed_sinusoids_report_the_larger_component():
    t = 5.0 * np.arange(24)
    series = 2.0 * np.sin(2 * np.pi * t / 60.0) + 1.0 * np.sin(2 * np.pi * t / 30.0)
    _, period = demand_oscillation(series, interval_minutes=5.0)
    assert period == 60.0


def test_peak_to_peak_is_translation_invariant():
    t = 5.0 * np.arange(24)
    series = 100.0 * np.sin(2 * np.pi * t / 40.0)
    a = demand_oscillation(series)
    b = demand_oscillation(series + 777.0)
    assert a == b


def test_oscillation_window_must_cover_four_intervals():
    with pytest.raises(ValueError):
        demand_oscillation(np.array([1.0, 2.0, 3.0]))


def _window_trace(demand, sync, interval_min):
    """The fields of a trace that compute_metrics reads."""
    n = len(demand)
    return SimpleNamespace(
        scenario=SimpleNamespace(market_interval_min=interval_min),
        n_intervals=n, time_min=np.arange(n) * interval_min,
        avg_demand_kw=demand, sync=sync, clearing_price=np.zeros(n),
        base_price=np.zeros(n), constrained=np.zeros(n, dtype=bool),
    )


@settings(max_examples=150, deadline=None)
@given(
    # window lengths 4, 6, 12, 24, 30, 48, 120, 240 and 1200 intervals:
    # above 128 elements the pairwise sums recurse
    interval_min=st.sampled_from([30.0, 20.0, 10.0, 5.0, 4.0, 2.5, 1.0, 0.5, 0.1]),
    horizon=st.sampled_from(["no window", "one window", "many windows"]),
    extra=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["noise", "whole kW", "flat runs", "constant"]),
    # windows per block of rows; None keeps the module's block size
    block_rows=st.sampled_from([None, 1, 3, 64]),
)
@example(interval_min=5.0, horizon="many windows", extra=264, seed=0, shape="flat runs",
         block_rows=None)
@example(interval_min=30.0, horizon="one window", extra=0, seed=0, shape="constant",
         block_rows=None)
@example(interval_min=0.1, horizon="many windows", extra=300, seed=0, shape="flat runs",
         block_rows=None)
def test_windows_match_the_per_window_oracle(
    interval_min, horizon, extra, seed, shape, block_rows
):
    w = window_intervals(interval_min)
    n = {"no window": extra % w, "one window": w, "many windows": w + 1 + extra}[horizon]
    rng = np.random.default_rng(seed)
    demand = {
        "noise": lambda: rng.normal(500.0, 80.0, n),
        "whole kW": lambda: np.round(rng.normal(500.0, 80.0, n)),
        # runs of up to w + 2 equal values, so some windows are flat
        "flat runs": lambda: np.repeat(rng.normal(500.0, 80.0, n), rng.integers(1, w + 3, n))[:n],
        "constant": lambda: np.full(n, 431.7),
    }[shape]()
    sync = rng.uniform(0.0, 1.0, n)
    block = metrics._BLOCK_ELEMENTS if block_rows is None else block_rows * w
    with mock.patch.object(metrics, "_BLOCK_ELEMENTS", block):
        report = compute_metrics(_window_trace(demand, sync, interval_min))
    windows = range(max(n - w + 1, 0))
    expected = np.array([demand_oscillation(demand[s : s + w], interval_min)
                         for s in windows]).reshape(-1, 2)
    assert report.n_windows == len(windows)
    assert report.window_p2p_kw.tobytes() == expected[:, 0].tobytes()
    assert report.window_period_min.tobytes() == expected[:, 1].tobytes()
    assert report.window_sync.tobytes() == np.array(
        [sync[s : s + w].mean() for s in windows]).tobytes()
    if shape == "constant":
        assert np.isnan(report.window_period_min).all()


def test_a_long_horizon_holds_a_bounded_block_of_windows():
    # 120-interval windows; holding every window at once would take about
    # 17 B per window element, 160 MB at 80,000 intervals
    rng = np.random.default_rng(5)
    for n in (20_000, 80_000):
        trace = _window_trace(rng.normal(500.0, 80.0, n), rng.uniform(0.0, 1.0, n), 1.0)
        tracemalloc.start()
        try:
            report = compute_metrics(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_windows == n - 119
        # the report's four arrays of about n values, and a few MB of block
        assert peak < 40 * n + 8e6


def test_a_window_longer_than_any_array_gives_no_windows():
    # 1e-300-min intervals make w = 2**62: no window fits
    report = compute_metrics(_window_trace(np.arange(3.0), np.zeros(3), 1e-300))
    assert window_intervals(1e-300) == 2**62
    assert (report.n_windows, report.max_p2p_kw, report.max_sync) == (0, 0.0, 0.0)
    assert report.window_period_min.shape == report.window_sync.shape == (0,)


# ------------------------------------------------------------ trace reports

@pytest.fixture(scope="module")
def small_trace():
    return run(Scenario(
        name="metrics-small",
        population=PopulationSpec(count=16),
        price_signal=PriceSignal.square(low=20.0, high=30.0, period_min=10.0),
        horizon_min=120.0,
        seed=4,
    ))


def test_report_shapes_and_scalars(small_trace):
    report = compute_metrics(small_trace)
    n = small_trace.n_intervals
    assert n == 24   # the 120-min horizon holds one 120-min window
    assert small_trace.sync.shape == (n,)
    assert small_trace.dispersion_degc.shape == (n,)
    assert np.all((small_trace.sync >= 0.0) & (small_trace.sync <= 1.0))
    assert np.all(small_trace.dispersion_degc >= 0.0)
    assert report.n_windows == n - 24 + 1 == 1
    assert np.array_equal(report.window_start_min, small_trace.time_min[: report.n_windows])
    assert report.feeder_hits == int(small_trace.constrained.sum())
    assert report.max_sync == small_trace.sync.max()
    assert report.max_p2p_kw == report.window_p2p_kw.max()
    assert np.array_equal(
        report.price_divergence, small_trace.clearing_price - small_trace.base_price
    )
    assert small_trace.subgroup_sync.shape == (0, small_trace.n_intervals)


def test_trace_carries_per_subgroup_sync():
    trace = run(Scenario(
        name="metrics-groups",
        population=PopulationSpec(count=16, subgroups=4),
        horizon_min=60.0,
        seed=4,
    ))
    assert trace.subgroup_sync.shape == (4, trace.n_intervals)
    assert np.all((trace.subgroup_sync >= 0.0) & (trace.subgroup_sync <= 1.0))
