"""Phase mapping, synchronization index, and oscillation summaries."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tclmarket.engine import run
from tclmarket.metrics import (
    compute_metrics,
    cycle_phases,
    demand_oscillation,
    mean_std,
    sync_index,
    temperature_dispersion,
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
    theta, lo, hi = (np.array(column) for column in zip(*rows))
    x = np.clip((theta - lo) / (hi - lo), 0.0, 1.0)
    # the cases the remainder changed: 2*pi on the cooling leg (x = 0, and x
    # so small that 2 - x rounds to 2), and -0.0 on the warming leg
    assert (np.pi * (2.0 - x) == 2.0 * np.pi).sum() >= 4
    assert np.signbit(np.pi * x).any()
    for m in (np.zeros(len(rows), dtype=bool), np.ones(len(rows), dtype=bool),
              np.arange(len(rows)) % 2, np.arange(len(rows)) % 2 == 1):
        expected = _phases_oracle(theta, m, lo, hi)
        assert cycle_phases(theta, m, lo, hi).tobytes() == expected.tobytes()
        # one band shared by every load, as zero-stride views of its edges
        for band in set(zip(lo.tolist(), hi.tolist())):
            rows_of = (lo == band[0]) & (hi == band[1])
            views = (np.broadcast_to(edge, rows_of.sum()) for edge in band)
            got = cycle_phases(theta[rows_of], m[rows_of], *views)
            assert got.tobytes() == expected[rows_of].tobytes()


# --------------------------------------------------------------- sync index

def lo(n):
    return np.full(n, 19.75)


def hi(n):
    return np.full(n, 20.25)


def test_identical_population_is_fully_synchronized():
    theta = np.full(10, 20.1)
    m = np.ones(10, dtype=int)
    assert sync_index(theta, m, lo(10), hi(10)) == 1.0


def test_quadrature_phases_cancel():
    # phases 0, pi/2, pi, 3*pi/2
    theta = np.array([19.75, 20.0, 20.25, 20.0])
    m = np.array([0, 0, 0, 1])
    assert sync_index(theta, m, lo(4), hi(4)) == pytest.approx(0.0, abs=1e-12)


def test_two_coherent_groups_in_antiphase_cancel():
    # ten devices at pi/4 against ten at 5*pi/4
    theta = np.concatenate([np.full(10, 19.875), np.full(10, 20.125)])
    m = np.array([0] * 10 + [1] * 10)
    assert sync_index(theta, m, lo(20), hi(20)) == pytest.approx(0.0, abs=1e-12)


def test_sync_index_invariant_under_relabeling():
    rng = np.random.default_rng(0)
    theta = rng.uniform(19.75, 20.25, 30)
    m = rng.integers(0, 2, 30)
    base = sync_index(theta, m, lo(30), hi(30))
    perm = rng.permutation(30)
    assert sync_index(theta[perm], m[perm], lo(30), hi(30)) == pytest.approx(base)


def test_adding_a_device_at_the_common_phase_keeps_unity():
    theta = np.full(5, 19.9)
    m = np.zeros(5, dtype=int)
    assert sync_index(theta, m, lo(5), hi(5)) == 1.0
    theta2 = np.append(theta, 19.9)
    m2 = np.append(m, 0)
    assert sync_index(theta2, m2, lo(6), hi(6)) == 1.0


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
    assert sync_index(theta, m, theta_min, theta_max) == expected
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
    expected = [sync_index(theta, m, theta_min, theta_max)] + [
        sync_index(theta[labels == g], m[labels == g],
                   theta_min[labels == g], theta_max[labels == g])
        for g in groups
    ]
    assert sync_index(theta, m, theta_min, theta_max, [(0, n)] + slices) == expected


def test_sync_index_allocates_only_the_phasors(traced_peak):
    n = 100_000
    rng = np.random.default_rng(5)
    theta, m = rng.uniform(19.5, 20.5, n), rng.integers(0, 2, n).astype(bool)
    theta_min, theta_max = lo(n), hi(n)
    _, peak = traced_peak(lambda: sync_index(theta, m, theta_min, theta_max))
    # 16 B per load of complex phasors and 8 of phases (measured 24.0 B per
    # load; the phasors from 1j * phases took 40)
    assert peak <= 25 * n


def test_sync_index_rejects_empty_population():
    with pytest.raises(ValueError):
        sync_index(np.array([]), np.array([]), np.array([]), np.array([]))


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
    assert small_trace.subgroup_sync is None


def test_trace_carries_per_subgroup_sync():
    trace = run(Scenario(
        name="metrics-groups",
        population=PopulationSpec(count=16, subgroups=4),
        horizon_min=60.0,
        seed=4,
    ))
    assert trace.subgroup_sync is not None
    assert trace.subgroup_sync.shape == (4, trace.n_intervals)
    assert np.all((trace.subgroup_sync >= 0.0) & (trace.subgroup_sync <= 1.0))
