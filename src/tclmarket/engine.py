"""Closed-loop simulation engine: physics steps nested in market intervals.

A scenario describes the population, the feeder limit, the base-price
schedule and the timing grid. The engine then repeats, per market
interval: predict bidding temperatures, form bids, build the demand
curve, clear against the feeder limit, freeze the dispatch flags, and
advance the thermostat/thermal physics through the interval at the fast
step h. Everything observable lands in a Trace.

Randomness is budgeted once per run from a root seed: child streams for
parameter draws, initial conditions, temperature noise and output
sampling are spawned in a fixed order, so any one consumer can be
reconfigured without disturbing the others and identical scenarios give
bit-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from . import metrics
from .bidding import bid_prices, predict_temperatures
from .market import build_demand_curve, clear
from .population import Population, aggregate_power, one_value
from .scenario import (
    PopulationSpec,
    PriceSignal,
    Scenario,
    ScenarioError,
    _subgroup_anchors,
    _subgroup_ranges,
)

__all__ = ["Trace", "generate_population", "run"]

#: Number of TCLs whose bid prices a Trace keeps in full (bids_sample.csv).
N_BID_SAMPLES = 20

#: Elements (steps x TCLs) of one block of physics-step records. run()
#: advances ``BLOCK_ELEMENTS // n`` steps (at least 1, at most one market
#: interval) into a block, then reduces the block's statistics at once. A
#: small block stays in cache; a larger one raised peak memory and slowed
#: the 10k- and 100k-load benchmark workloads.
BLOCK_ELEMENTS = 2**15


def price_signal_value(
    signal: PriceSignal,
    interval_index: int,
    interval_minutes: float = 5.0,
    n_intervals: Optional[int] = None,
) -> float:
    """Base price of one market interval, by the exact rules of :meth:`Scenario.plan`.

    run() does not call it; ``bench/worker.py`` wraps the name to time it.
    """
    if interval_index < 0 or (n_intervals is not None and interval_index >= n_intervals):
        raise IndexError(f"interval {interval_index} outside the horizon")
    errs = signal.violations(interval_minutes, interval_index + 1)
    if errs:
        raise IndexError("; ".join(errs))
    return float(signal.level_of(interval_minutes)(interval_index))


# --------------------------------------------------------------------------
# Population generation


def _seed_children(seed: int) -> list[np.random.SeedSequence]:
    """Fixed spawn order: params, initial state, noise, output sampling."""
    return np.random.SeedSequence(seed).spawn(4)


def generate_population(spec: PopulationSpec, seed: int) -> Population:
    """Draw a population from the configured distributions, deterministically.

    Every distribution consumes its draws whether or not its width is zero,
    so narrowing one parameter never reshuffles the others. A parameter
    with one value for every TCL (``deadband``, ``noise_std``, and any draw
    of width zero) is a read-only zero-stride view of that value rather
    than n copies of it: each draw passes through
    :func:`~tclmarket.population.one_value` as soon as it is made.
    """
    errs = spec.violations()
    if errs:
        raise ScenarioError("; ".join(errs))
    params_seed, init_seed = _seed_children(seed)[:2]
    g = np.random.default_rng(params_seed)
    n = spec.count

    C = one_value(spec.c_mean * (1.0 + spec.c_rel_width * g.uniform(-1.0, 1.0, n)))
    R = one_value(spec.r_mean * (1.0 + spec.r_rel_width * g.uniform(-1.0, 1.0, n)))
    P = one_value(spec.p_mean * (1.0 + spec.p_rel_width * g.uniform(-1.0, 1.0, n)))
    eta = one_value(spec.eta_mean * (1.0 + spec.eta_rel_width * g.uniform(-1.0, 1.0, n)))
    theta_set = one_value(spec.theta_set_mean + spec.theta_set_width * g.uniform(-1.0, 1.0, n))

    if spec.subgroups == 1:
        p0 = one_value(g.uniform(spec.p0_range[0], spec.p0_range[1], n))
        p_cap = one_value(g.uniform(spec.p_cap_range[0], spec.p_cap_range[1], n))
        gamma1 = one_value(g.uniform(spec.gamma_range[0], spec.gamma_range[1], n))
        gamma2 = one_value(g.uniform(spec.gamma_range[0], spec.gamma_range[1], n))
    else:
        K = spec.subgroups
        groups, edges = _subgroup_ranges(n, K)
        sizes = np.diff(edges)
        w = spec.subgroup_rel_width

        def group_values(value_range: tuple[float, float]) -> np.ndarray:
            anchors = np.repeat(_subgroup_anchors(value_range, groups, K), sizes)
            return one_value(anchors * (1.0 + w * g.uniform(-1.0, 1.0, n)))

        p0 = group_values(spec.p0_range)
        p_cap = group_values(spec.p_cap_range)
        gamma1 = gamma2 = group_values(spec.gamma_range)   # parameters are immutable

    g_init = np.random.default_rng(init_seed)
    theta0 = g_init.uniform(theta_set - spec.deadband / 2.0, theta_set + spec.deadband / 2.0)
    # P*R is finite, so a difference or a quotient past float64 means a true
    # duty above 1, and the clip gives the exact 1.0
    with np.errstate(over="ignore"):
        duty = np.clip((spec.theta_ambient - theta_set) / (P * R), 0.0, 1.0)
    m0 = (g_init.uniform(0.0, 1.0, n) < duty).astype(np.int8)
    del duty   # not held through the constructor's checks, where the draw peaks
    return Population(
        C=C,
        R=R,
        P=P,
        eta=eta,
        theta_set=theta_set,
        deadband=np.broadcast_to(np.float64(spec.deadband), n),
        p0=p0,
        p_cap=p_cap,
        gamma1=gamma1,
        gamma2=gamma2,
        noise_std=np.broadcast_to(np.float64(spec.noise_std), n),
        theta=theta0,
        m=m0,
        v=np.ones(n, dtype=np.int8),
        theta_ambient=spec.theta_ambient,
    )


# --------------------------------------------------------------------------
# Trace


@dataclass
class Trace:
    """Everything a run records.

    Per market interval: prices, cleared/base demand, the interval-average
    realized demand, the dispatched count, the min/mean/max of the bid
    prices, the bid prices of a fixed sample of TCLs (``bid_sample[t, j]``
    is the bid of TCL ``bid_sample_ids[j]``; at most ``N_BID_SAMPLES`` of
    them, drawn from the output-sampling seed stream), and the
    synchronization statistics of the end-of-interval state: ``sync``
    (:func:`~tclmarket.metrics.sync_index` of the whole population),
    ``dispersion_degc`` (:func:`~tclmarket.metrics.temperature_dispersion`)
    and ``subgroup_sync[j, t]`` (the sync index of the j-th subgroup that
    holds a TCL, in ascending order: one contiguous range of TCL ids, from
    :func:`_subgroup_ranges`; k x T, with k = 0 for a scenario without
    subgroups). Per physics step k: instantaneous aggregate power, consuming
    fraction and temperature summary, four float64 series (32 B per step).
    No record repeats the step's end time, ``(k + 1) * h_seconds / 60.0``
    min, which the scenario's grid gives. ``population`` carries the final
    state, the per-TCL parameter arrays and the capacity. Only
    ``subgroup_sync`` can grow with TCLs times intervals: its k = min(n, K)
    rows for K subgroups reach one per TCL when K >= n. Every other record
    grows with n or with T alone, so a trace takes O(n + (k + 1)*T) memory.

    Each record lives only here: :func:`run` allocates every array before
    its first interval and writes each interval's and each block's values
    straight into it. No two record arrays share memory, and none
    shares memory with the population's state; a
    :class:`~tclmarket.metrics.MetricsReport` holds only what it derives
    from them.
    """

    scenario: Scenario
    population: Population
    feeder_limit_kw: float
    time_min: np.ndarray
    base_price: np.ndarray
    clearing_price: np.ndarray
    cleared_demand_kw: np.ndarray
    base_demand_kw: np.ndarray
    constrained: np.ndarray
    avg_demand_kw: np.ndarray
    n_dispatched: np.ndarray
    step_power_kw: np.ndarray
    step_on_fraction: np.ndarray
    step_theta_mean: np.ndarray
    step_theta_std: np.ndarray
    bid_price_min: np.ndarray
    bid_price_mean: np.ndarray
    bid_price_max: np.ndarray
    bid_sample_ids: np.ndarray
    bid_sample: np.ndarray
    sync: np.ndarray
    dispersion_degc: np.ndarray
    subgroup_sync: np.ndarray

    @property
    def n_intervals(self) -> int:
        return len(self.time_min)


def _exact_mean(values: list[float]) -> float:
    """Correctly rounded arithmetic mean (exact rational accumulation).

    Every float is a fraction with a power-of-two denominator, so the
    numerators are summed over the largest of those denominators as one
    Python integer, and one integer division rounds the mean.
    """
    ratios = [x.as_integer_ratio() for x in values]
    denominator = max(d for _, d in ratios)
    total = sum(num * (denominator // d) for num, d in ratios)
    return total / (denominator * len(values))


def _row_counts(block: np.ndarray) -> np.ndarray:
    """The number of True values in each row of a boolean block.

    Each row is whole 8-byte words, zero past its values (run() pads its
    consuming block so): one popcount per word, then one sum per row.
    """
    return np.bitwise_count(block.view(np.uint64)).sum(axis=1)


# --------------------------------------------------------------------------
# The run loop


def run(scenario: Scenario) -> Trace:
    """Simulate a scenario end to end; deterministic given the seed.

    Every count and base price comes from :meth:`Scenario.plan`: bids
    predict ``plan.lookahead_steps`` steps ahead, and interval t clears at
    base price ``plan.base_price[t]``. The physics and the recorded times
    use the float ``h_seconds`` and ``market_interval_min``.

    Within a market interval the dispatch is fixed, so the physics steps
    run in blocks of B = min(steps per interval, BLOCK_ELEMENTS // n)
    steps (at least 1). Each step writes its theta and switches into one
    row each of a B x n theta block and a B x n m block (the population's
    m lives in the m block's last row from the start). After the block,
    its consuming rows ``m & v`` are formed in one call, into a block
    zero-padded to whole 8-byte words, and counted with one popcount per
    word. Every per-step statistic of the block's rows is then computed at
    once (the exact total of P/eta over each consuming row, given its
    count; the counts over n for the on-fraction; row reductions for the
    theta mean and std), equal bit for bit to computing them step by
    step. The noise of a block is one B x n draw, the same numbers as B
    draws of n. Raises ScenarioError at the first step whose theta std is
    not finite. That test alone decides: a step power is an exact total of
    finite values, so it is always finite, and a theta mean that is not
    finite makes the std not finite either.

    Each interval clears once: :func:`clear` of the bids' demand curve over
    the population's limb table, which sorts the bids above the base price
    only when the exact demand there exceeds the feeder limit. The
    population's capacity is its limb table's one sum. The sync index of
    the whole population and of each subgroup comes from one
    :func:`~tclmarket.metrics.sync_index` call per interval, over one
    phasor array.

    The returned :class:`Trace` is allocated before the first interval, and
    every record is written into it where it is computed.
    """
    plan = scenario.plan()
    pop = generate_population(scenario.population, scenario.seed)
    if scenario.feeder_limit_kw is not None:
        feeder_limit = float(scenario.feeder_limit_kw)
    else:
        feeder_limit = scenario.feeder_fraction * pop.capacity_kw

    n_intervals = plan.n_intervals
    steps_per = plan.steps_per_interval
    h = scenario.h_seconds
    n = pop.size

    noise_seed, sample_seed = _seed_children(scenario.seed)[2:]
    noise_rng = None
    if np.any(pop.noise_std > 0):
        noise_rng = np.random.default_rng(noise_seed)

    n_steps = n_intervals * steps_per
    sample_rng = np.random.default_rng(sample_seed)
    n_samples = min(N_BID_SAMPLES, n)
    # one phasor array per interval: the whole population, then each subgroup
    K = scenario.population.subgroups
    edges = _subgroup_ranges(n, K)[1].tolist() if K > 1 else []
    slices = [(0, n), *zip(edges[:-1], edges[1:])]
    trace = Trace(
        scenario=scenario,
        population=pop,
        feeder_limit_kw=feeder_limit,
        time_min=np.arange(n_intervals) * scenario.market_interval_min,
        base_price=plan.base_price.copy(),
        clearing_price=np.empty(n_intervals),
        cleared_demand_kw=np.empty(n_intervals),
        base_demand_kw=np.empty(n_intervals),
        constrained=np.zeros(n_intervals, dtype=bool),
        avg_demand_kw=np.empty(n_intervals),
        n_dispatched=np.empty(n_intervals, dtype=np.int64),
        step_power_kw=np.empty(n_steps),
        step_on_fraction=np.empty(n_steps),
        step_theta_mean=np.empty(n_steps),
        step_theta_std=np.empty(n_steps),
        bid_price_min=np.empty(n_intervals),
        bid_price_mean=np.empty(n_intervals),
        bid_price_max=np.empty(n_intervals),
        bid_sample_ids=np.sort(sample_rng.choice(n, size=n_samples, replace=False)),
        bid_sample=np.empty((n_intervals, n_samples)),
        sync=np.empty(n_intervals),
        dispersion_degc=np.empty(n_intervals),
        subgroup_sync=np.empty((len(slices) - 1, n_intervals)),
    )
    block = min(steps_per, max(1, BLOCK_ELEMENTS // n))
    theta_block = np.empty((block, n))
    # the population's switches move into the last row, so the block adds block - 1 rows
    m_block = np.empty((block, n), dtype=bool)
    m_block[-1] = pop.m
    pop.m = m_block[-1]
    # zero-padded to whole 8-byte words, so each row's count is one popcount per word
    consuming_block = np.zeros((block, -(-n // 8) * 8), dtype=bool)

    for t in range(n_intervals):
        # The predicted temperatures and the demand curve are never bound to a
        # name: each is freed after its one use, not kept into the next interval.
        prices = bid_prices(pop, predict_temperatures(pop, plan.lookahead_steps, h))
        # Every bid offers its load's P/eta: the curve sums on the population's table.
        result = clear(
            build_demand_curve(prices, pop.power_limbs), float(plan.base_price[t]),
            feeder_limit, scenario.price_tick,
        )
        pop.set_dispatch(prices, result.clearing_price)
        trace.bid_price_min[t] = prices.min()
        trace.bid_price_mean[t] = prices.sum() / n   # as prices.mean(), without its wrapper
        trace.bid_price_max[t] = prices.max()
        trace.bid_sample[t] = prices[trace.bid_sample_ids]
        del prices   # not kept through the physics and the next prediction

        first = t * steps_per
        # An overflow reaches the finiteness check below as a value.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(first, first + steps_per, block):
                b = min(block, first + steps_per - start)
                noise = None
                if noise_rng is not None:
                    noise = noise_rng.standard_normal((b, n))
                    noise *= pop.noise_std
                # Step j reads row j-1 (or the previous block's last row) and
                # writes row j, so no row is overwritten before it is read.
                for theta_row, m_row, noise_row in zip(
                    theta_block[:b], m_block[:b], repeat(None) if noise is None else noise
                ):
                    pop.step_physics(h, noise_row, theta_row, m_row)
                stepped = slice(start, start + b)
                consuming = np.logical_and(m_block[:b], pop.v, consuming_block[:b, :n])
                counts = _row_counts(consuming_block[:b])
                trace.step_power_kw[stepped] = aggregate_power(pop, consuming, counts)
                # exact counts below 2**53: each quotient rounds once, as count / n
                np.divide(counts, n, out=trace.step_on_fraction[stepped])
                trace.step_theta_mean[stepped], trace.step_theta_std[stepped] = metrics.mean_std(
                    theta_block[:b]
                )
        rows = slice(first, first + steps_per)
        finite = np.isfinite(trace.step_theta_std[rows])   # alone decides: see the docstring
        if not finite.all():
            k = first + int(np.argmin(finite))
            raise ScenarioError(
                f"physics step {k} (t={(k + 1) * h / 60.0:g} min) left the finite range: "
                f"power {float(trace.step_power_kw[k])} kW, "
                f"theta mean {float(trace.step_theta_mean[k])} degC, "
                f"theta std {float(trace.step_theta_std[k])} degC; the scenario's "
                "values are too large to simulate"
            )

        trace.clearing_price[t] = result.clearing_price
        trace.cleared_demand_kw[t] = result.cleared_demand
        trace.base_demand_kw[t] = result.base_demand
        trace.constrained[t] = result.constrained
        trace.avg_demand_kw[t] = _exact_mean(trace.step_power_kw[rows].tolist())
        trace.n_dispatched[t] = np.count_nonzero(pop.v)
        trace.sync[t], *trace.subgroup_sync[:, t] = metrics.sync_index(
            pop.theta, pop.m, pop.theta_min, pop.theta_max, slices
        )
        trace.dispersion_degc[t] = metrics.temperature_dispersion(pop.theta, pop.theta_set)

    pop.theta, pop.m = pop.theta.copy(), pop.m.copy()   # rows of the blocks until now
    return trace
