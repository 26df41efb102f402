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

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import metrics
from .bidding import bid_prices, predict_temperatures
from .market import DEFAULT_PRICE_TICK, ClearingResult, build_demand_curve, clear
from .population import Population, aggregate_power

__all__ = [
    "ScenarioError",
    "PriceSignal",
    "PopulationSpec",
    "Scenario",
    "Trace",
    "price_signal_value",
    "generate_population",
    "run",
]

#: Number of TCLs whose bid prices a Trace keeps in full (bids_sample.csv).
N_BID_SAMPLES = 20

#: Elements (steps x TCLs) of one block of physics-step records. run()
#: advances ``BLOCK_ELEMENTS // n`` steps (at least 1, at most one market
#: interval) into a block, then reduces the block's statistics at once. A
#: small block stays in cache; a larger one raised peak memory and slowed
#: the 10k- and 100k-load benchmark workloads.
BLOCK_ELEMENTS = 2**15


class ScenarioError(ValueError):
    """Raised for configuration problems: before any simulation starts, or
    when a run's physics steps leave the finite range of float64."""


# --------------------------------------------------------------------------
# Price signals


@dataclass(frozen=True)
class PriceSignal:
    """Base-price schedule, one of four kinds.

    constant: fixed ``level`` forever.
    step:     piecewise-constant ``schedule`` of (time_min, level) pairs,
              first entry at time 0, levels holding until the next change.
    square:   alternates ``low``/``high`` with period ``period_min``;
              ``offset_min`` shifts the phase (value is low while
              (t + offset) mod period < period/2, starting at t=0).
    series:   explicit per-interval ``values``.

    All levels are $/MWh and must be >= 0 (NaN is not a price).
    """

    kind: str
    level: Optional[float] = None
    schedule: Optional[tuple[tuple[float, float], ...]] = None
    low: Optional[float] = None
    high: Optional[float] = None
    period_min: Optional[float] = None
    offset_min: float = 0.0
    values: Optional[tuple[float, ...]] = None

    KINDS = ("constant", "step", "square", "series")

    @staticmethod
    def constant(level: float) -> "PriceSignal":
        return PriceSignal(kind="constant", level=level)

    @staticmethod
    def step(schedule) -> "PriceSignal":
        return PriceSignal(
            kind="step", schedule=tuple((float(t), float(p)) for t, p in schedule)
        )

    @staticmethod
    def square(low: float, high: float, period_min: float, offset_min: float = 0.0) -> "PriceSignal":
        return PriceSignal(
            kind="square", low=low, high=high, period_min=period_min, offset_min=offset_min
        )

    @staticmethod
    def series(values) -> "PriceSignal":
        return PriceSignal(kind="series", values=tuple(float(v) for v in values))

    def violations(self, interval_minutes: float, n_intervals: int) -> list[str]:
        """All configuration problems with this signal (empty list = valid)."""
        errs: list[str] = []
        if self.kind not in self.KINDS:
            return [f"price_signal.kind must be one of {self.KINDS}, got {self.kind!r}"]
        if self.kind == "constant":
            if not (_is_real(self.level) and self.level >= 0):
                errs.append("price_signal.level must be a price >= 0")
        elif self.kind == "step":
            if not self.schedule:
                errs.append("price_signal.schedule must be non-empty")
            elif not (_is_sequence(self.schedule) and all(
                _is_sequence(pair) and len(pair) == 2 and all(map(_is_real, pair))
                for pair in self.schedule
            )):
                errs.append("price_signal.schedule must be a list of [time_min, level] pairs")
            else:
                times = [t for t, _ in self.schedule]
                if times[0] != 0:
                    errs.append("price_signal.schedule must start at time 0")
                if any(b <= a for a, b in zip(times, times[1:])):
                    errs.append("price_signal.schedule times must strictly increase")
                if not all(p >= 0 for _, p in self.schedule):
                    errs.append("price_signal.schedule levels must be >= 0")
                if any(t % interval_minutes != 0 for t in times):
                    errs.append(
                        "price_signal.schedule change times must fall on "
                        f"market-interval boundaries ({interval_minutes} min)"
                    )
        elif self.kind == "square":
            if not (_is_real(self.low) and _is_real(self.high)
                    and self.low >= 0 and self.high >= 0):
                errs.append("price_signal.low/high must be prices >= 0")
            if not (_is_real(self.period_min) and self.period_min > 0):
                errs.append("price_signal.period_min must be > 0")
            elif (self.period_min / 2.0) % interval_minutes != 0:
                errs.append(
                    "price_signal.period_min/2 must be a whole number of "
                    "market intervals so flips land on boundaries"
                )
            if not (_is_real(self.offset_min) and self.offset_min % interval_minutes == 0):
                errs.append("price_signal.offset_min must be a whole number of market intervals")
        elif self.kind == "series":
            if not self.values:
                errs.append("price_signal.values must be non-empty")
            elif not _is_sequence(self.values):
                errs.append("price_signal.values must be a list of prices")
            else:
                if len(self.values) < n_intervals:
                    errs.append(
                        f"price_signal.values covers {len(self.values)} intervals "
                        f"but the horizon has {n_intervals}"
                    )
                if not all(_is_real(v) and v >= 0 for v in self.values):
                    errs.append("price_signal.values must all be >= 0")
        return errs


def price_signal_value(
    signal: PriceSignal,
    interval_index: int,
    interval_minutes: float = 5.0,
    n_intervals: Optional[int] = None,
) -> float:
    """Base price for one market interval, evaluated at the interval start."""
    if interval_index < 0 or (n_intervals is not None and interval_index >= n_intervals):
        raise IndexError(f"interval {interval_index} outside the horizon")
    t = interval_index * interval_minutes
    if signal.kind == "constant":
        return float(signal.level)
    if signal.kind == "step":
        level = signal.schedule[0][1]
        for change_time, new_level in signal.schedule:
            if change_time <= t:
                level = new_level
            else:
                break
        return float(level)
    if signal.kind == "square":
        phase = (t + signal.offset_min) % signal.period_min
        return float(signal.low if phase < signal.period_min / 2.0 else signal.high)
    if signal.kind == "series":
        if interval_index >= len(signal.values):
            raise IndexError(
                f"interval {interval_index} beyond the configured series "
                f"({len(signal.values)} values)"
            )
        return float(signal.values[interval_index])
    raise ScenarioError(f"unknown price signal kind {signal.kind!r}")


# --------------------------------------------------------------------------
# Scenario configuration


@dataclass(frozen=True)
class PopulationSpec:
    """Population size and parameter distributions.

    Physical parameters draw uniformly as mean*(1 ± rel_width); set-points
    draw uniformly within ±theta_set_width degC (absolute). Bid-curve
    parameters draw uniformly over their ranges when subgroups == 1; with
    K >= 2 subgroups each group gets one anchor bid curve (anchors spread
    evenly across the ranges) and members jitter within ±subgroup_rel_width
    relative — width 0 gives exactly K distinct curves.
    """

    count: int = 1000
    theta_ambient: float = 32.0
    c_mean: float = 10.0
    c_rel_width: float = 0.10
    r_mean: float = 2.0
    r_rel_width: float = 0.0
    p_mean: float = 14.0
    p_rel_width: float = 0.0
    eta_mean: float = 2.5
    eta_rel_width: float = 0.0
    theta_set_mean: float = 20.0
    theta_set_width: float = 0.0
    deadband: float = 0.5
    p0_range: tuple[float, float] = (20.5, 23.5)
    p_cap_range: tuple[float, float] = (30.0, 40.0)
    gamma_range: tuple[float, float] = (10.0, 30.0)
    noise_std: float = 0.0
    subgroups: int = 1
    subgroup_rel_width: float = 0.02

    def violations(self) -> list[str]:
        """All configuration problems with this spec (empty list = valid)."""
        pairs = ("p0_range", "p_cap_range", "gamma_range")
        integers = ("count", "subgroups")
        reals = [f.name for f in fields(self) if f.name not in pairs + integers]
        malformed = _malformed(self, "population.", reals, integers, pairs)
        errs = list(malformed.values())

        def ok(*names: str) -> bool:
            return malformed.keys().isdisjoint(names)

        if ok("count") and not self.count >= 1:
            errs.append("population.count must be >= 1")
        for name in ("c", "r", "p", "eta"):
            mean, width = f"{name}_mean", f"{name}_rel_width"
            if ok(mean) and not getattr(self, mean) > 0:
                errs.append(f"population.{mean} must be finite and > 0")
            if ok(width) and not 0 <= getattr(self, width) < 1:
                errs.append(f"population.{width} must be in [0, 1)")
        if ok("theta_set_width") and not self.theta_set_width >= 0:
            errs.append("population.theta_set_width must be >= 0")
        if ok("deadband") and not self.deadband > 0:
            errs.append("population.deadband must be > 0")
        if ok("theta_ambient", "theta_set_mean", "theta_set_width") and not (
            self.theta_ambient > self.theta_set_mean + self.theta_set_width
        ):
            errs.append(
                "population.theta_ambient must exceed every possible set-point "
                "(cooling-load regime)"
            )
        for rng_name in pairs:
            if ok(rng_name):
                lo, hi = getattr(self, rng_name)
                if not 0 <= lo <= hi:
                    errs.append(f"population.{rng_name} must satisfy 0 <= low <= high")
        if ok("p0_range", "p_cap_range") and not self.p0_range[1] <= self.p_cap_range[0]:
            errs.append(
                "population.p0_range must sit at or below p_cap_range "
                "(every draw needs p0 <= p_cap)"
            )
        if ok("noise_std") and not self.noise_std >= 0:
            errs.append("population.noise_std must be finite and >= 0")
        if ok("subgroups") and not self.subgroups >= 1:
            errs.append("population.subgroups must be >= 1")
        if ok("subgroup_rel_width") and not 0 <= self.subgroup_rel_width < 1:
            errs.append("population.subgroup_rel_width must be in [0, 1)")
        elif (
            ok("subgroups", "count", "subgroup_rel_width", "p0_range", "p_cap_range")
            and self.subgroups >= 2 and self.count >= 1
        ):
            # Members jitter their group's anchor p0 and p_cap by up to ±w
            # relative, so p0 <= p_cap needs p0_anchor*(1+w) <= p_cap_anchor*
            # (1-w) in every group that is drawn (all K unless K > count).
            K, n, w = self.subgroups, self.count, self.subgroup_rel_width
            groups = np.arange(K) if K <= n else np.unique(_subgroup_labels(n, K))
            p0_anchor = _subgroup_anchors(self.p0_range, groups, K)
            cap_anchor = _subgroup_anchors(self.p_cap_range, groups, K)
            clash = np.flatnonzero(p0_anchor * (1.0 + w) > cap_anchor * (1.0 - w))
            if len(clash):
                g = clash[0]
                errs.append(
                    f"population.subgroup_rel_width {w} lets p0 exceed p_cap in "
                    f"{len(clash)} of {len(groups)} subgroups (first: subgroup "
                    f"{groups[g]}, p0 anchor {p0_anchor[g]:.6g}*(1+w) > "
                    f"p_cap anchor {cap_anchor[g]:.6g}*(1-w))"
                )
        # Reject parameter draws that could stall a thermostat outright.
        if ok("p_mean", "p_rel_width", "r_mean", "r_rel_width", "deadband"):
            gain_min = (
                self.p_mean * (1 - self.p_rel_width) * self.r_mean * (1 - self.r_rel_width)
            )
            if not gain_min > self.deadband:
                errs.append(
                    "population: smallest possible P*R must exceed the deadband "
                    f"(got {gain_min:.3f} <= {self.deadband})"
                )
        # Reject parameter draws whose sums or thermal terms overflow.
        if ok("count", "p_mean", "p_rel_width", "eta_mean", "eta_rel_width"):
            p_max = self.p_mean * (1 + self.p_rel_width)
            eta_min = self.eta_mean * (1 - self.eta_rel_width)
            if not (eta_min > 0 and self.count * p_max / eta_min < math.inf):
                errs.append(
                    "population: largest possible capacity count*P/eta must be finite"
                )
        if ok("p_mean", "p_rel_width", "r_mean", "r_rel_width") and not (
            self.p_mean * (1 + self.p_rel_width) * self.r_mean * (1 + self.r_rel_width)
            < math.inf
        ):
            errs.append("population: largest possible P*R must be finite")
        return errs


@dataclass(frozen=True)
class Scenario:
    """Complete experiment configuration.

    The feeder limit is either an absolute kW value (``feeder_limit_kw``)
    or, when that is None, ``feeder_fraction`` of the realized population
    capacity sum(P/eta).
    """

    name: str = "custom"
    population: PopulationSpec = field(default_factory=PopulationSpec)
    price_signal: PriceSignal = field(default_factory=lambda: PriceSignal.constant(25.0))
    horizon_min: float = 1440.0
    market_interval_min: float = 5.0
    h_seconds: float = 10.0
    lookahead_s: float = 150.0
    feeder_limit_kw: Optional[float] = None
    feeder_fraction: float = 0.70
    seed: int = 0
    price_tick: float = DEFAULT_PRICE_TICK

    @property
    def n_intervals(self) -> int:
        return int(round(self.horizon_min / self.market_interval_min))

    @property
    def steps_per_interval(self) -> int:
        return int(round(self.market_interval_min * 60.0 / self.h_seconds))

    def validate(self) -> list[str]:
        """Check every invariant; returns all violations, not just the first."""
        reals = ("horizon_min", "market_interval_min", "h_seconds", "lookahead_s",
                 "feeder_fraction", "price_tick")
        if self.feeder_limit_kw is not None:
            reals += ("feeder_limit_kw",)
        malformed = _malformed(self, "", reals, integers=("seed",))
        errs = list(malformed.values())

        def ok(*names: str) -> bool:
            return malformed.keys().isdisjoint(names)

        if ok("h_seconds") and not self.h_seconds > 0:
            errs.append("h_seconds must be > 0")
        if ok("market_interval_min") and not self.market_interval_min > 0:
            errs.append("market_interval_min must be > 0")
        elif ok("market_interval_min", "h_seconds") and self.h_seconds > 0:
            if not _whole_count(self.market_interval_min * 60.0 / self.h_seconds):
                errs.append(
                    f"market_interval_min ({self.market_interval_min} min) must be "
                    f"a whole number of physics steps (h={self.h_seconds} s)"
                )
        intervals = None
        if ok("horizon_min") and not self.horizon_min > 0:
            errs.append("horizon_min must be > 0")
        elif ok("horizon_min", "market_interval_min") and self.market_interval_min > 0:
            intervals = self.horizon_min / self.market_interval_min
            if not _whole_count(intervals):
                errs.append(
                    f"horizon_min ({self.horizon_min}) must be a whole number of "
                    f"market intervals ({self.market_interval_min} min)"
                )
        if ok("feeder_limit_kw") and self.feeder_limit_kw is not None and not (
            self.feeder_limit_kw > 0
        ):
            errs.append("feeder_limit_kw must be > 0")
        if ok("feeder_fraction") and self.feeder_limit_kw is None and not (
            self.feeder_fraction > 0
        ):
            errs.append("feeder_fraction must be > 0 when no absolute limit is given")
        if ok("lookahead_s") and not self.lookahead_s >= 0:
            errs.append("lookahead_s must be >= 0")
        elif ok("lookahead_s", "h_seconds") and self.h_seconds > 0:
            k = self.lookahead_s / self.h_seconds
            if not (math.isfinite(k) and abs(k - round(k)) <= 1e-9):
                errs.append(
                    f"lookahead_s ({self.lookahead_s}) must be an integer multiple "
                    f"of h_seconds ({self.h_seconds})"
                )
        if ok("price_tick") and not self.price_tick > 0:
            errs.append("price_tick must be > 0")
        if ok("seed") and not self.seed >= 0:
            errs.append("seed must be >= 0")
        errs.extend(self.population.violations())
        if intervals is not None and math.isfinite(intervals):
            errs.extend(
                self.price_signal.violations(self.market_interval_min, self.n_intervals)
            )
        return errs

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        d["population"] = {k: v for k, v in d["population"].items()}
        signal = {k: v for k, v in d["price_signal"].items() if v is not None}
        signal.pop("offset_min", None)
        if self.price_signal.kind == "square":
            signal["offset_min"] = self.price_signal.offset_min
        d["price_signal"] = signal
        return d

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_dict(d: dict) -> "Scenario":
        if not isinstance(d, dict):
            raise ScenarioError("scenario must be a JSON object")
        d = dict(d)
        pop_d = d.pop("population", {})
        sig_d = d.pop("price_signal", None)
        population = _dataclass_from_dict(PopulationSpec, pop_d, "population")
        if sig_d is None:
            signal = PriceSignal.constant(25.0)
        else:
            signal = _dataclass_from_dict(PriceSignal, sig_d, "price_signal")
        scenario = _dataclass_from_dict(
            Scenario, d, "scenario", population=population, price_signal=signal
        )
        return scenario

    @staticmethod
    def from_json(text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"scenario file is not valid JSON: {exc.msg} "
                f"(line {exc.lineno}, column {exc.colno})"
            ) from exc
        return Scenario.from_dict(data)


def _is_real(x) -> bool:
    """A real number; a bool (JSON true/false) does not count as one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    """A finite real number; an int too large for a float is not finite."""
    try:
        return _is_real(x) and math.isfinite(x)
    except OverflowError:
        return False


def _is_sequence(x) -> bool:
    """A JSON array: a tuple, or a list built in Python."""
    return isinstance(x, (tuple, list))


def _malformed(obj, where: str, reals=(), integers=(), pairs=()) -> dict[str, str]:
    """The fields of ``obj`` that hold the wrong kind of value, with messages.

    A real field must hold a finite real number, an integer field an int
    that numpy's int64 holds, and a pair field exactly two finite real
    numbers; a bool is none of these. Callers compare only the fields not
    returned here.
    """
    found: dict[str, str] = {}
    for name in reals:
        x = getattr(obj, name)
        if not _is_real(x):
            found[name] = f"{where}{name} must be a number"
        elif not _is_finite(x):
            found[name] = f"{where}{name} must be finite"
    for name in integers:
        x = getattr(obj, name)
        if not isinstance(x, numbers.Integral) or isinstance(x, bool):
            found[name] = f"{where}{name} must be an integer"
        elif not -(2**63) <= x < 2**63:
            found[name] = f"{where}{name} must be a 64-bit integer"
    for name in pairs:
        x = getattr(obj, name)
        if not (_is_sequence(x) and len(x) == 2 and all(map(_is_real, x))):
            found[name] = f"{where}{name} must be two numbers [low, high]"
        elif not all(map(_is_finite, x)):
            found[name] = f"{where}{name} must be finite"
    return found


def _whole_count(x: float) -> bool:
    """x is finite and within 1e-9 of a whole number >= 1."""
    return math.isfinite(x) and abs(x - round(x)) <= 1e-9 and round(x) >= 1


def _subgroup_labels(n: int, K: int) -> np.ndarray:
    """Subgroup of each of n TCLs: K contiguous blocks of (nearly) equal size."""
    return (np.arange(n) * K) // n


def _subgroup_anchors(value_range, groups: np.ndarray, K: int) -> np.ndarray:
    """Anchor value of each subgroup, spread evenly across ``value_range``."""
    lo, hi = value_range
    return lo + (groups + 0.5) / K * (hi - lo)


def _tuples(value):
    """JSON arrays, nested or not, as tuples; any other value unchanged."""
    if isinstance(value, list):
        return tuple(_tuples(x) for x in value)
    return value


def _dataclass_from_dict(cls, d, where: str, **overrides):
    """Build a dataclass from a mapping, rejecting unknown keys."""
    if not isinstance(d, dict):
        raise ScenarioError(f"{where} must be a JSON object")
    names = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    unknown = sorted(set(d) - names)
    if unknown:
        raise ScenarioError(f"{where}: unknown field(s) {', '.join(unknown)}")
    kwargs = {key: _tuples(value) for key, value in d.items()}
    kwargs.update(overrides)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


# --------------------------------------------------------------------------
# Population generation


def _seed_children(seed: int) -> list[np.random.SeedSequence]:
    """Fixed spawn order: params, initial state, noise, output sampling."""
    return np.random.SeedSequence(seed).spawn(4)


def generate_population(spec: PopulationSpec, seed: int) -> Population:
    """Draw a population from the configured distributions, deterministically.

    Every distribution consumes its draws whether or not its width is zero,
    so narrowing one parameter never reshuffles the others.
    """
    errs = spec.violations()
    if errs:
        raise ScenarioError("; ".join(errs))
    params_seed, init_seed = _seed_children(seed)[:2]
    g = np.random.default_rng(params_seed)
    n = spec.count

    C = spec.c_mean * (1.0 + spec.c_rel_width * g.uniform(-1.0, 1.0, n))
    R = spec.r_mean * (1.0 + spec.r_rel_width * g.uniform(-1.0, 1.0, n))
    P = spec.p_mean * (1.0 + spec.p_rel_width * g.uniform(-1.0, 1.0, n))
    eta = spec.eta_mean * (1.0 + spec.eta_rel_width * g.uniform(-1.0, 1.0, n))
    theta_set = spec.theta_set_mean + spec.theta_set_width * g.uniform(-1.0, 1.0, n)

    if spec.subgroups == 1:
        subgroup = None
        p0 = g.uniform(spec.p0_range[0], spec.p0_range[1], n)
        p_cap = g.uniform(spec.p_cap_range[0], spec.p_cap_range[1], n)
        gamma1 = g.uniform(spec.gamma_range[0], spec.gamma_range[1], n)
        gamma2 = g.uniform(spec.gamma_range[0], spec.gamma_range[1], n)
    else:
        K = spec.subgroups
        subgroup = _subgroup_labels(n, K)
        w = spec.subgroup_rel_width

        def group_values(value_range: tuple[float, float]) -> np.ndarray:
            anchors = _subgroup_anchors(value_range, subgroup, K)
            return anchors * (1.0 + w * g.uniform(-1.0, 1.0, n))

        p0 = group_values(spec.p0_range)
        p_cap = group_values(spec.p_cap_range)
        gamma1 = group_values(spec.gamma_range)
        gamma2 = gamma1.copy()

    g_init = np.random.default_rng(init_seed)
    theta_min = theta_set - spec.deadband / 2.0
    theta_max = theta_set + spec.deadband / 2.0
    theta0 = g_init.uniform(theta_min, theta_max)
    duty = np.clip((spec.theta_ambient - theta_set) / (P * R), 0.0, 1.0)
    m0 = (g_init.uniform(0.0, 1.0, n) < duty).astype(np.int8)
    return Population(
        C=C,
        R=R,
        P=P,
        eta=eta,
        theta_set=theta_set,
        deadband=np.full(n, spec.deadband, dtype=np.float64),
        p0=p0,
        p_cap=p_cap,
        gamma1=gamma1,
        gamma2=gamma2,
        noise_std=np.full(n, spec.noise_std, dtype=np.float64),
        theta=theta0,
        m=m0,
        v=np.ones(n, dtype=np.int8),
        theta_ambient=spec.theta_ambient,
        subgroup=subgroup,
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
    and, when the population has subgroups, ``subgroup_sync[g, t]`` (the
    sync index of the g-th subgroup label in ascending order; None
    otherwise). Per physics step: instantaneous aggregate power, consuming
    fraction and temperature summary. ``population`` carries the final
    state and the per-TCL parameter arrays. No record holds one value per
    TCL per interval, so a trace takes O(n + T) memory.
    """

    scenario: Scenario
    population: Population
    feeder_limit_kw: float
    capacity_kw: float
    time_min: np.ndarray
    base_price: np.ndarray
    clearing_price: np.ndarray
    cleared_demand_kw: np.ndarray
    base_demand_kw: np.ndarray
    constrained: np.ndarray
    avg_demand_kw: np.ndarray
    n_dispatched: np.ndarray
    step_time_min: np.ndarray
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
    subgroup_sync: Optional[np.ndarray]

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


def _mean_std(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``mean()`` and ``std()``, from one sum of each row of x.

    The same operations, in the same order, as numpy's own ``mean`` and
    ``std`` of one row (pairwise sum over the row; squared deviations from
    that mean summed the same way), so both results are bit-identical to
    them. ``x`` is C-contiguous, so each row is summed as a 1-D array is.
    """
    n = x.shape[1]
    mean = x.sum(axis=1) / n
    deviation = x - mean[:, None]
    np.multiply(deviation, deviation, out=deviation)
    return mean, np.sqrt(deviation.sum(axis=1) / n)


# --------------------------------------------------------------------------
# The run loop


def run(scenario: Scenario) -> Trace:
    """Simulate a scenario end to end; deterministic given the seed.

    Within a market interval the dispatch is fixed, so the physics steps
    run in blocks of B = min(steps per interval, BLOCK_ELEMENTS // n)
    steps (at least 1). Each step writes its theta and consuming mask into
    one row of a B x n block; after the block, every per-step statistic of
    its rows is computed at once (one exact limb product for the powers,
    row reductions for the on-fraction and the theta mean and std), equal
    bit for bit to computing them step by step. The noise of a block is
    one B x n draw, the same numbers as B draws of n. Raises ScenarioError
    when a step power, theta mean or theta std is not finite.
    """
    errs = scenario.validate()
    if errs:
        raise ScenarioError("invalid scenario: " + "; ".join(errs))

    pop = generate_population(scenario.population, scenario.seed)
    if scenario.feeder_limit_kw is not None:
        feeder_limit = float(scenario.feeder_limit_kw)
    else:
        feeder_limit = scenario.feeder_fraction * pop.capacity_kw

    n_intervals = scenario.n_intervals
    steps_per = scenario.steps_per_interval
    h = scenario.h_seconds
    n = pop.size

    noise_rng = None
    if np.any(pop.noise_std > 0):
        noise_rng = np.random.default_rng(_seed_children(scenario.seed)[2])

    n_steps = n_intervals * steps_per
    time_min = np.arange(n_intervals) * scenario.market_interval_min
    base_price = np.empty(n_intervals)
    clearing_price = np.empty(n_intervals)
    cleared_demand = np.empty(n_intervals)
    base_demand = np.empty(n_intervals)
    constrained = np.zeros(n_intervals, dtype=bool)
    avg_demand = np.empty(n_intervals)
    n_dispatched = np.empty(n_intervals, dtype=np.int64)
    step_time = np.arange(1, n_steps + 1) * h / 60.0
    step_power = np.empty(n_steps)
    step_on_fraction = np.empty(n_steps)
    step_theta_mean = np.empty(n_steps)
    step_theta_std = np.empty(n_steps)
    bid_min = np.empty(n_intervals)
    bid_mean = np.empty(n_intervals)
    bid_max = np.empty(n_intervals)
    sample_rng = np.random.default_rng(_seed_children(scenario.seed)[3])
    sample_ids = np.sort(sample_rng.choice(n, size=min(N_BID_SAMPLES, n), replace=False))
    bid_sample = np.empty((n_intervals, len(sample_ids)))
    sync = np.empty(n_intervals)
    dispersion = np.empty(n_intervals)
    subgroups = []
    subgroup_sync = None
    if pop.subgroup is not None:
        subgroups = [np.flatnonzero(pop.subgroup == g) for g in np.unique(pop.subgroup)]
        subgroup_sync = np.empty((len(subgroups), n_intervals))
    block = min(steps_per, max(1, BLOCK_ELEMENTS // n))
    theta_block = np.empty((block, n))
    consuming_block = np.empty((block, n), dtype=bool)

    quantities = pop.elec_power
    for t in range(n_intervals):
        theta_bid = predict_temperatures(pop, scenario.lookahead_s, h)
        prices = bid_prices(pop, theta_bid)
        curve = build_demand_curve(prices, quantities)
        pi_base = price_signal_value(
            scenario.price_signal, t, scenario.market_interval_min, n_intervals
        )
        result: ClearingResult = clear(curve, pi_base, feeder_limit, scenario.price_tick)
        pop.set_dispatch(prices, result.clearing_price)

        first = t * steps_per
        # An overflow reaches the finiteness check below as a value.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(first, first + steps_per, block):
                b = min(block, first + steps_per - start)
                noise = None
                if noise_rng is not None:
                    noise = noise_rng.standard_normal((b, n)) * pop.noise_std
                # Step j reads row j-1 (or the previous block's last row) and
                # writes row j, so no row is overwritten before it is read.
                for j in range(b):
                    pop.step_physics(
                        h, None if noise is None else noise[j], theta_block[j], consuming_block[j]
                    )
                stepped = slice(start, start + b)
                step_power[stepped] = aggregate_power(pop, consuming_block[:b])
                # per row: count_nonzero(axis=1) is several times slower
                step_on_fraction[stepped] = [
                    np.count_nonzero(row) / n for row in consuming_block[:b]
                ]
                step_theta_mean[stepped], step_theta_std[stepped] = _mean_std(theta_block[:b])
        rows = slice(first, first + steps_per)
        finite = np.isfinite(
            [step_power[rows], step_theta_mean[rows], step_theta_std[rows]]
        ).all(axis=0)
        if not finite.all():
            k = first + int(np.argmin(finite))
            raise ScenarioError(
                f"physics step {k} (t={step_time[k]:g} min) left the finite range: "
                f"power {float(step_power[k])} kW, theta mean {float(step_theta_mean[k])} "
                f"degC, theta std {float(step_theta_std[k])} degC; the scenario's "
                "values are too large to simulate"
            )

        base_price[t] = pi_base
        clearing_price[t] = result.clearing_price
        cleared_demand[t] = result.cleared_demand
        base_demand[t] = result.base_demand
        constrained[t] = result.constrained
        avg_demand[t] = _exact_mean(step_power[rows].tolist())
        n_dispatched[t] = np.count_nonzero(pop.v)
        bid_min[t] = prices.min()
        bid_mean[t] = prices.mean()
        bid_max[t] = prices.max()
        bid_sample[t] = prices[sample_ids]
        sync[t] = metrics.sync_index(pop.theta, pop.m, pop.theta_min, pop.theta_max)
        dispersion[t] = metrics.temperature_dispersion(pop.theta, pop.theta_set)
        for g, members in enumerate(subgroups):
            subgroup_sync[g, t] = metrics.sync_index(
                pop.theta[members], pop.m[members],
                pop.theta_min[members], pop.theta_max[members],
            )

    pop.theta = pop.theta.copy()   # a row of theta_block until now
    return Trace(
        scenario=scenario,
        population=pop,
        feeder_limit_kw=feeder_limit,
        capacity_kw=pop.capacity_kw,
        time_min=time_min,
        base_price=base_price,
        clearing_price=clearing_price,
        cleared_demand_kw=cleared_demand,
        base_demand_kw=base_demand,
        constrained=constrained,
        avg_demand_kw=avg_demand,
        n_dispatched=n_dispatched,
        step_time_min=step_time,
        step_power_kw=step_power,
        step_on_fraction=step_on_fraction,
        step_theta_mean=step_theta_mean,
        step_theta_std=step_theta_std,
        bid_price_min=bid_min,
        bid_price_mean=bid_mean,
        bid_price_max=bid_max,
        bid_sample_ids=sample_ids,
        bid_sample=bid_sample,
        sync=sync,
        dispersion_degc=dispersion,
        subgroup_sync=subgroup_sync,
    )
