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
import sys
from bisect import bisect_right
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from . import metrics
from .bidding import bid_prices, predict_temperatures
from .market import DEFAULT_PRICE_TICK, build_demand_curve, clear
from .population import Population, aggregate_power

__all__ = [
    "ScenarioError",
    "PriceSignal",
    "PopulationSpec",
    "Scenario",
    "Trace",
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

#: The most physics steps a scenario may span: over its whole horizon, and
#: over its bidding lookahead. A run records 40 bytes per step (five float64
#: series), so its step records stay under 400 MB, and a lookahead stays
#: within a fixed number of passes over the loads per interval.
MAX_STEPS = 10**7


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

    All levels are $/MWh and must be >= 0 (NaN is not a price). A field
    its kind does not read must be left unset (None, or 0 for
    ``offset_min``).
    """

    kind: str
    level: Optional[float] = None
    schedule: Optional[tuple[tuple[float, float], ...]] = None
    low: Optional[float] = None
    high: Optional[float] = None
    period_min: Optional[float] = None
    offset_min: float = 0.0
    values: Optional[tuple[float, ...]] = None

    #: Each kind, and the fields it reads.
    KINDS = {"constant": ("level",), "step": ("schedule",),
             "square": ("low", "high", "period_min", "offset_min"), "series": ("values",)}

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

    def violations(self, interval_minutes: float, n_intervals: Optional[int] = None) -> list[str]:
        """All configuration problems with this signal (empty list = valid).

        A series must cover ``n_intervals`` when it is given.
        """
        return self._levels(interval_minutes, n_intervals)[0]

    def _levels(
        self, interval_min: float, n: Optional[int]
    ) -> tuple[list[str], Optional[Callable[[int], float]]]:
        """Violations, and the base price of market interval i as a function of i.

        One branch per kind finds its change times as exact interval counts.
        The function is None, or meaningless, when there are violations.
        """
        errs: list[str] = []
        level_of = None
        kinds = tuple(self.KINDS)   # a kind from JSON may be unhashable
        if self.kind not in kinds:
            return [f"price_signal.kind must be one of {kinds}, got {self.kind!r}"], None
        for f in fields(self):
            value = getattr(self, f.name)
            unset = _is_real(value) and value == 0 if f.name == "offset_min" else value is None
            if not (unset or f.name in ("kind", *self.KINDS[self.kind])):
                errs.append(f"price_signal.{f.name} is not read by kind {self.kind!r}")
        if self.kind == "constant":
            if not (_is_finite(self.level) and self.level >= 0):
                errs.append("price_signal.level must be a price >= 0")
            level_of = lambda i: self.level
        elif self.kind == "step":
            if not self.schedule:
                errs.append("price_signal.schedule must be non-empty")
            elif not (_is_sequence(self.schedule) and all(
                _is_sequence(pair) and len(pair) == 2 and all(map(_is_real, pair))
                for pair in self.schedule
            )):
                errs.append("price_signal.schedule must be a list of [time_min, level] pairs")
            else:
                times, levels = zip(*self.schedule)
                if times[0] != 0:
                    errs.append("price_signal.schedule must start at time 0")
                if any(b <= a for a, b in zip(times, times[1:])):
                    errs.append("price_signal.schedule times must strictly increase")
                if not all(_is_finite(p) and p >= 0 for p in levels):
                    errs.append("price_signal.schedule levels must be finite and >= 0")
                starts = [_count(t, interval_min) if _is_finite(t) else None for t in times]
                if None in starts:
                    errs.append(
                        "price_signal.schedule change times must fall on "
                        f"market-interval boundaries ({interval_min} min)"
                    )
                level_of = lambda i: levels[bisect_right(starts, i) - 1]
        elif self.kind == "square":
            if not (_is_finite(self.low) and _is_finite(self.high)
                    and self.low >= 0 and self.high >= 0):
                errs.append("price_signal.low/high must be prices >= 0")
            if not (_is_finite(self.period_min) and self.period_min > 0):
                errs.append("price_signal.period_min must be finite and > 0")
            elif (period := _count(self.period_min, interval_min)) is None or period % 2:
                errs.append(
                    "price_signal.period_min/2 must be a whole number of "
                    "market intervals so flips land on boundaries"
                )
            offset = _count(self.offset_min, interval_min) if _is_finite(self.offset_min) else None
            if offset is None:
                errs.append("price_signal.offset_min must be a whole number of market intervals")
            level_of = lambda i: (
                self.low if (i + offset) % period < period // 2 else self.high
            )
        elif self.kind == "series":
            if not self.values:
                errs.append("price_signal.values must be non-empty")
            elif not _is_sequence(self.values):
                errs.append("price_signal.values must be a list of prices")
            else:
                if n is not None and len(self.values) < n:
                    errs.append(
                        f"price_signal.values covers {len(self.values)} intervals "
                        f"but the horizon has {n}"
                    )
                if not all(_is_finite(v) and v >= 0 for v in self.values):
                    errs.append("price_signal.values must all be >= 0")
                level_of = self.values.__getitem__
        return errs, level_of


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
    errs, level_of = signal._levels(interval_minutes, interval_index + 1)
    if errs:
        raise IndexError("; ".join(errs))
    return float(level_of(interval_index))


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
            K, w = self.subgroups, self.subgroup_rel_width
            groups = _subgroup_ranges(self.count, K)[0]
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

    def _p_cap_bound(self) -> float:
        """An upper bound of every p_cap a valid spec draws, so of every bid.

        One group draws ``lo + (hi - lo)*u`` with u < 1, at most ``lo + (hi -
        lo)`` after rounding; subgroup members draw ``anchor*(1 + w*u)`` with
        |u| < 1, at most the largest drawn anchor times ``1 + w``.
        """
        if self.subgroups == 1:
            lo, hi = map(float, self.p_cap_range)
            return lo + (hi - lo)
        K = self.subgroups
        anchors = _subgroup_anchors(self.p_cap_range, _subgroup_ranges(self.count, K)[0], K)
        return float(anchors.max() * (1.0 + self.subgroup_rel_width))


@dataclass(frozen=True)
class Plan:
    """A valid scenario resolved once into what run() reads.

    ``n_intervals`` market intervals of ``steps_per_interval`` physics
    steps each; every bid predicts ``lookahead_steps`` steps ahead;
    ``base_price[t]`` (read-only) is the base price of interval t.
    """

    n_intervals: int
    steps_per_interval: int
    lookahead_steps: int
    base_price: np.ndarray


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
        return self.plan().n_intervals

    def plan(self) -> Plan:
        """The scenario resolved into the integers and prices run() reads.

        Raises ScenarioError listing every violation when it is invalid.
        """
        errs, counts = self._resolve()
        if errs:
            raise ScenarioError("invalid scenario: " + "; ".join(errs))
        _, level_of = self.price_signal._levels(self.market_interval_min, counts[0])
        base_price = np.array([level_of(t) for t in range(counts[0])], dtype=np.float64)
        base_price.flags.writeable = False
        return Plan(*counts, base_price)

    def validate(self) -> list[str]:
        """Check every invariant; returns all violations, not just the first."""
        return self._resolve()[0]

    def _resolve(self) -> tuple[list[str], tuple]:
        """Every violation, and the plan's three exact counts (from :func:`_count`)."""
        reals = ("horizon_min", "market_interval_min", "h_seconds", "lookahead_s",
                 "feeder_fraction", "price_tick")
        if self.feeder_limit_kw is not None:
            reals += ("feeder_limit_kw",)
        malformed = _malformed(self, "", reals, integers=("seed",))
        errs = list(malformed.values())

        def ok(*names: str) -> bool:
            return malformed.keys().isdisjoint(names)

        h = interval = steps_per = n_intervals = lookahead_steps = None
        if ok("h_seconds") and not self.h_seconds > 0:
            errs.append("h_seconds must be > 0")
        elif ok("h_seconds"):
            h = self.h_seconds
        if ok("market_interval_min") and not self.market_interval_min > 0:
            errs.append("market_interval_min must be > 0")
        elif ok("market_interval_min"):
            interval = self.market_interval_min
            try:
                metrics.window_intervals(interval)
            except ValueError as exc:
                errs.append(f"market_interval_min ({interval} min) is too long: {exc}")
            if h is not None:
                steps_per = _count(interval, h, scale=60)
                if steps_per is None:
                    errs.append(
                        f"market_interval_min ({interval} min) must be "
                        f"a whole number of physics steps (h={h} s)"
                    )
        if ok("horizon_min") and not self.horizon_min > 0:
            errs.append("horizon_min must be > 0")
        elif ok("horizon_min") and interval is not None:
            n_intervals = _count(self.horizon_min, interval)
            if n_intervals is None:
                errs.append(
                    f"horizon_min ({self.horizon_min}) must be a whole number of "
                    f"market intervals ({interval} min)"
                )
            elif steps_per is not None and not n_intervals * steps_per <= MAX_STEPS:
                errs.append(
                    f"horizon_min ({self.horizon_min}) spans "
                    f"{_format_count(n_intervals * steps_per)} physics steps "
                    f"of h_seconds ({h}); at most MAX_STEPS = {MAX_STEPS}"
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
        elif ok("lookahead_s") and h is not None:
            lookahead_steps = _count(self.lookahead_s, h)
            if lookahead_steps is None:
                errs.append(
                    f"lookahead_s ({self.lookahead_s}) must be an integer multiple "
                    f"of h_seconds ({h})"
                )
            elif not lookahead_steps <= MAX_STEPS:
                errs.append(
                    f"lookahead_s ({self.lookahead_s}) spans {_format_count(lookahead_steps)} "
                    f"physics steps of h_seconds ({h}); at most MAX_STEPS = {MAX_STEPS}"
                )
        population_errs = self.population.violations()
        if ok("price_tick") and not self.price_tick > 0:
            errs.append("price_tick must be > 0")
        elif ok("price_tick") and not population_errs:
            # Every bid is at most the largest p_cap, so a tick of at least the
            # float spacing there prices every bid out when nothing fits.
            top = self.population._p_cap_bound()
            spacing = float(np.spacing(top))
            if not (spacing <= self.price_tick and top + self.price_tick < math.inf):
                errs.append(
                    f"price_tick ({self.price_tick}) must be at least the float spacing "
                    f"{spacing:.3g} at the largest possible bid price ({top:.6g} $/MWh), "
                    "and their sum finite, or the price that sheds every bid would "
                    "not lie above them"
                )
        if ok("seed") and not self.seed >= 0:
            errs.append("seed must be >= 0")
        errs.extend(population_errs)
        if interval is not None:
            errs.extend(self.price_signal.violations(interval, n_intervals))
        return errs, (n_intervals, steps_per, lookahead_steps)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
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
        # an absent part takes its default; any given one must be an object
        parts = {
            name: _dataclass_from_dict(cls, d.pop(name), name)
            for name, cls in (("population", PopulationSpec), ("price_signal", PriceSignal))
            if name in d
        }
        return _dataclass_from_dict(Scenario, d, "scenario", **parts)

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


def _count(x, unit, scale: int = 1) -> Optional[int]:
    """How many ``unit`` fit in ``scale * x``, exactly: an int, or None if not whole.

    Both finite numbers are read as the decimals ``str`` prints (``repr`` of
    a numpy float is ``'np.float64(0.1)'``), so 0.3 / 0.1 is exactly 3.
    """
    ratio = Fraction(str(x)) * scale / Fraction(str(unit))
    return ratio.numerator if ratio.denominator == 1 else None


def _format_count(k: int) -> str:
    """A count as ``%.3g`` prints it; ``inf`` past the float range, where float(k) raises."""
    return f"{float(k):.3g}" if k <= sys.float_info.max else "inf"


def _subgroup_ranges(n: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """The subgroups that n TCLs fill when TCL i is in subgroup ``i*K // n``, and their ranges.

    Returns int64 ``groups``, those that get a TCL, ascending (all K unless
    K > n, then one per TCL), and ``edges``: ``groups[j]`` holds the TCL ids
    ``edges[j] <= i < edges[j + 1]``. Exact for every n and K below 2**63.
    """
    m = min(n, K)
    # x*a//b as x*(a//b) + x*(a % b)//b, where x*(a % b) < m*m: int64 holds it
    # up to m = 3.04e9, and Python ints carry it past that
    x = np.arange(m + 1, dtype=np.int64 if m * m < 2**63 else object)
    if K > n:
        groups = x[:-1] * (K // n) + x[:-1] * (K % n) // n
        return groups.astype(np.int64), np.arange(n + 1)
    # subgroup g starts at the first TCL i with i*K >= g*n, so at ceil(g*n/K)
    edges = x * (n // K) + (x * (n % K) + K - 1) // K
    return np.arange(K), edges.astype(np.int64)


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
    so narrowing one parameter never reshuffles the others. ``deadband``
    and ``noise_std``, one value for every TCL, are read-only zero-stride
    views of that value rather than n copies of it.
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
        p0 = g.uniform(spec.p0_range[0], spec.p0_range[1], n)
        p_cap = g.uniform(spec.p_cap_range[0], spec.p_cap_range[1], n)
        gamma1 = g.uniform(spec.gamma_range[0], spec.gamma_range[1], n)
        gamma2 = g.uniform(spec.gamma_range[0], spec.gamma_range[1], n)
    else:
        K = spec.subgroups
        groups, edges = _subgroup_ranges(n, K)
        sizes = np.diff(edges)
        w = spec.subgroup_rel_width

        def group_values(value_range: tuple[float, float]) -> np.ndarray:
            anchors = np.repeat(_subgroup_anchors(value_range, groups, K), sizes)
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
    and, when the scenario has subgroups, ``subgroup_sync[j, t]`` (the sync
    index of the j-th subgroup that holds a TCL, in ascending order: one
    contiguous range of TCL ids, from :func:`_subgroup_ranges`; None
    otherwise). Per physics step: instantaneous aggregate power, consuming
    fraction and temperature summary. ``population`` carries the final
    state and the per-TCL parameter arrays. No record holds one value per
    TCL per interval, so a trace takes O(n + T) memory.

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
    steps (at least 1). Each step writes its theta and consuming mask into
    one row of a B x n block; after the block, every per-step statistic of
    its rows is computed at once (one exact limb product for the powers,
    row reductions for the on-fraction and the theta mean and std), equal
    bit for bit to computing them step by step. The noise of a block is
    one B x n draw, the same numbers as B draws of n. Raises ScenarioError
    when a step power, theta mean or theta std is not finite.

    Each interval clears once: :func:`clear` of the bids' demand curve over
    the population's limb table, which sorts the bids only when the exact
    demand at the base price exceeds the feeder limit. The population's
    capacity is summed once. The sync index of the whole population and
    of each subgroup comes from one :func:`~tclmarket.metrics.sync_index`
    call per interval, over one phasor array.

    The returned :class:`Trace` is allocated before the first interval, and
    every record is written into it where it is computed.
    """
    plan = scenario.plan()
    pop = generate_population(scenario.population, scenario.seed)
    capacity = pop.capacity_kw
    if scenario.feeder_limit_kw is not None:
        feeder_limit = float(scenario.feeder_limit_kw)
    else:
        feeder_limit = scenario.feeder_fraction * capacity

    n_intervals = plan.n_intervals
    steps_per = plan.steps_per_interval
    h = scenario.h_seconds
    n = pop.size

    noise_rng = None
    if np.any(pop.noise_std > 0):
        noise_rng = np.random.default_rng(_seed_children(scenario.seed)[2])

    n_steps = n_intervals * steps_per
    sample_rng = np.random.default_rng(_seed_children(scenario.seed)[3])
    n_samples = min(N_BID_SAMPLES, n)
    # one phasor array per interval: the whole population, then each subgroup
    K = scenario.population.subgroups
    edges = _subgroup_ranges(n, K)[1].tolist() if K > 1 else []
    slices = [(0, n), *zip(edges[:-1], edges[1:])]
    trace = Trace(
        scenario=scenario,
        population=pop,
        feeder_limit_kw=feeder_limit,
        capacity_kw=capacity,
        time_min=np.arange(n_intervals) * scenario.market_interval_min,
        base_price=plan.base_price.copy(),
        clearing_price=np.empty(n_intervals),
        cleared_demand_kw=np.empty(n_intervals),
        base_demand_kw=np.empty(n_intervals),
        constrained=np.zeros(n_intervals, dtype=bool),
        avg_demand_kw=np.empty(n_intervals),
        n_dispatched=np.empty(n_intervals, dtype=np.int64),
        step_time_min=np.arange(1, n_steps + 1) * h / 60.0,
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
        subgroup_sync=None if len(slices) == 1 else np.empty((len(slices) - 1, n_intervals)),
    )
    block = min(steps_per, max(1, BLOCK_ELEMENTS // n))
    theta_block = np.empty((block, n))
    consuming_block = np.empty((block, n), dtype=bool)

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
                for theta_row, consuming_row, noise_row in zip(
                    theta_block[:b], consuming_block[:b], repeat(None) if noise is None else noise
                ):
                    pop.step_physics(h, noise_row, theta_row, consuming_row)
                stepped = slice(start, start + b)
                trace.step_power_kw[stepped] = aggregate_power(pop, consuming_block[:b])
                # per row: count_nonzero(axis=1) is several times slower
                trace.step_on_fraction[stepped] = [
                    np.count_nonzero(row) / n for row in consuming_block[:b]
                ]
                trace.step_theta_mean[stepped], trace.step_theta_std[stepped] = metrics.mean_std(
                    theta_block[:b]
                )
        rows = slice(first, first + steps_per)
        finite = np.isfinite(
            [trace.step_power_kw[rows], trace.step_theta_mean[rows], trace.step_theta_std[rows]]
        ).all(axis=0)
        if not finite.all():
            k = first + int(np.argmin(finite))
            raise ScenarioError(
                f"physics step {k} (t={trace.step_time_min[k]:g} min) left the finite range: "
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
        trace.bid_price_min[t] = prices.min()
        trace.bid_price_mean[t] = prices.mean()
        trace.bid_price_max[t] = prices.max()
        trace.bid_sample[t] = prices[trace.bid_sample_ids]
        trace.sync[t], *subgroup_sync = metrics.sync_index(
            pop.theta, pop.m, pop.theta_min, pop.theta_max, slices
        )
        if subgroup_sync:
            trace.subgroup_sync[:, t] = subgroup_sync
        trace.dispersion_degc[t] = metrics.temperature_dispersion(pop.theta, pop.theta_set)

    pop.theta = pop.theta.copy()   # a row of theta_block until now
    return trace
