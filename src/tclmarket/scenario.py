"""The scenario schema: what an experiment is, and every check it must pass.

A :class:`Scenario` holds the population's distributions
(:class:`PopulationSpec`), the base-price schedule (:class:`PriceSignal`),
the feeder limit and the time grid. Every check is one row of a table of
field rules, and one loop, :func:`_violations`, walks each table.
:meth:`Scenario.plan` resolves a valid scenario into the exact counts and
base prices that :func:`~tclmarket.engine.run` reads.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from bisect import bisect_right
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .market import DEFAULT_PRICE_TICK
from .metrics import window_intervals
from .population import PARAM_FIELDS, band_edges, broken_rule

__all__ = ["ScenarioError", "PriceSignal", "PopulationSpec", "Plan", "Scenario", "MAX_STEPS"]

#: The most physics steps a scenario may span: over its whole horizon, and
#: over its bidding lookahead. A run records 32 bytes per step (four float64
#: series), so its step records stay under 320 MB, and a lookahead stays
#: within a fixed number of passes over the loads per interval.
MAX_STEPS = 10**7


class ScenarioError(ValueError):
    """Raised for configuration problems: before any simulation starts, or
    when a run's physics steps leave the finite range of float64."""


# --------------------------------------------------------------------------
# Field rules


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


#: The kinds of value a field may hold: the tests its value must pass, in
#: order, each with the words that follow the field's name when it fails. A
#: bool is none of these kinds.
REAL = ((_is_real, "must be a number"), (_is_finite, "must be finite"))
REAL_OR_NONE = tuple((lambda x, test=test: x is None or test(x), words) for test, words in REAL)
INTEGER = (
    (lambda x: isinstance(x, numbers.Integral) and not isinstance(x, bool), "must be an integer"),
    (lambda x: -(2**63) <= x < 2**63, "must be a 64-bit integer"),   # numpy's int64
)
PAIR = (
    (lambda x: _is_sequence(x) and len(x) == 2 and all(map(_is_real, x)),
     "must be two numbers [low, high]"),
    (lambda x: all(map(_is_finite, x)), "must be finite"),
)


def _violations(values: dict, rules, where: str = "") -> list[str]:
    """Every rule of ``rules`` that ``values`` (name -> value) breaks, in row order.

    A row ``(name, kind)`` checks that a field holds a value of that kind; a
    field that fails is malformed, reported as ``where`` + its name + the
    kind's words. A row ``(reads, holds, message)`` calls ``holds`` with the
    values of the names it reads and reports ``message`` unless it returns
    true: a ``str.format`` template of those names, or a function of the
    same values. A row is skipped when a name it reads is malformed or
    absent from ``values``.
    """
    errs: list[str] = []
    malformed: set[str] = set()
    for reads, holds, *message in rules:
        if isinstance(reads, str):
            failed = next((words for test, words in holds if not test(values[reads])), None)
            if failed:
                errs.append(f"{where}{reads} {failed}")
                malformed.add(reads)
        elif malformed.isdisjoint(reads) and values.keys() >= set(reads):
            got = [values[name] for name in reads]
            if not holds(*got):
                (text,) = message
                errs.append(text(*got) if callable(text) else text.format(**dict(zip(reads, got))))
    return errs


def _count(x, unit, scale: int = 1) -> Optional[int]:
    """How many ``unit`` fit in ``scale * x``, exactly: an int, or None if not whole.

    Both finite numbers are read as the decimals ``str`` prints (``repr`` of
    a numpy float is ``'np.float64(0.1)'``), so 0.3 / 0.1 is exactly 3.
    """
    ratio = Fraction(str(x)) * scale / Fraction(str(unit))
    return ratio.numerator if ratio.denominator == 1 else None


def _positive(x) -> bool:
    return _is_finite(x) and x > 0


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
        kinds = tuple(self.KINDS)   # a kind from JSON may be unhashable
        if self.kind not in kinds:
            return [f"price_signal.kind must be one of {kinds}, got {self.kind!r}"]
        horizon = {} if n_intervals is None else {"n_intervals": n_intervals}
        values = {**vars(self), "market_interval_min": interval_minutes, **horizon}
        unread = (   # unset: the field holds its default
            ((f.name,), lambda x, d=f.default: x is d or _is_real(x) and x == d,
             f"price_signal.{f.name} is not read by kind {self.kind!r}")
            for f in fields(self) if f.name not in ("kind", *self.KINDS[self.kind])
        )
        return _violations(values, (*unread, *_SIGNAL_RULES[self.kind]), "price_signal.")

    def level_of(self, interval_min: float) -> Callable[[int], float]:
        """The base price of market interval i, as a function of i, for a valid signal."""
        if self.kind == "constant":
            return lambda i: self.level
        if self.kind == "series":
            return self.values.__getitem__
        if self.kind == "step":
            times, levels = zip(*self.schedule)
            starts = [_count(t, interval_min) for t in times]
            return lambda i: levels[bisect_right(starts, i) - 1]
        period, offset = (_count(x, interval_min) for x in (self.period_min, self.offset_min))
        return lambda i: self.low if (i + offset) % period < period // 2 else self.high


#: The field rules of each kind of signal, past the rule that every field
#: the kind does not read is unset. ``market_interval_min`` is the interval
#: the signal is checked on, ``n_intervals`` the horizon's interval count
#: (absent when unknown).
_SIGNAL_RULES = {
    "constant": [
        (("level",), lambda x: _is_finite(x) and x >= 0,
         "price_signal.level must be a price >= 0"),
    ],
    "step": [
        ("schedule", ((bool, "must be non-empty"), (
            lambda s: _is_sequence(s) and all(
                _is_sequence(pair) and len(pair) == 2 and all(map(_is_real, pair)) for pair in s),
            "must be a list of [time_min, level] pairs"))),
        (("schedule",), lambda s: s[0][0] == 0, "price_signal.schedule must start at time 0"),
        (("schedule",), lambda s: not any(b <= a for (a, _), (b, _) in zip(s, s[1:])),
         "price_signal.schedule times must strictly increase"),
        (("schedule",), lambda s: all(_is_finite(p) and p >= 0 for _, p in s),
         "price_signal.schedule levels must be finite and >= 0"),
        (("schedule", "market_interval_min"),
         lambda s, i: all(_is_finite(t) and _count(t, i) is not None for t, _ in s),
         "price_signal.schedule change times must fall on market-interval boundaries "
         "({market_interval_min} min)"),
    ],
    "square": [
        (("low", "high"), lambda lo, hi: _is_finite(lo) and _is_finite(hi) and lo >= 0 and hi >= 0,
         "price_signal.low/high must be prices >= 0"),
        ("period_min", ((_positive, "must be finite and > 0"),)),
        (("period_min", "market_interval_min"),
         lambda p, i: (k := _count(p, i)) is not None and k % 2 == 0,
         "price_signal.period_min/2 must be a whole number of market intervals so flips land "
         "on boundaries"),
        (("offset_min", "market_interval_min"),
         lambda o, i: _is_finite(o) and _count(o, i) is not None,
         "price_signal.offset_min must be a whole number of market intervals"),
    ],
    "series": [
        ("values", ((bool, "must be non-empty"), (_is_sequence, "must be a list of prices"))),
        (("values", "n_intervals"), lambda v, n: len(v) >= n,
         lambda v, n: f"price_signal.values covers {len(v)} intervals but the horizon has {n}"),
        (("values",), lambda v: all(_is_finite(x) and x >= 0 for x in v),
         "price_signal.values must all be >= 0"),
    ],
}


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
        return _violations(vars(self), _POPULATION_RULES, "population.")

    def _p_cap_bound(self) -> float:
        """An upper bound of every p_cap a valid spec draws, so of every bid."""
        return _draw_ends(self.p_cap_range, self.subgroups, self.count, self.subgroup_rel_width)[1]


def _subgroup_ranges(n: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """The subgroups that n TCLs fill when TCL i is in subgroup ``i*K // n``, and their ranges.

    Returns int64 ``groups``, those that get a TCL, ascending, and
    ``edges``: ``groups[x]`` holds the TCL ids ``edges[x] <= i < edges[x + 1]``.
    With m = min(n, K) there are m ranges; range x starts at ``ceil(x*n/m)``
    and holds subgroup ``x*K // m`` (all K subgroups if K <= n, else one per
    TCL). Exact for every n and K below 2**63.
    """
    m = min(n, K)
    # x*a//b as x*(a//b) + x*(a % b)//b, where x*(a % b) < m*m: int64 holds it
    # up to m = 3.04e9, and Python ints carry it past that
    x = np.arange(m + 1, dtype=np.int64 if m * m < 2**63 else object)
    groups = x[:-1] * (K // m) + x[:-1] * (K % m) // m
    edges = x * (n // m) + (x * (n % m) + m - 1) // m
    return groups.astype(np.int64), edges.astype(np.int64)


def _subgroup_anchors(value_range, groups, K: int):
    """Anchor value of each subgroup, spread evenly across ``value_range``.

    ``groups`` is an int64 array of subgroups, or one subgroup as an int.
    """
    lo, hi = value_range
    return lo + (groups + 0.5) / K * (hi - lo)


def _draw_ends(value_range, K: int, n: int, w: float) -> tuple[float, float]:
    """The least value that K subgroups of n TCLs draw from ``value_range``, and a bound of all.

    One group draws ``lo + (hi - lo)*u``, 0 <= u < 1; K >= 2 subgroups draw
    ``anchor*(1 + w*u)``, -1 <= u < 1, with anchors that grow with the group
    (rounding is monotone and ``0 <= low <= high``) up to the last TCL's,
    ``(n - 1)*K // n``.
    """
    if K == 1:
        lo, hi = map(float, value_range)
        return lo, lo + (hi - lo)
    return (_subgroup_anchors(value_range, 0, K) * (1.0 - w),
            _subgroup_anchors(value_range, (n - 1) * K // n, K) * (1.0 + w))


def _subgroup_clash(K: int, n: int, w: float, p0_range, p_cap_range) -> Optional[str]:
    """Why jitter ±w lets a member of some subgroup draw p0 > p_cap, or None.

    Members jitter their group's anchor p0 and p_cap by up to ±w relative,
    so p0 <= p_cap needs p0_anchor*(1+w) <= p_cap_anchor*(1-w) in every
    group that is drawn (all K unless K > count).
    """
    if K < 2:
        return None
    groups = _subgroup_ranges(n, K)[0]
    p0_anchor = _subgroup_anchors(p0_range, groups, K)
    cap_anchor = _subgroup_anchors(p_cap_range, groups, K)
    # a p0 anchor whose product passes float64 exceeds every finite p_cap
    # anchor times 1 - w, so the comparison of its inf is the right verdict
    with np.errstate(over="ignore"):
        clash = np.flatnonzero(p0_anchor * (1.0 + w) > cap_anchor * (1.0 - w))
    if not len(clash):
        return None
    g = clash[0]
    return (
        f"population.subgroup_rel_width {w} lets p0 exceed p_cap in {len(clash)} of "
        f"{len(groups)} subgroups (first: subgroup {groups[g]}, p0 anchor "
        f"{p0_anchor[g]:.6g}*(1+w) > p_cap anchor {cap_anchor[g]:.6g}*(1-w))"
    )


def _corner_break(*draws) -> Optional[str]:
    """Why a TCL drawn from the fields ``_DRAWS`` could break a rule of one TCL, or None.

    The rules (``population._PARAM_RULES``) are evaluated on each corner of
    a box that holds every draw: its ends, rounded as the draw rounds them
    (``mean*(1 -/+ w)``, ``theta_set_mean -/+ theta_set_width``,
    :func:`_draw_ends`). Rounding is monotone, so each rule on a parameter,
    P/eta, P*R or a band edge takes its worst case at a corner. The band is
    lost where deadband/2 is below half the spacing between theta_set and
    its float neighbour toward 0, or equal to it at an even significand (a
    tie rounds to even). That spacing never shrinks as |theta_set| grows, so
    if a drawn set-point loses its band, the end farther from 0 or its even
    neighbour toward 0 does; the box holds the even neighbour of each end
    too. For K >= 2 its p0 is 0: the clash row checks p0 <= p_cap by group.
    """
    d = dict(zip(_DRAWS, draws))
    K, n, w = d["subgroups"], d["count"], d["subgroup_rel_width"]
    ends = np.array([d["theta_set_mean"] - d["theta_set_width"],
                     d["theta_set_mean"] + d["theta_set_width"]])
    sides = [  # in the order of PARAM_FIELDS
        *((mean * (1.0 - width), mean * (1.0 + width)) for mean, width in
          ((d[f"{x}_mean"], d[f"{x}_rel_width"]) for x in ("c", "r", "p", "eta"))),
        (*ends, *np.where(ends.view(np.int64) & 1, np.nextafter(ends, 0.0), ends)),
        (d["deadband"],),
        _draw_ends(d["p0_range"], K, n, w) if K == 1 else (0.0,),
        _draw_ends(d["p_cap_range"], K, n, w),
        *[_draw_ends(d["gamma_range"], K, n, w)] * 2,
        (d["noise_std"],),
    ]
    grids = np.meshgrid(*(list(dict.fromkeys(map(float, side))) for side in sides), indexing="ij")
    corners = SimpleNamespace(**{name: grid.ravel() for name, grid in zip(PARAM_FIELDS, grids)})
    corners.theta_min, corners.theta_max = band_edges(corners.theta_set, corners.deadband)
    if (found := broken_rule(corners)) is None:
        return None
    i, message = found
    at = ", ".join(f"{name}={getattr(corners, name)[i].item()!r}" for name in PARAM_FIELDS)
    return ("population: every drawn TCL must be valid, but a drawn TCL could break a rule: "
            f"{message} (at the corner {at})")


#: The fields that :func:`_corner_break` reads.
_DRAWS = tuple(f.name for f in fields(PopulationSpec) if f.name != "theta_ambient")

#: Each population field's kind, REAL unless given: the tests its value must
#: pass on its own, so that no rule relating it to others reads one that fails.
_POPULATION_KINDS = {
    "count": (*INTEGER, (lambda n: n >= 1, "must be >= 1"),
              # the exact power sums give each digit 53 - count.bit_length() bits
              (lambda n: n < 2**52, "must be below 2**52 = 4503599627370496, where the exact "
               "power sums run out of bits")),
    **dict.fromkeys(("c_mean", "r_mean", "p_mean", "eta_mean"),
                    (*REAL, (lambda x: x > 0, "must be finite and > 0"))),
    **dict.fromkeys(("c_rel_width", "r_rel_width", "p_rel_width", "eta_rel_width",
                     "subgroup_rel_width"), (*REAL, (lambda w: 0 <= w < 1, "must be in [0, 1)"))),
    "theta_set_width": (*REAL, (lambda x: x >= 0, "must be >= 0")),
    "deadband": (*REAL, (lambda x: x > 0, "must be > 0")),
    **dict.fromkeys(("p0_range", "p_cap_range", "gamma_range"),
                    (*PAIR, (lambda r: 0 <= r[0] <= r[1], "must satisfy 0 <= low <= high"))),
    "noise_std": (*REAL, (lambda x: x >= 0, "must be finite and >= 0")),
    "subgroups": (*INTEGER, (lambda K: K >= 1, "must be >= 1")),
}

#: The field rules of a population.
_POPULATION_RULES = (
    *((f.name, _POPULATION_KINDS.get(f.name, REAL)) for f in fields(PopulationSpec)),
    (("theta_ambient", "theta_set_mean", "theta_set_width"), lambda a, m, w: a > m + w,
     "population.theta_ambient must exceed every possible set-point (cooling-load regime)"),
    (("subgroups", "count", "subgroup_rel_width", "p0_range", "p_cap_range"),
     lambda *spec: _subgroup_clash(*spec) is None, _subgroup_clash),
    (_DRAWS, lambda *draws: _corner_break(*draws) is None, _corner_break),
    # Reject draws whose sums overflow. Each P/eta is at most P_max/eta_min,
    # rounded, so their exact total is at most count times it: the power
    # table's own test when every load shares it.
    (("count", "p_mean", "p_rel_width", "eta_mean", "eta_rel_width"),
     lambda n, p, pw, eta, ew: (eta_min := eta * (1 - ew)) > 0 and n * (p * (1 + pw) / eta_min)
     < math.inf,
     "population: largest possible capacity count*P/eta must be finite"),
    # Every bid is at most the largest p_cap. Summed in any order, n values
    # of at most `top` give partial sums of at most n*top*(1 + 2**-53)**(n - 1),
    # and count < 2**52 keeps that factor below e**0.5 < 2: bids whose
    # count*top is finite when doubled add up without overflow.
    (("subgroups", "count", "subgroup_rel_width", "p_cap_range"),
     lambda K, n, w, r: (top := _draw_ends(r, K, n, w)[1]) == math.inf or 2.0 * n * top < math.inf,
     lambda K, n, w, r: "population: the total of all bids must be finite, but count*p_cap "
     f"({n}*{_draw_ends(r, K, n, w)[1]:.6g} $/MWh) exceeds half the float64 range"),
)


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
        level_of = self.price_signal.level_of(self.market_interval_min)
        base_price = np.array([level_of(t) for t in range(counts[0])], dtype=np.float64)
        base_price.flags.writeable = False
        return Plan(*counts, base_price)

    def validate(self) -> list[str]:
        """Check every invariant; returns all violations, not just the first."""
        return self._resolve()[0]

    def _resolve(self) -> tuple[list[str], tuple]:
        """Every violation, and the plan's three exact counts (from :func:`_count`).

        A count is derived where the fields it divides are valid: None when
        it is not whole, and absent from the rules' values when it is not
        derived, so that no rule reads it.
        """
        h, interval, lookahead = self.h_seconds, self.market_interval_min, self.lookahead_s
        counts = {}
        if _positive(interval):
            if _positive(h):
                counts["steps_per_interval"] = _count(interval, h, scale=60)
            if _positive(self.horizon_min):
                counts["n_intervals"] = _count(self.horizon_min, interval)
        if _positive(h) and _is_finite(lookahead) and lookahead >= 0:
            counts["lookahead_steps"] = _count(lookahead, h)
        if None not in (counts.get("n_intervals"), counts.get("steps_per_interval")):
            counts["n_steps"] = counts["n_intervals"] * counts["steps_per_interval"]
        population_errs = self.population.violations()
        if not population_errs:
            counts["p_cap_bound"] = self.population._p_cap_bound()
        errs = _violations({**vars(self), **counts}, _SCENARIO_RULES) + population_errs
        n_intervals = counts.get("n_intervals")
        if _positive(interval):
            errs.extend(self.price_signal.violations(interval, n_intervals))
        return errs, (n_intervals, counts.get("steps_per_interval"), counts.get("lookahead_steps"))

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


def _window_error(interval_min) -> str:
    """Why the metrics' sliding window cannot use this market interval ('' if it can)."""
    try:
        window_intervals(interval_min)
    except ValueError as exc:
        return str(exc)
    return ""


def _spans(what: str) -> Callable:
    """The message of a rule that bounds the physics steps ``what`` spans.

    The count prints as ``%.3g`` does, and as ``inf`` past the float range.
    """
    return lambda x, h, k: (
        f"{what} ({x}) spans {k if k <= sys.float_info.max else math.inf:.3g} physics steps "
        f"of h_seconds ({h}); at most MAX_STEPS = {MAX_STEPS}"
    )


#: The field rules of a scenario, past its population and price signal.
#: Besides the fields they read the counts that :meth:`Scenario._resolve`
#: derives, and ``p_cap_bound``, the largest bid of a valid population.
_SCENARIO_RULES = (
    *((name, REAL) for name in ("horizon_min", "market_interval_min", "h_seconds", "lookahead_s",
                                "feeder_fraction", "price_tick")),
    ("feeder_limit_kw", REAL_OR_NONE),
    ("seed", INTEGER),
    (("h_seconds",), lambda h: h > 0, "h_seconds must be > 0"),
    (("market_interval_min",), lambda i: i > 0, "market_interval_min must be > 0"),
    (("market_interval_min",), lambda i: not (i > 0 and _window_error(i)),
     lambda i: f"market_interval_min ({i} min) is too long: {_window_error(i)}"),
    (("market_interval_min", "h_seconds", "steps_per_interval"), lambda i, h, k: k is not None,
     "market_interval_min ({market_interval_min} min) must be a whole number of physics steps "
     "(h={h_seconds} s)"),
    (("horizon_min",), lambda t: t > 0, "horizon_min must be > 0"),
    (("horizon_min", "market_interval_min", "n_intervals"), lambda t, i, n: n is not None,
     "horizon_min ({horizon_min}) must be a whole number of market intervals "
     "({market_interval_min} min)"),
    (("horizon_min", "h_seconds", "n_steps"), lambda t, h, k: k <= MAX_STEPS,
     _spans("horizon_min")),
    (("feeder_limit_kw",), lambda x: x is None or x > 0, "feeder_limit_kw must be > 0"),
    (("feeder_fraction", "feeder_limit_kw"), lambda f, limit: limit is not None or f > 0,
     "feeder_fraction must be > 0 when no absolute limit is given"),
    (("lookahead_s",), lambda x: x >= 0, "lookahead_s must be >= 0"),
    (("lookahead_s", "h_seconds", "lookahead_steps"), lambda x, h, k: k is not None,
     "lookahead_s ({lookahead_s}) must be an integer multiple of h_seconds ({h_seconds})"),
    (("lookahead_s", "h_seconds", "lookahead_steps"), lambda x, h, k: k is None or k <= MAX_STEPS,
     _spans("lookahead_s")),
    (("price_tick",), lambda x: x > 0, "price_tick must be > 0"),
    # Every bid is at most the largest p_cap, so a tick of at least the float
    # spacing there prices every bid out when nothing fits.
    (("price_tick", "p_cap_bound"),
     lambda tick, top: not tick > 0 or (float(np.spacing(top)) <= tick and top + tick < math.inf),
     lambda tick, top: f"price_tick ({tick}) must be at least the float spacing "
     f"{float(np.spacing(top)):.3g} at the largest possible bid price ({top:.6g} $/MWh), and "
     "their sum finite, or the price that sheds every bid would not lie above them"),
    (("seed",), lambda s: s >= 0, "seed must be >= 0"),
)


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
