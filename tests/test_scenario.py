"""Scenario validation: the message of every violation, pinned word for word, and the
field rules that find them."""

import dataclasses
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tclmarket import Scenario
from tclmarket.engine import generate_population
from tclmarket.population import PARAM_FIELDS, Population
from tclmarket.scenario import (
    INTEGER,
    PAIR,
    REAL,
    REAL_OR_NONE,
    PopulationSpec,
    _POPULATION_RULES,
    _SCENARIO_RULES,
)

#: The message of the population row that evaluates the rules of one TCL
#: on the corners of the draws, up to the rule's own message.
DRAWN = "population: every drawn TCL must be valid, but a drawn TCL could break a rule: "


def _drawn(message, **corner):
    """The corner row's message for a rule's ``message`` at ``corner``.

    ``corner`` gives the values that differ from the default population's
    first corner.
    """
    at = {"C": 9.0, "R": 2.0, "P": 14.0, "eta": 2.5, "theta_set": 20.0, "deadband": 0.5,
          "p0": 20.5, "p_cap": 30.0, "gamma1": 10.0, "gamma2": 10.0, "noise_std": 0.0, **corner}
    return f"{DRAWN}{message} (at the corner {', '.join(f'{k}={v!r}' for k, v in at.items())})"


#: One scenario (as JSON, read by ``Scenario.from_dict``) per place a
#: violation is found, and the whole list ``validate()`` returns for it.
VIOLATIONS = [
    # the kind of value a field holds
    ("real-not-a-number", {"h_seconds": "x"},
     ["h_seconds must be a number"]),
    ("real-not-finite", {"feeder_fraction": math.inf},
     ["feeder_fraction must be finite"]),
    ("real-int-past-float", {"horizon_min": 10**400},
     ["horizon_min must be finite"]),
    ("integer-not-an-integer", {"seed": 1.5},
     ["seed must be an integer"]),
    ("integer-not-64-bit", {"population": {"count": 2**63}},
     ["population.count must be a 64-bit integer"]),
    ("pair-not-two-numbers", {"population": {"gamma_range": [1]}},
     ["population.gamma_range must be two numbers [low, high]"]),
    ("pair-not-finite", {"population": {"p0_range": [0, math.inf]}},
     ["population.p0_range must be finite"]),
    # population fields, one at a time
    ("count", {"population": {"count": 0}},
     ["population.count must be >= 1"]),
    ("c_mean", {"population": {"c_mean": 0}},
     ["population.c_mean must be finite and > 0"]),
    # a field that fails its own rule is not read by the rules that relate it to others
    ("r_mean", {"population": {"r_mean": -1}},
     ["population.r_mean must be finite and > 0"]),
    ("p_mean", {"population": {"p_mean": -1}},
     ["population.p_mean must be finite and > 0"]),
    ("eta_mean", {"population": {"eta_mean": 0}},
     ["population.eta_mean must be finite and > 0"]),
    ("c_rel_width", {"population": {"c_rel_width": 1}},
     ["population.c_rel_width must be in [0, 1)"]),
    ("r_rel_width", {"population": {"r_rel_width": -0.5}},
     ["population.r_rel_width must be in [0, 1)"]),
    ("p_rel_width", {"population": {"p_rel_width": 1}},
     ["population.p_rel_width must be in [0, 1)"]),
    ("eta_rel_width", {"population": {"eta_rel_width": 1.5}},
     ["population.eta_rel_width must be in [0, 1)"]),
    ("theta_set_width", {"population": {"theta_set_width": -1}},
     ["population.theta_set_width must be >= 0"]),
    ("deadband", {"population": {"deadband": 0}},
     ["population.deadband must be > 0"]),
    ("deadband-spacing", {"population": {"deadband": 1e-15}},
     [_drawn("deadband 1e-15 is below the float spacing at theta_set 20.0: theta_set +/- "
             "deadband/2 round to one temperature", deadband=1e-15)]),
    ("deadband-spacing-far", {"population": {"theta_set_mean": -1e17, "theta_set_width": 5}},
     [_drawn("deadband 0.5 is below the float spacing at theta_set -1e+17: theta_set +/- "
             "deadband/2 round to one temperature", theta_set=-1e17)]),
    ("theta_ambient", {"population": {"theta_ambient": 19}},
     ["population.theta_ambient must exceed every possible set-point (cooling-load regime)"]),
    ("gamma_range-order", {"population": {"gamma_range": [30, 10]}},
     ["population.gamma_range must satisfy 0 <= low <= high"]),
    ("p0_range-negative", {"population": {"p0_range": [-1, 23.5]}},
     ["population.p0_range must satisfy 0 <= low <= high"]),
    ("noise_std", {"population": {"noise_std": -0.5}},
     ["population.noise_std must be finite and >= 0"]),
    ("subgroups", {"population": {"subgroups": 0}},
     ["population.subgroups must be >= 1"]),
    ("subgroup_rel_width", {"population": {"subgroup_rel_width": 1}},
     ["population.subgroup_rel_width must be in [0, 1)"]),
    # population fields read together
    ("p0-above-p_cap", {"population": {"p0_range": [20.5, 35]}},
     [_drawn("require 0 <= p0 <= p_cap < inf, got p0=35.0, p_cap=30.0", p0=35.0)]),
    ("subgroup-clash", {"population": {"count": 50, "subgroups": 2, "subgroup_rel_width": 0.5,
                                       "p0_range": [29, 30], "p_cap_range": [30, 31]}},
     ["population.subgroup_rel_width 0.5 lets p0 exceed p_cap in 2 of 2 subgroups (first: "
      "subgroup 0, p0 anchor 29.25*(1+w) > p_cap anchor 30.25*(1-w))"]),
    # anchors whose product with 1 + w passes float64: the clash of an infinite
    # p0 bound is found without a warning, and the corner row finds each
    # jittered draw past float64 (the box's p0 is 0 when K >= 2)
    ("subgroup-clash-past-float", {"population": {
        "count": 5, "subgroups": 4, "p0_range": [0, 1.7e308], "p_cap_range": [1.7e308, 1.7e308],
        "subgroup_rel_width": 0.5}, "horizon_min": 15},
     ["population.subgroup_rel_width 0.5 lets p0 exceed p_cap in 3 of 4 subgroups (first: "
      "subgroup 1, p0 anchor 6.375e+307*(1+w) > p_cap anchor 1.7e+308*(1-w))",
      _drawn("require 0 <= p0 <= p_cap < inf, got p0=0.0, p_cap=inf", p0=0.0, p_cap=math.inf,
             gamma1=6.25, gamma2=6.25)]),
    ("subgroup-gamma-past-float", {"population": {
        "count": 40, "subgroups": 4, "gamma_range": [1.7e308, 1.7e308], "subgroup_rel_width": 0.1,
        "p0_range": [20.0, 21.0], "p_cap_range": [30.0, 40.0]}, "horizon_min": 15},
     [_drawn("bid slopes must be finite and >= 0, got gamma1=1.53e+308, gamma2=inf", p0=0.0,
             p_cap=28.125, gamma1=1.53e308, gamma2=math.inf)]),
    # the first corner that breaks a rule is reported, here an infinite gamma2's before p_cap's
    ("subgroup-p_cap-and-gamma-past-float", {"population": {
        "count": 5, "subgroups": 4, "gamma_range": [1.7e308, 1.7e308], "subgroup_rel_width": 0.1,
        "p0_range": [0, 1], "p_cap_range": [1.7e308, 1.7e308]}, "horizon_min": 15},
     [_drawn("bid slopes must be finite and >= 0, got gamma1=1.53e+308, gamma2=inf", p0=0.0,
             p_cap=1.53e308, gamma1=1.53e308, gamma2=math.inf)]),
    ("smallest-P*R", {"population": {"p_mean": 0.1}},
     [_drawn("P*R=0.200 degC must be finite and exceed the deadband (0.5 degC)", P=0.1)]),
    ("capacity", {"population": {"eta_mean": 1e-306}},
     ["population: largest possible capacity count*P/eta must be finite"]),
    ("largest-P*R", {"population": {"r_mean": 1e308}},
     [_drawn("P*R=inf degC must be finite and exceed the deadband (0.5 degC)", R=1e308)]),
    # a draw's ends: each is positive, finite and summable, or a run would fail
    ("draw-C-rounds-to-0",
     {"population": {"count": 1000, "c_mean": 5e-324, "c_rel_width": 0.6}, "horizon_min": 15},
     [_drawn("C, R, P and eta must all be positive, C and R finite, got C=0.0, R=2.0, P=14.0, "
             "eta=2.5", C=0.0)]),
    ("draw-R-rounds-to-0",
     {"population": {"count": 5, "r_mean": 5e-324, "r_rel_width": 0.9, "p_mean": 1e307,
                     "theta_set_mean": 1e-300, "deadband": 1e-20}, "horizon_min": 15},
     [_drawn("C, R, P and eta must all be positive, C and R finite, got C=9.0, R=0.0, "
             "P=1e+307, eta=2.5", R=0.0, P=1e307, theta_set=1e-300, deadband=1e-20)]),
    ("draw-C-overflows",
     {"population": {"count": 40, "c_mean": 1.7e308, "c_rel_width": 0.5}, "horizon_min": 15},
     [_drawn("C, R, P and eta must all be positive, C and R finite, got C=inf, R=2.0, P=14.0, "
             "eta=2.5", C=math.inf)]),
    # seven loads of P/eta = 2.568e307 each: (count*P)/eta is finite, count*(P/eta) is not
    ("capacity-of-rounded-P/eta",
     {"population": {"count": 7, "p_mean": 2.3113197448229774e+307, "eta_mean": 0.9,
                     "r_mean": 1e-300}, "horizon_min": 15},
     ["population: largest possible capacity count*P/eta must be finite"]),
    ("smallest-P/eta",
     {"population": {"count": 10, "p_mean": 1e-300, "r_mean": 1e300, "eta_mean": 1e300},
      "horizon_min": 15},
     [_drawn("P/eta must be positive and finite", R=1e300, P=1e-300, eta=1e300)]),
    ("band-finite",
     {"population": {"count": 5, "theta_set_mean": 1.7e308, "theta_ambient": 1.79e308,
                     "deadband": 2e307, "p_mean": 1e307, "r_mean": 3}, "horizon_min": 15},
     [_drawn("theta_set +/- deadband/2 must be finite, got theta_set=1.7e+308, "
             "deadband=2e+307", R=3.0, P=1e307, theta_set=1.7e308, deadband=2e307)]),
    # the time grid and the limits
    ("h_seconds", {"h_seconds": 0},
     ["h_seconds must be > 0"]),
    ("market_interval_min", {"market_interval_min": 0},
     ["market_interval_min must be > 0"]),
    ("market_interval_min-too-long", {"market_interval_min": 60},
     ["market_interval_min (60 min) is too long: window_min (120) must span at least 4 "
      "market intervals of 60 min, not 2"]),
    ("market_interval_min-whole-steps", {"h_seconds": 7, "lookahead_s": 140},
     ["market_interval_min (5.0 min) must be a whole number of physics steps (h=7 s)"]),
    ("horizon_min", {"horizon_min": 0},
     ["horizon_min must be > 0"]),
    ("horizon_min-whole-intervals", {"horizon_min": 1441},
     ["horizon_min (1441) must be a whole number of market intervals (5.0 min)"]),
    ("horizon_min-max-steps", {"horizon_min": 1666670},
     ["horizon_min (1666670) spans 1e+07 physics steps of h_seconds (10.0); "
      "at most MAX_STEPS = 10000000"]),
    ("feeder_limit_kw", {"feeder_limit_kw": -5},
     ["feeder_limit_kw must be > 0"]),
    ("feeder_fraction", {"feeder_fraction": 0},
     ["feeder_fraction must be > 0 when no absolute limit is given"]),
    ("lookahead_s", {"lookahead_s": -1},
     ["lookahead_s must be >= 0"]),
    ("lookahead_s-whole-steps", {"lookahead_s": 155},
     ["lookahead_s (155) must be an integer multiple of h_seconds (10.0)"]),
    ("lookahead_s-max-steps", {"lookahead_s": 100000010},
     ["lookahead_s (100000010) spans 1e+07 physics steps of h_seconds (10.0); "
      "at most MAX_STEPS = 10000000"]),
    ("price_tick", {"price_tick": 0},
     ["price_tick must be > 0"]),
    ("price_tick-spacing", {"price_tick": 1e-20},
     ["price_tick (1e-20) must be at least the float spacing 7.11e-15 at the largest "
      "possible bid price (40 $/MWh), and their sum finite, or the price that sheds every "
      "bid would not lie above them"]),
    ("seed", {"seed": -1},
     ["seed must be >= 0"]),
    # price signals
    ("kind", {"price_signal": {"kind": "linear"}},
     ["price_signal.kind must be one of ('constant', 'step', 'square', 'series'), "
      "got 'linear'"]),
    ("field-not-read", {"price_signal": {"kind": "constant", "level": 25, "low": 5}},
     ["price_signal.low is not read by kind 'constant'"]),
    ("level", {"price_signal": {"kind": "constant", "level": -1}},
     ["price_signal.level must be a price >= 0"]),
    ("schedule-empty", {"price_signal": {"kind": "step", "schedule": []}},
     ["price_signal.schedule must be non-empty"]),
    ("schedule-pairs", {"price_signal": {"kind": "step", "schedule": [[0]]}},
     ["price_signal.schedule must be a list of [time_min, level] pairs"]),
    ("schedule-start", {"price_signal": {"kind": "step", "schedule": [[5, 1]]}},
     ["price_signal.schedule must start at time 0"]),
    ("schedule-increase", {"price_signal": {"kind": "step", "schedule": [[0, 1], [0, 2]]}},
     ["price_signal.schedule times must strictly increase"]),
    ("schedule-levels", {"price_signal": {"kind": "step", "schedule": [[0, -1]]}},
     ["price_signal.schedule levels must be finite and >= 0"]),
    ("schedule-boundaries", {"price_signal": {"kind": "step", "schedule": [[0, 1], [7, 2]]}},
     ["price_signal.schedule change times must fall on market-interval boundaries (5.0 min)"]),
    ("low-high", {"price_signal": {"kind": "square", "low": -1, "high": 30, "period_min": 10}},
     ["price_signal.low/high must be prices >= 0"]),
    ("period_min", {"price_signal": {"kind": "square", "low": 20, "high": 30, "period_min": 0}},
     ["price_signal.period_min must be finite and > 0"]),
    ("period_min-half",
     {"price_signal": {"kind": "square", "low": 20, "high": 30, "period_min": 15}},
     ["price_signal.period_min/2 must be a whole number of market intervals so flips land "
      "on boundaries"]),
    ("offset_min", {"price_signal": {"kind": "square", "low": 20, "high": 30, "period_min": 10,
                                     "offset_min": 2}},
     ["price_signal.offset_min must be a whole number of market intervals"]),
    ("values-empty", {"price_signal": {"kind": "series", "values": []}},
     ["price_signal.values must be non-empty"]),
    ("values-list", {"price_signal": {"kind": "series", "values": "x"}},
     ["price_signal.values must be a list of prices"]),
    ("values-cover", {"horizon_min": 15, "price_signal": {"kind": "series", "values": [1, 2]}},
     ["price_signal.values covers 2 intervals but the horizon has 3"]),
    ("values-levels",
     {"horizon_min": 15, "price_signal": {"kind": "series", "values": [1, -1, 2]}},
     ["price_signal.values must all be >= 0"]),
    # many at once: the order validate() lists them in
    ("many", {"feeder_fraction": "x", "h_seconds": 0, "seed": -1,
              "population": {"count": 0, "deadband": -1, "gamma_range": [2]},
              "price_signal": {"kind": "constant", "level": -1}},
     ["feeder_fraction must be a number", "h_seconds must be > 0", "seed must be >= 0",
      "population.count must be >= 1", "population.deadband must be > 0",
      "population.gamma_range must be two numbers [low, high]",
      "price_signal.level must be a price >= 0"]),
]


@pytest.mark.parametrize("fields, expected", [case[1:] for case in VIOLATIONS],
                         ids=[case[0] for case in VIOLATIONS])
def test_every_violation_message(fields, expected):
    assert Scenario.from_dict(fields).validate() == expected



def test_count_must_leave_the_exact_power_sums_a_bit():
    # LimbTable gives each digit 53 - count.bit_length() bits: none at 2**52
    assert Scenario(population=PopulationSpec(count=2**52 - 1)).validate() == []
    assert Scenario(population=PopulationSpec(count=2**52)).validate() == [
        "population.count must be below 2**52 = 4503599627370496, where the exact power sums "
        "run out of bits"
    ]


def _kinds(rules) -> dict:
    """Each field's kind, from the rows ``(name, kind)`` of a rule table, up to the field's
    own tests: its first two tests, which REAL, REAL_OR_NONE, INTEGER and PAIR each hold."""
    return {row[0]: row[1][:2] for row in rules if isinstance(row[0], str)}


def test_every_field_has_a_rule_giving_its_kind():
    ranges = ("p0_range", "p_cap_range", "gamma_range")
    assert _kinds(_POPULATION_RULES) == {
        **{f.name: REAL for f in dataclasses.fields(PopulationSpec)
           if f.name not in ("count", "subgroups", *ranges)},
        "count": INTEGER, "subgroups": INTEGER, **dict.fromkeys(ranges, PAIR),
    }
    assert _kinds(_SCENARIO_RULES) == {
        **dict.fromkeys(("horizon_min", "market_interval_min", "h_seconds", "lookahead_s",
                         "feeder_fraction", "price_tick"), REAL),
        "feeder_limit_kw": REAL_OR_NONE, "seed": INTEGER,
    }
    # a field added later gets a kind, or this fails; the name is free text,
    # and the two parts have tables of their own
    assert set(_kinds(_SCENARIO_RULES)) == {
        f.name for f in dataclasses.fields(Scenario)} - {"name", "population", "price_signal"}


def test_readme_shows_the_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Scenario files", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == json.loads(Scenario().to_json())


@pytest.mark.parametrize("case", [case for case in VIOLATIONS
                                  if any(err.startswith(DRAWN) for err in case[2])],
                         ids=lambda case: case[0])
def test_each_corner_reproduces_its_rule(case):
    # the corner a violation names, built as one load, breaks the rule it names
    for err in Scenario.from_dict(case[1]).validate():
        if not err.startswith(DRAWN):
            continue
        message, at = re.fullmatch(r"(.*) \(at the corner (.*)\)", err[len(DRAWN):]).groups()
        values = {name: [float(value)] for name, value in
                  (pair.split("=") for pair in at.split(", "))}
        assert list(values) == list(PARAM_FIELDS)
        with pytest.raises(ValueError) as one_load:
            Population(**values, theta=[0.0], m=[0], v=[0], theta_ambient=0.0)
        assert str(one_load.value) == f"TCL 0: {message}"


#: Values toward the float limits, for the fields a spec may push there.
LIMITS = (5e-324, 1e-300, 1e300, 1.7e308)
WIDTHS = (0.5, 0.9, 1.0 - 1e-10, 1.0 - 2**-53)
EXTREMES = {
    **dict.fromkeys(("theta_ambient", "c_mean", "r_mean", "p_mean", "eta_mean",
                     "theta_set_width", "deadband", "noise_std"), st.sampled_from(LIMITS)),
    "theta_set_mean": st.sampled_from([*LIMITS, *(-x for x in LIMITS)]),
    **dict.fromkeys(("c_rel_width", "r_rel_width", "p_rel_width", "eta_rel_width",
                     "subgroup_rel_width"), st.sampled_from(WIDTHS)),
    **dict.fromkeys(("p0_range", "p_cap_range", "gamma_range"),
                    st.lists(st.sampled_from((0.0, *LIMITS)), min_size=2, max_size=2)
                    .map(sorted).map(tuple)),
}


@st.composite
def _specs_near_the_limits(draw):
    """A default spec of 1 to 6 loads in 1, 2 or 4 subgroups, with one to four fields pushed
    toward the float limits."""
    pushed = draw(st.lists(st.sampled_from(sorted(EXTREMES)), min_size=1, max_size=4,
                           unique=True))
    return PopulationSpec(count=draw(st.integers(1, 6)), subgroups=draw(st.sampled_from([1, 2, 4])),
                          **{name: draw(EXTREMES[name]) for name in pushed})


@settings(max_examples=600, deadline=None)
@given(_specs_near_the_limits())
def test_a_population_that_validates_draws_without_an_error_or_a_warning(spec):
    if spec.violations():
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pop = generate_population(spec, seed=0)
    assert np.all(pop.theta_min < pop.theta_max)
