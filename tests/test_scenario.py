"""Scenario validation: the message of every violation, pinned word for word, and the
field rules that find them."""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from tclmarket import Scenario
from tclmarket.scenario import (
    INTEGER,
    PAIR,
    REAL,
    REAL_OR_NONE,
    PopulationSpec,
    _POPULATION_RULES,
    _SCENARIO_RULES,
)

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
    ("r_mean", {"population": {"r_mean": -1}},
     ["population.r_mean must be finite and > 0",
      "population: smallest possible P*R must exceed the deadband (got -14.000 <= 0.5)"]),
    ("p_mean", {"population": {"p_mean": -1}},
     ["population.p_mean must be finite and > 0",
      "population: smallest possible P*R must exceed the deadband (got -2.000 <= 0.5)"]),
    ("eta_mean", {"population": {"eta_mean": 0}},
     ["population.eta_mean must be finite and > 0",
      "population: largest possible capacity count*P/eta must be finite"]),
    ("c_rel_width", {"population": {"c_rel_width": 1}},
     ["population.c_rel_width must be in [0, 1)"]),
    ("r_rel_width", {"population": {"r_rel_width": -0.5}},
     ["population.r_rel_width must be in [0, 1)"]),
    ("p_rel_width", {"population": {"p_rel_width": 1}},
     ["population.p_rel_width must be in [0, 1)",
      "population: smallest possible P*R must exceed the deadband (got 0.000 <= 0.5)"]),
    ("eta_rel_width", {"population": {"eta_rel_width": 1.5}},
     ["population.eta_rel_width must be in [0, 1)",
      "population: largest possible capacity count*P/eta must be finite"]),
    ("theta_set_width", {"population": {"theta_set_width": -1}},
     ["population.theta_set_width must be >= 0"]),
    ("deadband", {"population": {"deadband": 0}},
     ["population.deadband must be > 0"]),
    ("deadband-spacing", {"population": {"deadband": 1e-15}},
     ["population.deadband (1e-15) must be at least twice the float spacing 3.55e-15 at the "
      "set-point farthest from 0 (20 degC), or the thermostat band theta_set +/- deadband/2 "
      "rounds to one temperature"]),
    ("deadband-spacing-far", {"population": {"theta_set_mean": -1e17, "theta_set_width": 5}},
     ["population.deadband (0.5) must be at least twice the float spacing 16 at the "
      "set-point farthest from 0 (-1e+17 degC), or the thermostat band theta_set +/- "
      "deadband/2 rounds to one temperature"]),
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
     ["population.p0_range must sit at or below p_cap_range (every draw needs p0 <= p_cap)"]),
    ("subgroup-clash", {"population": {"count": 50, "subgroups": 2, "subgroup_rel_width": 0.5,
                                       "p0_range": [29, 30], "p_cap_range": [30, 31]}},
     ["population.subgroup_rel_width 0.5 lets p0 exceed p_cap in 2 of 2 subgroups (first: "
      "subgroup 0, p0 anchor 29.25*(1+w) > p_cap anchor 30.25*(1-w))"]),
    # anchors whose product with 1 + w passes float64: the clash of an infinite
    # p0 bound is found without a warning, and each jittered draw has its row
    ("subgroup-clash-past-float", {"population": {
        "count": 5, "subgroups": 4, "p0_range": [0, 1.7e308], "p_cap_range": [1.7e308, 1.7e308],
        "subgroup_rel_width": 0.5}, "horizon_min": 15},
     ["population.subgroup_rel_width 0.5 lets p0 exceed p_cap in 3 of 4 subgroups (first: "
      "subgroup 1, p0 anchor 6.375e+307*(1+w) > p_cap anchor 1.7e+308*(1-w))",
      "population: every drawn p_cap must be finite, but the largest subgroup anchor of "
      "p_cap_range [1.7e+308, 1.7e+308] times 1 + subgroup_rel_width (0.5) rounds to inf"]),
    ("subgroup-gamma-past-float", {"population": {
        "count": 40, "subgroups": 4, "gamma_range": [1.7e308, 1.7e308], "subgroup_rel_width": 0.1,
        "p0_range": [20.0, 21.0], "p_cap_range": [30.0, 40.0]}, "horizon_min": 15},
     ["population: every drawn gamma must be finite, but the largest subgroup anchor of "
      "gamma_range [1.7e+308, 1.7e+308] times 1 + subgroup_rel_width (0.1) rounds to inf"]),
    ("subgroup-p_cap-and-gamma-past-float", {"population": {
        "count": 5, "subgroups": 4, "gamma_range": [1.7e308, 1.7e308], "subgroup_rel_width": 0.1,
        "p0_range": [0, 1], "p_cap_range": [1.7e308, 1.7e308]}, "horizon_min": 15},
     ["population: every drawn p_cap must be finite, but the largest subgroup anchor of "
      "p_cap_range [1.7e+308, 1.7e+308] times 1 + subgroup_rel_width (0.1) rounds to inf",
      "population: every drawn gamma must be finite, but the largest subgroup anchor of "
      "gamma_range [1.7e+308, 1.7e+308] times 1 + subgroup_rel_width (0.1) rounds to inf"]),
    ("smallest-P*R", {"population": {"p_mean": 0.1}},
     ["population: smallest possible P*R must exceed the deadband (got 0.200 <= 0.5)"]),
    ("capacity", {"population": {"eta_mean": 1e-306}},
     ["population: largest possible capacity count*P/eta must be finite"]),
    ("largest-P*R", {"population": {"r_mean": 1e308}},
     ["population: largest possible P*R must be finite"]),
    # a draw's ends: each is positive, finite and summable, or a run would fail
    ("draw-C-rounds-to-0",
     {"population": {"count": 1000, "c_mean": 5e-324, "c_rel_width": 0.6}, "horizon_min": 15},
     ["population: every drawn C must be positive and finite, but the ends 5e-324*(1 -/+ 0.6) "
      "of its range round to 0.0 and 1e-323"]),
    ("draw-R-rounds-to-0",
     {"population": {"count": 5, "r_mean": 5e-324, "r_rel_width": 0.9, "p_mean": 1e307,
                     "theta_set_mean": 1e-300, "deadband": 1e-20}, "horizon_min": 15},
     ["population: every drawn R must be positive and finite, but the ends 5e-324*(1 -/+ 0.9) "
      "of its range round to 0.0 and 1e-323"]),
    ("draw-C-overflows",
     {"population": {"count": 40, "c_mean": 1.7e308, "c_rel_width": 0.5}, "horizon_min": 15},
     ["population: every drawn C must be positive and finite, but the ends 1.7e+308*(1 -/+ 0.5) "
      "of its range round to 8.5e+307 and inf"]),
    # seven loads of P/eta = 2.568e307 each: (count*P)/eta is finite, count*(P/eta) is not
    ("capacity-of-rounded-P/eta",
     {"population": {"count": 7, "p_mean": 2.3113197448229774e+307, "eta_mean": 0.9,
                     "r_mean": 1e-300}, "horizon_min": 15},
     ["population: largest possible capacity count*P/eta must be finite"]),
    ("smallest-P/eta",
     {"population": {"count": 10, "p_mean": 1e-300, "r_mean": 1e300, "eta_mean": 1e300},
      "horizon_min": 15},
     ["population: smallest possible P/eta must be positive"]),
    ("band-finite",
     {"population": {"count": 5, "theta_set_mean": 1.7e308, "theta_ambient": 1.79e308,
                     "deadband": 2e307, "p_mean": 1e307, "r_mean": 3}, "horizon_min": 15},
     ["population: the thermostat band theta_set +/- deadband/2 must be finite at the "
      "set-point farthest from 0 (1.7e+308 degC, deadband 2e+307)"]),
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
      "population.gamma_range must be two numbers [low, high]",
      "population.count must be >= 1", "population.deadband must be > 0",
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
    """Each field's kind, from the rows ``(name, kind)`` of a rule table."""
    return {row[0]: row[1] for row in rules if isinstance(row[0], str)}


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
