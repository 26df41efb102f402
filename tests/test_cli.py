"""Command-line driver: artifact files, validation mode, exit codes."""

import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tclmarket import cli
from tclmarket.cli import (
    BUILTIN_SCENARIOS, TABLE_CHUNK_ROWS, _write_table, builtin_scenario, main, write_steps_csv,
)
from tclmarket.engine import generate_population, run
from tclmarket.scenario import PopulationSpec, PriceSignal, Scenario, ScenarioError

#: How a violation of a rule of one TCL at a corner of the draws begins.
DRAWN = "population: every drawn TCL must be valid, but a drawn TCL could break a rule: "


@pytest.fixture()
def small_file(tmp_path):
    scenario = Scenario(
        name="cli-small",
        population=PopulationSpec(count=16),
        price_signal=PriceSignal.square(low=20.0, high=30.0, period_min=10.0),
        horizon_min=60.0,
        seed=7,
    )
    path = tmp_path / "small.json"
    path.write_text(scenario.to_json())
    return str(path)


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


@pytest.mark.parametrize("horizon_min, windows", [(30.0, 0), (125.0, 2)])
def test_summary_peak_to_peak_says_when_no_window_fits(tmp_path, capsys, horizon_min, windows):
    scenario = Scenario(
        population=PopulationSpec(count=16),
        price_signal=PriceSignal.step([(0.0, 42.0), (10.0, 9.0)]),
        horizon_min=horizon_min,
    )
    path = tmp_path / "s.json"
    path.write_text(scenario.to_json())
    out = tmp_path / "out"
    assert main(["--scenario", str(path), "--out", str(out)]) == 0
    rows = list(csv.DictReader(read_lines(out / "windows.csv")))
    assert len(rows) == windows
    summary = capsys.readouterr().out
    if windows:
        p2p = max(float(row["demand_p2p_kw"]) for row in rows)
        assert f"max windowed demand peak-to-peak: {p2p:.1f} kW" in summary
    else:
        assert ("max windowed demand peak-to-peak: none, the 30-min horizon holds no "
                "complete 120-min window") in summary
        assert "0.0 kW" not in summary


def test_run_writes_default_artifacts(small_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--scenario", small_file, "--out", str(out)]) == 0
    names = sorted(os.listdir(out))
    assert names == [
        "bids_sample.csv", "metrics.csv", "scenario.json", "trace.csv", "windows.csv",
    ]
    trace_lines = read_lines(out / "trace.csv")
    assert trace_lines[0].split(",")[:4] == [
        "interval", "time_min", "base_price_usd_per_mwh", "clearing_price_usd_per_mwh",
    ]
    assert len(trace_lines) == 1 + 12   # header + one row per market interval
    # 16 TCLs -> the bid sample covers all of them
    bids_header = read_lines(out / "bids_sample.csv")[0].split(",")
    assert len(bids_header) == 2 + 16
    summary = capsys.readouterr().out
    assert "feeder hits" in summary
    assert "max sync index" in summary


def test_scenario_echo_reflects_seed_override(small_file, tmp_path):
    out = tmp_path / "out"
    assert main(["--scenario", small_file, "--seed", "3", "--out", str(out)]) == 0
    echoed = json.loads((out / "scenario.json").read_text())
    assert echoed["seed"] == 3
    assert Scenario.from_dict(echoed).population.count == 16


def test_emit_selects_outputs_and_decimates_steps(small_file, tmp_path):
    out = tmp_path / "out"
    rc = main([
        "--scenario", small_file, "--out", str(out),
        "--emit", "trace,steps", "--decimate", "6",
    ])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert names == ["scenario.json", "steps.csv", "trace.csv"]
    # 12 intervals x 30 steps, keeping every 6th record
    assert len(read_lines(out / "steps.csv")) == 1 + 360 // 6


def test_missing_scenario_file_names_it(capsys):
    assert main(["--scenario", "no/such/file.json"]) == 1
    err = capsys.readouterr().err
    assert "no/such/file.json" in err
    assert "not found" in err


@pytest.mark.parametrize("make, reason", [
    (lambda path: path.mkdir(), "cannot be read: {path} (Is a directory)"),
    (lambda path: path.write_bytes(b'{"name": "caf\xe9"}'),
     "is not UTF-8 text: {path} (invalid continuation byte at byte 13)"),
], ids=["directory", "latin-1"])
def test_unreadable_scenario_file_is_an_error_not_a_traceback(tmp_path, capsys, make, reason):
    path = tmp_path / "scenario.json"
    make(path)
    for flags in (["--validate-only"], ["--out", str(tmp_path / "o")]):
        assert main(["--scenario", str(path), *flags]) == 1
        err = capsys.readouterr().err
        assert err == f"error: scenario file {reason.format(path=path)}\n"
    assert not (tmp_path / "o").exists()


def test_unknown_builtin_lists_available_names():
    with pytest.raises(ScenarioError) as exc:
        builtin_scenario("mystery")
    for name in BUILTIN_SCENARIOS:
        assert name in str(exc.value)


def test_all_builtin_scenarios_validate():
    for name, scenario in BUILTIN_SCENARIOS.items():
        assert scenario.name == name
        assert scenario.validate() == []


def test_validate_only_accepts_and_echoes(small_file, capsys):
    assert main(["--scenario", small_file, "--validate-only"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK")
    assert '"cli-small"' in out


def test_closed_standard_output_ends_without_a_traceback():
    # `tclmarket --scenario stepprice --validate-only | head -0`: the reader
    # is gone before the command writes its first line
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "tclmarket.cli", "--scenario", "stepprice", "--validate-only"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr and "Error" not in result.stderr, result.stderr


def test_validate_only_reports_every_violation(tmp_path, capsys):
    # 290/60 = 4.833333333333333 min: horizon misaligned, the step time
    # off-boundary, and not a whole number of 10 s steps
    bad = Scenario(
        market_interval_min=290.0 / 60.0,
        price_signal=PriceSignal.step([(0.0, 42.0), (360.0, 20.0)]),
    )
    path = tmp_path / "bad.json"
    path.write_text(bad.to_json())
    assert main(["--scenario", str(path), "--validate-only"]) == 1
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("violation:")]
    assert len(lines) == 3


def test_validate_only_flags_negative_feeder_limit(tmp_path, capsys):
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({"feeder_limit_kw": -5}))
    assert main(["--scenario", str(path), "--validate-only"]) == 1
    out = capsys.readouterr().out
    assert "feeder_limit_kw" in out


def test_invalid_scenario_refuses_to_run(tmp_path, capsys):
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({"feeder_limit_kw": -5}))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "invalid scenario" in capsys.readouterr().err


def test_subgroup_jitter_past_p_cap_is_rejected_not_crashed(tmp_path, capsys):
    # every bound is fine on its own, but ±50% jitter around anchors near
    # 30 $/MWh lets a member's p0 land above its p_cap
    path = tmp_path / "jitter.json"
    path.write_text(json.dumps({
        "population": {"count": 50, "p0_range": [29, 30], "p_cap_range": [30, 31],
                       "subgroups": 2, "subgroup_rel_width": 0.5},
        "horizon_min": 10,
    }))
    assert main(["--scenario", str(path), "--validate-only"]) == 1
    out = capsys.readouterr().out
    assert "violation: population.subgroup_rel_width" in out
    assert "OK" not in out
    assert main(["--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "invalid scenario: population.subgroup_rel_width" in capsys.readouterr().err


def test_repeat_runs_are_byte_identical(small_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--scenario", small_file, "--out", str(out1)]) == 0
    assert main(["--scenario", small_file, "--out", str(out2)]) == 0
    for name in ("trace.csv", "metrics.csv", "windows.csv", "bids_sample.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_changes_the_trace(small_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--scenario", small_file, "--seed", "1", "--out", str(out1)]) == 0
    assert main(["--scenario", small_file, "--seed", "2", "--out", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()


def test_bad_flag_values_exit_2(small_file, capsys):
    assert main(["--scenario", small_file, "--decimate", "0"]) == 2
    assert main(["--scenario", small_file, "--emit", "trace,bogus"]) == 2
    err = capsys.readouterr().err
    assert "--decimate" in err
    assert "bogus" in err


def test_env_var_supplies_output_root(small_file, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("TCLMARKET_OUT", str(target))
    assert main(["--scenario", small_file, "--emit", "trace"]) == 0
    assert (target / "trace.csv").exists()


@pytest.mark.parametrize("signal, field", [
    ({"kind": "constant", "level": float("nan")}, "level"),
    ({"kind": "square", "low": float("nan"), "high": 30, "period_min": 10}, "low/high"),
    ({"kind": "square", "low": 20, "high": float("nan"), "period_min": 10}, "low/high"),
    ({"kind": "step", "schedule": [[0, 42], [10, float("nan")]]}, "schedule levels"),
    ({"kind": "series", "values": [25, float("nan"), 25, 25, 25, 25]}, "values"),
])
def test_nan_base_price_is_a_violation(tmp_path, capsys, signal, field):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(
        {"population": {"count": 16}, "horizon_min": 30, "price_signal": signal}
    ))
    assert main(["--scenario", str(path), "--validate-only"]) == 1
    out = capsys.readouterr().out
    assert f"violation: price_signal.{field}" in out
    assert "OK" not in out
    assert main(["--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"invalid scenario: price_signal.{field}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "trace.csv").exists()


@pytest.mark.parametrize("fields, violation", [
    ({"population": {"count": 16, "noise_std": float("inf")}}, "population.noise_std"),
    ({"population": {"count": 16, "noise_std": float("nan")}}, "population.noise_std"),
    ({"population": {"count": 16, "p_mean": 1e308, "p_rel_width": 0.5}},
     "population: largest possible capacity"),
    ({"population": {"count": 16, "p_mean": 1e200, "r_mean": 1e200}},
     DRAWN + "P*R=inf degC must be finite"),
    ({"population": {"count": 16}, "feeder_limit_kw": float("nan")}, "feeder_limit_kw"),
    ({"population": {"count": 16}, "feeder_fraction": float("nan")}, "feeder_fraction"),
    ({"population": {"count": 16}, "lookahead_s": float("nan")}, "lookahead_s"),
    ({"population": {"count": 16}, "market_interval_min": float("nan")}, "market_interval_min"),
    ({"population": {"count": 16}, "horizon_min": float("nan")}, "horizon_min"),
    ({"population": {"count": 16}, "horizon_min": float("inf")}, "horizon_min"),
    ({"population": {"count": 16}, "h_seconds": float("nan")}, "h_seconds"),
    ({"population": {"count": 16, "deadband": float("nan")}}, "population.deadband"),
    ({"population": {"count": 16, "theta_set_width": float("nan")}},
     "population.theta_set_width"),
    ({"population": {"count": 16, "gamma_range": [10, float("nan")]}}, "population.gamma_range"),
    ({"population": {"count": 16, "theta_ambient": float("nan")}}, "population.theta_ambient"),
    ({"population": {"count": 16, "theta_ambient": float("inf")}}, "population.theta_ambient"),
    ({"population": {"count": 16, "theta_set_mean": float("nan")}},
     "population.theta_set_mean"),
    ({"population": {"count": 16}, "price_tick": float("nan"), "feeder_limit_kw": 1.0},
     "price_tick"),
    ({"population": {"count": 16}, "lookahead_s": 1e308}, "lookahead_s (1e+308) spans 1e+307"),
    ({"population": {"count": 16}, "horizon_min": 1e308}, "horizon_min (1e+308) spans inf"),
    ({"population": {"count": 16}, "h_seconds": 1e-300}, "horizon_min (30) spans 1.8e+303"),
    ({"population": {"count": 16}, "horizon_min": 10.000000001},
     "horizon_min (10.000000001) must be a whole number of market intervals (5.0 min)"),
    ({"population": {"count": 16}, "h_seconds": 10.000000000001},
     "market_interval_min (5.0 min) must be a whole number of physics steps"),
    ({"population": {"count": 16}, "horizon_min": 120, "market_interval_min": 60,
      "h_seconds": 10, "lookahead_s": 0},
     "market_interval_min (60 min) is too long: window_min (120) must span at least 4"),
    ({"population": {"count": 16}, "feeder_limit_kw": 1.0, "price_tick": 1e-300},
     "price_tick (1e-300) must be at least the float spacing 7.11e-15 at the largest "
     "possible bid price (40 $/MWh)"),
    ({"population": {"count": 2**52}}, "population.count must be below 2**52"),
    ({"population": {"count": 1000, "c_mean": 5e-324, "c_rel_width": 0.6}, "horizon_min": 15},
     DRAWN + "C, R, P and eta must all be positive, C and R finite, got C=0.0,"),
    ({"population": {"count": 5, "r_mean": 5e-324, "r_rel_width": 0.9, "p_mean": 1e307,
                     "theta_set_mean": 1e-300, "deadband": 1e-20}, "horizon_min": 15},
     DRAWN + "C, R, P and eta must all be positive, C and R finite, got C=9.0, R=0.0,"),
    ({"population": {"count": 40, "c_mean": 1.7e308, "c_rel_width": 0.5}, "horizon_min": 15},
     DRAWN + "C, R, P and eta must all be positive, C and R finite, got C=inf,"),
    ({"population": {"count": 7, "p_mean": 2.3113197448229774e+307, "eta_mean": 0.9,
                     "r_mean": 1e-300}, "horizon_min": 15},
     "population: largest possible capacity count*P/eta must be finite"),
    ({"population": {"count": 10, "p_mean": 1e-300, "r_mean": 1e300, "eta_mean": 1e300},
      "horizon_min": 15},
     DRAWN + "P/eta must be positive and finite"),
    ({"population": {"count": 5, "theta_set_mean": 1.7e308, "theta_ambient": 1.79e308,
                     "deadband": 2e307, "p_mean": 1e307, "r_mean": 3}, "horizon_min": 15},
     DRAWN + "theta_set +/- deadband/2 must be finite, got theta_set=1.7e+308"),
    ({"population": {"count": 40, "subgroups": 4, "gamma_range": [1.7e308, 1.7e308],
                     "subgroup_rel_width": 0.1, "p0_range": [20.0, 21.0],
                     "p_cap_range": [30.0, 40.0]}, "horizon_min": 15},
     DRAWN + "bid slopes must be finite and >= 0, got gamma1=1.53e+308, gamma2=inf (at the "
     "corner C=9.0, R=2.0, P=14.0, eta=2.5, theta_set=20.0, deadband=0.5, p0=0.0, p_cap=28.125"),
    ({"population": {"count": 5, "subgroups": 4, "gamma_range": [1.7e308, 1.7e308],
                     "subgroup_rel_width": 0.1, "p0_range": [0, 1],
                     "p_cap_range": [1.7e308, 1.7e308]}, "horizon_min": 15},
     DRAWN + "bid slopes must be finite and >= 0, got gamma1=1.53e+308, gamma2=inf (at the "
     "corner C=9.0, R=2.0, P=14.0, eta=2.5, theta_set=20.0, deadband=0.5, p0=0.0, "
     "p_cap=1.53e+308"),
    ({"population": {"count": 5, "subgroups": 4, "p0_range": [0, 1.7e308],
                     "p_cap_range": [1.7e308, 1.7e308], "subgroup_rel_width": 0.5},
      "horizon_min": 15},
     "population.subgroup_rel_width 0.5 lets p0 exceed p_cap in 3 of 4 subgroups"),
    ({"population": {"count": 5, "p_cap_range": [1.7e308, 1.7e308],
                     "p0_range": [1.7e308, 1.7e308]}, "horizon_min": 15, "price_tick": 1e300},
     "population: the total of all bids must be finite, but count*p_cap (5*1.7e+308 $/MWh)"),
])
def test_unrunnable_population_or_limit_is_a_violation(tmp_path, capsys, fields, violation):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"horizon_min": 30, **fields}))
    assert main(["--scenario", str(path), "--validate-only"]) == 1
    out = capsys.readouterr().out
    assert f"violation: {violation}" in out
    assert "OK" not in out
    assert main(["--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"invalid scenario: {violation}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "trace.csv").exists()


@pytest.mark.parametrize("fields, flags, violation", [
    ({"population": {"count": 16.0}}, [], "population.count must be an integer"),
    ({"population": {"count": "abc"}}, [], "population.count must be an integer"),
    ({"population": {"count": True}}, [], "population.count must be an integer"),
    ({"population": {"count": 16, "subgroups": 2.5}}, [],
     "population.subgroups must be an integer"),
    ({"population": {"count": 16}, "seed": -1}, [], "seed must be >= 0"),
    ({"population": {"count": 16}}, ["--seed", "-1"], "seed must be >= 0"),
    ({"population": {"count": 16}, "seed": 1.5}, [], "seed must be an integer"),
    ({"population": {"count": 16}, "seed": True}, [], "seed must be an integer"),
    ({"population": {"count": 16, "deadband": "x"}}, [], "population.deadband must be a number"),
    ({"population": {"count": 16, "theta_ambient": None}}, [],
     "population.theta_ambient must be a number"),
    ({"population": {"count": 16}, "horizon_min": "30"}, [], "horizon_min must be a number"),
    ({"population": {"count": 16}, "price_signal": {"kind": "constant", "level": "x"}}, [],
     "price_signal.level"),
    ({"population": {"count": 16, "p0_range": 5}}, [], "population.p0_range must be two numbers"),
    ({"population": {"count": 16, "p0_range": [1, 2, 3]}}, [],
     "population.p0_range must be two numbers"),
    ({"population": {"count": 16}, "price_signal": {"kind": "series"}}, [],
     "price_signal.values must be non-empty"),
    ({"population": {"count": 16}, "price_signal": {"kind": "series", "values": 5}}, [],
     "price_signal.values must be a list of prices"),
    # a field the kind does not read would be echoed as if it applied
    ({"population": {"count": 16},
      "price_signal": {"kind": "constant", "level": 5, "low": 3, "values": [1]}}, [],
     "price_signal.low is not read by kind 'constant'"),
    ({"population": {"count": 16},
      "price_signal": {"kind": "constant", "level": 5, "low": 3, "values": [1]}}, [],
     "price_signal.values is not read by kind 'constant'"),
    ({"population": {"count": 16},
      "price_signal": {"kind": "step", "schedule": [[0, 30]], "offset_min": 5}}, [],
     "price_signal.offset_min is not read by kind 'step'"),
    ({"population": {"count": 16},
      "price_signal": {"kind": "series", "values": [20] * 6, "level": 20}}, [],
     "price_signal.level is not read by kind 'series'"),
    ({"population": {"count": 16},
      "price_signal": {"kind": "square", "low": 20, "high": 30, "period_min": 10,
                       "schedule": [[0, 30]]}}, [],
     "price_signal.schedule is not read by kind 'square'"),
])
def test_malformed_value_is_a_violation(tmp_path, capsys, fields, flags, violation):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"horizon_min": 30, **fields}))
    assert main(["--scenario", str(path), "--validate-only", *flags]) == 1
    captured = capsys.readouterr()
    assert f"violation: {violation}" in captured.out
    assert "OK" not in captured.out
    assert "Traceback" not in captured.err
    assert main(["--scenario", str(path), "--out", str(tmp_path / "o"), *flags]) == 1
    err = capsys.readouterr().err
    assert f"invalid scenario: {violation}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "trace.csv").exists()


@pytest.mark.parametrize("part, document", [
    ("population", {"horizon_min": 30, "population": None}),
    ("price_signal", {"horizon_min": 30, "price_signal": None}),
    ("scenario", [1, 2]),   # the whole document, not one part of it
], ids=["population", "price_signal", "scenario"])
def test_null_population_or_price_signal_is_an_error(tmp_path, capsys, part, document):
    path = tmp_path / "null.json"
    path.write_text(json.dumps(document))
    for flags in (["--validate-only"], ["--out", str(tmp_path / "o")]):
        assert main(["--scenario", str(path), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {part} must be a JSON object\n"
        assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_more_subgroups_than_an_int64_label_product_holds_run(tmp_path, capsys):
    # np.arange(1000) * K wraps in int64 for this K; each load is its own subgroup
    path = tmp_path / "many.json"
    path.write_text(json.dumps(
        {"horizon_min": 5, "population": {"count": 1000, "subgroups": 10**16}}
    ))
    assert main(["--scenario", str(path), "--validate-only"]) == 0
    out = tmp_path / "o"
    assert main(["--scenario", str(path), "--out", str(out)]) == 0
    assert read_lines(out / "metrics.csv")[0].split(",")[-1] == "subgroup999_sync_index"


def _limit_address_space():
    """Cap this process's address space at 16 GiB (or its hard limit, if lower)."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 16 * 2**30 if hard == resource.RLIM_INFINITY else min(16 * 2**30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


@pytest.mark.parametrize("scenario, flags", [
    ({"horizon_min": 30, "population": {"count": 10**13, "subgroups": 10**13}},
     ["--validate-only"]),
    ({"horizon_min": 5, "population": {"count": 10**13}}, ["--out", "o"]),
], ids=["validate", "run"])
def test_refused_allocation_is_an_error_not_a_traceback(tmp_path, scenario, flags):
    # 10**13 loads or subgroups ask for 72.8 TiB per array; under an address
    # space cap far below that, the refusal does not depend on the host's
    # overcommit policy
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(scenario))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "tclmarket.cli", "--scenario", str(path), *flags],
        cwd=tmp_path, preexec_fn=_limit_address_space, capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error: not enough memory: Unable to allocate 72.8 TiB")
    assert "Traceback" not in result.stderr and result.stdout == ""


# theta_ambient - theta_set passes float64: the duty is 1 without a warning
HOT_DUTY = {"count": 5, "theta_ambient": 1.7e308, "theta_set_mean": -1e308, "deadband": 1e293,
            "p_mean": 1e293}


@pytest.mark.parametrize("population", [
    {"count": 16, "theta_ambient": 1e308}, {"count": 16, "noise_std": 1e308}, HOT_DUTY,
], ids=["theta_ambient", "noise_std", "duty"])
def test_values_too_large_to_simulate_exit_1_without_output(tmp_path, capsys, population):
    # accepted by the validator, but theta or its spread overflows float64
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"population": population, "horizon_min": 30}))
    out = tmp_path / "o"
    assert main(["--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: physics step 0 ") and "left the finite range" in err
    assert "Traceback" not in err
    assert os.listdir(out) == []


def test_bid_slopes_that_overflow_on_noisy_temperatures_run(tmp_path):
    # gamma*(theta - theta_set) passes float64 once noise of 1e150 degC moves
    # theta; the band overrides and the clamp give every bid without a warning
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({"population": {"count": 5, "noise_std": 1e150,
                                               "gamma_range": [10, 1e300]}, "horizon_min": 15}))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
    assert len(read_lines(tmp_path / "o" / "trace.csv")) == 4


def test_a_duty_past_float64_draws_every_load_on():
    assert generate_population(PopulationSpec(**HOT_DUTY), 0).m.all()


def test_interval_too_short_for_a_float_window_count_runs(tmp_path):
    # 120 / 1e-307 overflows to inf; the window count must not round it
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"population": {"count": 4}, "horizon_min": 1e-307,
                                "market_interval_min": 1e-307, "h_seconds": 6e-306,
                                "lookahead_s": 0}))
    out = tmp_path / "o"
    assert main(["--scenario", str(path), "--out", str(out)]) == 0
    assert len(read_lines(out / "trace.csv")) == 2
    assert len(read_lines(out / "windows.csv")) == 1


# Short decimals that often tile each other, mixed with values no grid takes.
EXTREME = [1e308, -1e308, 1e-300, float("nan"), float("inf"), 0, -5, "5", None, True, [5]]


def _grid_value(*short, weight=8):
    return st.sampled_from(list(short) * weight + EXTREME)


TIMES = _grid_value(0, 0.3, 0.6, 1, 5, 10, 30, weight=3)
LEVELS = st.sampled_from([0, 10.0, 25.0, 35.0, 1e308])
SIGNALS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant"), "level": LEVELS}),
    st.lists(st.tuples(TIMES, LEVELS).map(list), max_size=2).map(
        lambda pairs: {"kind": "step", "schedule": [[0, 30.0], *pairs]}),
    st.fixed_dictionaries({"kind": st.just("square"), "low": LEVELS, "high": LEVELS,
                           "period_min": TIMES, "offset_min": TIMES}),
    st.lists(LEVELS, max_size=30).map(lambda values: {"kind": "series", "values": values}),
)
SCENARIOS = st.fixed_dictionaries({
    "population": st.fixed_dictionaries({"count": st.integers(1, 16),
                                         "deadband": _grid_value(0.1, 0.5, 2)}),
    "feeder_limit_kw": st.sampled_from([10.0, 30.0]),
    "horizon_min": _grid_value(0.6, 1.2, 3, 6, 30, 120),
    "market_interval_min": _grid_value(0.1, 0.2, 0.3, 0.5, 1, 5),
    "h_seconds": _grid_value(0.5, 1, 2, 3, 6, 10),
    "lookahead_s": _grid_value(0, 2, 6, 30, 150),
    "price_signal": SIGNALS,
})


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@settings(max_examples=500, deadline=None)
@given(SCENARIOS)
# theta_set -/+ deadband/2 round to theta_set: no band for the phases to span
@example({"population": {"count": 1, "deadband": 1e-300}, "feeder_limit_kw": 10.0,
          "horizon_min": 30, "market_interval_min": 5, "h_seconds": 10, "lookahead_s": 150,
          "price_signal": {"kind": "constant", "level": 25.0}})
def test_every_accepted_time_grid_runs_and_every_other_is_listed(grid):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(grid, fh)
        code, out, err = _main(["--scenario", path, "--validate-only"])
        if code == 1:
            assert out.startswith("violation: ") and "OK" not in out and err == ""
            return
        assert code == 0 and out.startswith("OK\n"), (out, err)
        # sized from the floats, so that no huge plan is laid out
        steps = grid["horizon_min"] * (60 + grid["lookahead_s"] / grid["market_interval_min"])
        if grid["population"]["count"] * steps / grid["h_seconds"] > 10**4:
            return
        plan = Scenario.from_dict(grid).plan()
        out_dir = os.path.join(tmp, "out")
        code, out, err = _main(["--scenario", path, "--out", out_dir,
                                "--emit", "trace,metrics,bids,steps"])
        assert code == 0, err
        trace = _assert_honest_csvs(out_dir, grid["feeder_limit_kw"])
        assert [float(row["base_price_usd_per_mwh"]) for row in trace] == plan.base_price.tolist()


def _assert_honest_csvs(out_dir, limit):
    """Check the CSVs of a run with every table emitted; returns the rows of trace.csv.

    Cleared and realized demand stay within the feeder limit, exactly, and
    realized within cleared; every cell is finite.
    """
    trace = _csv_rows(os.path.join(out_dir, "trace.csv"))
    for row in trace:
        cleared, realized = float(row["cleared_demand_kw"]), float(row["avg_demand_kw"])
        assert cleared <= limit and realized <= limit and realized <= cleared, row
    for name in ("trace.csv", "metrics.csv", "windows.csv", "bids_sample.csv", "steps.csv"):
        for row in _csv_rows(os.path.join(out_dir, name)):
            # a window of constant demand has no period, and says so with NaN
            if name == "windows.csv" and float(row["demand_p2p_kw"]) == 0.0:
                del row["dominant_period_min"]
            assert all(np.isfinite(float(x)) for x in row.values()), (name, row)
    return trace


def test_a_deadband_under_two_float_spacings_runs(tmp_path):
    # 5e-15 degC at set-points of 20 +/- 1e-14 is below twice the float
    # spacing 3.55e-15 there, which validation once required, yet every drawn
    # load keeps a band: its half exceeds half the spacing
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps({
        "population": {"count": 50, "deadband": 5e-15, "theta_set_width": 1e-14},
        "horizon_min": 240, "feeder_limit_kw": 150.0}))
    assert _main(["--scenario", str(path), "--validate-only"])[0] == 0
    out_dir = str(tmp_path / "o")
    code, _, err = _main(["--scenario", str(path), "--out", out_dir,
                          "--emit", "trace,metrics,bids,steps"])
    assert code == 0, err
    trace = _assert_honest_csvs(out_dir, 150.0)
    assert any(row["constrained"] == "1" for row in trace)


def _oracle_table(path, columns):
    """The rule the writers followed before: csv.writer over one cell per value."""
    def fmt(x):
        if isinstance(x, (bool, np.bool_)):
            return "1" if x else "0"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return repr(float(x))

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([header for header, _ in columns])
        for row in zip(*(column for _, column in columns)):
            writer.writerow([fmt(x) for x in row])


@pytest.mark.parametrize("length", [
    0, 1, TABLE_CHUNK_ROWS - 1, TABLE_CHUNK_ROWS, TABLE_CHUNK_ROWS + 1, 3 * TABLE_CHUNK_ROWS + 5,
])
def test_write_table_matches_csv_writer_bytes(tmp_path, length):
    floats = [-0.0, 0.0, 5e-324, 1e308, -1e308, 1 / 3, 2.0, -7.0, 1e16, 123456789.0,
              0.1, 1e-5, float("inf"), float("nan")]
    columns = [
        ("flag", np.resize(np.array([True, False, False]), length)),
        ("count", np.resize(np.array([0, -3, 2**62, 17], dtype=np.int64), length)),
        ("value_kw", np.resize(np.array(floats), length)),
        ("strided", np.resize(np.array(floats), (length, 2))[:, 1]),
    ]
    _write_table(str(tmp_path / "table.csv"), columns)
    _oracle_table(str(tmp_path / "oracle.csv"), columns)
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("decimate", [1, 7])
def test_write_steps_csv_matches_csv_writer_bytes(tmp_path, decimate):
    trace = run(Scenario(population=PopulationSpec(count=16, noise_std=0.01),
                         horizon_min=60.0, seed=5))
    n_steps = len(trace.step_power_kw)
    kept = range(0, n_steps, decimate)
    write_steps_csv(str(tmp_path / "steps.csv"), trace, decimate)
    _oracle_table(str(tmp_path / "oracle.csv"), [
        ("step", list(kept)),
        # step k ends at (k + 1) * h / 60 min
        ("time_min", (np.arange(1, n_steps + 1) * trace.scenario.h_seconds / 60.0)[::decimate]),
        ("power_kw", trace.step_power_kw[::decimate]),
        ("on_fraction", trace.step_on_fraction[::decimate]),
        ("theta_mean_degc", trace.step_theta_mean[::decimate]),
        ("theta_std_degc", trace.step_theta_std[::decimate]),
    ])
    assert (tmp_path / "steps.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert len((tmp_path / "steps.csv").read_bytes().split(b"\r\n")) == 2 + len(kept)
