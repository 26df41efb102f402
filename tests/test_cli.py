"""Command-line driver: artifact files, validation mode, exit codes."""

import csv
import json
import os

import numpy as np
import pytest

from tclmarket.cli import (
    BUILTIN_SCENARIOS, TABLE_CHUNK_ROWS, _write_table, builtin_scenario, main, write_steps_csv,
)
from tclmarket.engine import PopulationSpec, PriceSignal, Scenario, ScenarioError, run


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


def test_unknown_builtin_lists_available_names():
    with pytest.raises(ScenarioError) as exc:
        builtin_scenario("mystery")
    for name in BUILTIN_SCENARIOS:
        assert name in str(exc.value)


def test_all_builtin_scenarios_validate():
    for name, factory in BUILTIN_SCENARIOS.items():
        scenario = factory()
        assert scenario.name == name
        assert scenario.validate() == []


def test_validate_only_accepts_and_echoes(small_file, capsys):
    assert main(["--scenario", small_file, "--validate-only"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK")
    assert '"cli-small"' in out


def test_validate_only_reports_every_violation(tmp_path, capsys):
    # 290 s market interval: horizon misaligned AND the step time off-boundary
    bad = Scenario(
        market_interval_min=290.0 / 60.0,
        price_signal=PriceSignal.step([(0.0, 42.0), (360.0, 20.0)]),
    )
    path = tmp_path / "bad.json"
    path.write_text(bad.to_json())
    assert main(["--scenario", str(path), "--validate-only"]) == 1
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("violation:")]
    assert len(lines) == 2


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
     "population: largest possible P*R"),
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


@pytest.mark.parametrize("field", ["theta_ambient", "noise_std"])
def test_values_too_large_to_simulate_exit_1_without_output(tmp_path, capsys, field):
    # accepted by the validator, but theta or its spread overflows float64
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"population": {"count": 16, field: 1e308}, "horizon_min": 30}))
    out = tmp_path / "o"
    assert main(["--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: physics step 0 ") and "left the finite range" in err
    assert "Traceback" not in err
    assert os.listdir(out) == []


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
    kept = range(0, len(trace.step_time_min), decimate)
    write_steps_csv(str(tmp_path / "steps.csv"), trace, decimate)
    _oracle_table(str(tmp_path / "oracle.csv"), [
        ("step", list(kept)),
        ("time_min", trace.step_time_min[::decimate]),
        ("power_kw", trace.step_power_kw[::decimate]),
        ("on_fraction", trace.step_on_fraction[::decimate]),
        ("theta_mean_degc", trace.step_theta_mean[::decimate]),
        ("theta_std_degc", trace.step_theta_std[::decimate]),
    ])
    assert (tmp_path / "steps.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert len((tmp_path / "steps.csv").read_bytes().split(b"\r\n")) == 2 + len(kept)
