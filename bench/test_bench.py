"""Self-tests of the benchmark: the output gate, the feeder checks, tracing."""

import csv
import json
import os
import time
import types
from dataclasses import replace

import pytest

import run
import worker
from tracer import Tracer

# sha256 prefixes of the six built-in trace.csv files at seed 0, as the
# roadmap lists them; the recorded hashes must agree.
ROADMAP_TRACE_PREFIXES = {
    "stepprice": "2b7a8c93f363eb12",
    "stepprice-hetset": "557334d417ce0fb8",
    "fluctuating": "db3e67b1730f91c2",
    "pulsetrain": "44ff85d7ba76cd40",
    "subgroups": "806d1d349c1560dd",
    "natural": "484860ea4632e962",
}


def recorded() -> dict:
    with open(run.HASHES, encoding="utf-8") as fh:
        return json.load(fh)


def a_run(key, hashes, violations=(), error=None) -> dict:
    return {"key": key, "error": error, "hashes": dict(hashes), "violations": list(violations)}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A small constrained scenario run once through the traced worker."""
    tclmarket = worker.import_package()
    base = tclmarket.cli.builtin_scenario("stepprice")
    scenario = replace(
        base,
        name="tiny",
        population=replace(base.population, count=40),
        horizon_min=60.0,
        price_signal=tclmarket.PriceSignal.step([(0.0, 42.0), (20.0, 20.0), (40.0, 9.0)]),
    )
    root = tmp_path_factory.mktemp("tiny")
    spec = str(root / "tiny.json")
    with open(spec, "w", encoding="utf-8") as fh:
        fh.write(scenario.to_json())
    started = time.perf_counter()
    rep = run.repetition([spec], 0, str(root / "rep"), 60.0, "--trace")
    return types.SimpleNamespace(
        rep=rep,
        seconds=time.perf_counter() - started,
        dir=str(root / "rep" / "0"),
        limit=worker.feeder_limit(tclmarket, scenario),
    )


def test_builtin_trace_hashes_match_roadmap():
    hashes = recorded()
    for name, prefix in ROADMAP_TRACE_PREFIXES.items():
        assert hashes[f"{name}@0"]["trace.csv"].startswith(prefix)


def test_every_workload_scenario_has_recorded_hashes():
    hashes = recorded()
    for specs in run.WORKLOADS.values():
        for spec in specs:
            assert set(hashes[f"{worker.spec_key(spec)}@0"]) == set(worker.CSV_FILES)


def test_planted_hash_mismatch_counts_as_failed_run():
    good = recorded()["stepprice@0"]
    bad = dict(good, **{"trace.csv": "0" * 64})
    attempted, failed, reasons, _ = run.count_failures(
        [{"runs": [a_run("stepprice@0", good), a_run("stepprice@0", bad)]}], recorded()
    )
    assert (attempted, failed) == (2, 1)
    assert any("recorded" in r for r in reasons)


def test_hashes_differing_between_repetitions_fail_without_a_record():
    reps = [{"runs": [a_run("stepprice@7", {"trace.csv": "a" * 64})]},
            {"runs": [a_run("stepprice@7", {"trace.csv": "b" * 64})]}]
    attempted, failed, reasons, seen = run.count_failures(reps, recorded())
    assert (attempted, failed) == (2, 1)
    assert seen["stepprice@7"]["trace.csv"] == "a" * 64


def test_tiny_traced_run_end_to_end(tiny):
    assert tiny.seconds < 30
    (result,) = tiny.rep["runs"]
    assert result["error"] is None and result["violations"] == []
    assert set(result["hashes"]) == set(worker.CSV_FILES)
    assert tiny.rep["absent"] == []
    layers = tiny.rep["layers"]
    for module in ("population", "bidding", "market", "engine", "metrics", "cli"):
        assert any(v > 0 for k, v in layers.items() if k.startswith(module + "."))
    assert layers["market.constrained"] > 0
    assert layers["population.load_steps"] == 40 * 12 * 30
    assert run.trace_problems(tiny.rep) == []
    attempted, failed, _, _ = run.count_failures([tiny.rep], recorded())
    assert (attempted, failed) == (1, 0)


def test_planted_unlisted_span_makes_traced_result_incorrect(tiny, monkeypatch, capsys):
    # A span whose name has no self-time metric drops its time from the
    # per-layer figures; the check must notice, and the result is incorrect.
    tracer = Tracer()
    tracer.span("cli.main", tracer.span, "cli.write_unlisted_csv", time.sleep, 0.01)
    traced_wall_s = tracer.times()[2]
    planted = dict(tiny.rep, layers=worker.layer_metrics(tracer, 0),
                   traced_wall_s=traced_wall_s, wall_s=traced_wall_s)
    assert any("reported self times" in p for p in run.trace_problems(planted))

    monkeypatch.setattr(run, "repetition",
                        lambda specs, seed, path, timeout, *flags: planted if flags else tiny.rep)
    args = ["--workload", "crowd-100k", "--seed", "0", "--seconds", "0", "--trace", "1"]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 0


def test_traced_wall_must_match_host_wall(tiny):
    slow = dict(tiny.rep, wall_s=tiny.rep["wall_s"] + 0.5)
    assert any("host wall" in p for p in run.trace_problems(slow))


def test_planted_invariant_violation_counts_as_failed_run(tiny):
    path = os.path.join(tiny.dir, "trace.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("avg_demand_kw")
    rows[1][column] = repr(tiny.limit * 1.5)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    hashes, violations = worker.check_outputs(tiny.dir, tiny.limit)
    assert len(violations) == 2  # above the limit, and above the cleared demand
    attempted, failed, _, _ = run.count_failures(
        [{"runs": [a_run("tiny@0", hashes, violations)]}], recorded()
    )
    assert (attempted, failed) == (1, 1)


def test_missing_or_idle_names_are_reported_not_fatal():
    tracer = Tracer()
    tracer.wrap(types.SimpleNamespace(), "build_demand_curve", "market.build_demand_curve")
    assert tracer.absent == ["market.build_demand_curve"]
    layers = worker.layer_metrics(tracer, 0)
    assert layers["market.build_demand_curve_s"] == 0.0
    assert layers["market.bids_per_s"] == 0.0


def test_self_times_cover_nested_spans_once():
    tracer = Tracer()
    tracer.span("outer", lambda: [tracer.span("inner", time.sleep, 0.01) for _ in range(2)])
    self_s, inclusive_s, root_s = tracer.times()
    assert inclusive_s["inner"] >= 0.02
    assert self_s["outer"] + self_s["inner"] == pytest.approx(root_s, rel=1e-12)
    assert self_s["outer"] < inclusive_s["inner"]


def test_uniform_slowdown_cancels_in_scaled_times(monkeypatch, capsys):
    # A repetition on a machine twice as slow takes twice as long for the
    # package and for the reference kernel alike; the scaled times agree.
    def rep(slow):
        return {"wall_s": 2.0 * slow, "walls": [2.0 * slow], "setup_s": 0.5 * slow,
                "load_intervals": 1000, "peak_rss_mb": 50.0,
                "reference_s": [0.1 * slow, 0.1 * slow], "runs": []}

    reps = iter([rep(1.0), rep(2.0), rep(2.0)])
    monkeypatch.setattr(run, "repetition", lambda *args: next(reps))
    assert run.main(["--workload", "crowd-100k", "--seed", "0", "--seconds", "0"]) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    scale = run.REFERENCE_S / 0.1
    assert metrics["wall_s"]["value"] == pytest.approx(2.0 * scale)
    assert metrics["setup_s"]["value"] == pytest.approx(0.5 * scale)
    assert metrics["load_intervals_per_s"]["value"] == pytest.approx(1000 / (2.0 * scale))
