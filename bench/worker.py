"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage (from the repository root):

    python3 bench/worker.py --specs stepprice,natural --seed 0 \
        --out .bench_out/rep --result .bench_out/rep.json [--trace]

The repetition first times set-up: ``import tclmarket``, resolving and
validating every scenario, and one ``generate_population`` call. It then
runs each scenario through the command line entry point, as a user would,
with every output enabled, and times each call. With ``--trace`` the
package's public names are wrapped first and per-layer figures come out as
well. Outputs are checked after the timed part: the sha256 of every CSV,
and the feeder invariants read back from ``trace.csv``. The reference
kernel is timed right before each scenario and after the last one. Results
go to ``--result`` as JSON, in host seconds.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import sys
import traceback
from dataclasses import replace
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402

EMIT = "trace,metrics,bids,steps"
CSV_FILES = ("trace.csv", "metrics.csv", "windows.csv", "bids_sample.csv", "steps.csv")
WRITERS = ("trace", "metrics", "windows", "bids", "steps")

# Self-second metrics: metric name -> span name. ``engine.run_s`` is the
# one inclusive figure; ``engine.self_s`` is run() minus its wrapped callees.
SELF_METRICS = {
    "market.build_demand_curve_s": "market.build_demand_curve",
    "market.clear_s": "market.clear",
    "engine.self_s": "engine.run",
    "engine.price_signal_value_s": "engine.price_signal_value",
    "population.step_physics_s": "population.step_physics",
    "population.aggregate_power_s": "population.aggregate_power",
    "population.set_dispatch_s": "population.set_dispatch",
    "population.generate_population_s": "population.generate_population",
    "bidding.predict_temperatures_s": "bidding.predict_temperatures",
    "bidding.bid_prices_s": "bidding.bid_prices",
    "metrics.compute_metrics_s": "metrics.compute_metrics",
    "metrics.sync_index_s": "metrics.sync_index",
    "cli.main_self_s": "cli.main",
    **{f"cli.write_{w}_csv_s": f"cli.write_{w}_csv" for w in WRITERS},
}
CALL_METRICS = {
    "population.step_physics_calls": ("population.step_physics",),
    "population.aggregate_power_calls": ("population.aggregate_power",),
    "metrics.sync_index_calls": ("metrics.sync_index",),
    "bidding.calls": ("bidding.predict_temperatures", "bidding.bid_prices"),
}
COUNT_METRICS = ("market.bids", "market.price_levels", "market.constrained", "population.load_steps")


def import_package():
    """Import tclmarket from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "tclmarket", "__init__.py")):
        raise SystemExit(f"no package source at {SRC}/tclmarket")
    sys.path.insert(0, SRC)
    import tclmarket
    import tclmarket.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(tclmarket.__file__))) != SRC:
        raise SystemExit(f"imported tclmarket from {tclmarket.__file__}, not {SRC}")
    return tclmarket


def spec_key(spec: str) -> str:
    """Scenario key used in the hash table: built-in name or file stem."""
    return os.path.splitext(os.path.basename(spec))[0]


def install(tracer: Tracer, tclmarket) -> None:
    """Wrap each layer's entry points where their callers look them up."""
    engine, cli, metrics = tclmarket.engine, tclmarket.cli, tclmarket.metrics

    def count_bids(counts, args, curve):
        counts["market.bids"] += len(args[0])
        counts["market.price_levels"] += len(curve)

    def count_constrained(counts, args, result):
        counts["market.constrained"] += bool(result.constrained)

    def count_load_steps(counts, args, result):
        counts["population.load_steps"] += args[0].size

    tracer.wrap(engine, "build_demand_curve", "market.build_demand_curve", count_bids)
    tracer.wrap(engine, "clear", "market.clear", count_constrained)
    tracer.wrap(engine, "predict_temperatures", "bidding.predict_temperatures")
    tracer.wrap(engine, "bid_prices", "bidding.bid_prices")
    tracer.wrap(engine, "price_signal_value", "engine.price_signal_value")
    tracer.wrap(engine, "aggregate_power", "population.aggregate_power")
    tracer.wrap(engine, "generate_population", "population.generate_population")
    tracer.wrap(tclmarket.Population, "step_physics", "population.step_physics", count_load_steps)
    tracer.wrap(tclmarket.Population, "set_dispatch", "population.set_dispatch")
    tracer.wrap(cli, "run", "engine.run")
    tracer.wrap(cli, "compute_metrics", "metrics.compute_metrics")
    tracer.wrap(metrics, "sync_index", "metrics.sync_index")
    for w in WRITERS:
        tracer.wrap(cli, f"write_{w}_csv", f"cli.write_{w}_csv")


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict:
    """Reduce the spans to the per-layer figures (no trace.wall_ratio)."""
    self_s, inclusive_s, _ = tracer.times()
    calls = tracer.calls()
    out = {metric: self_s.get(span, 0.0) for metric, span in SELF_METRICS.items()}
    out["engine.run_s"] = inclusive_s.get("engine.run", 0.0)
    for metric, spans in CALL_METRICS.items():
        out[metric] = sum(calls[s] for s in spans)
    for metric in COUNT_METRICS:
        out[metric] = tracer.counts[metric]
    market_s = out["market.build_demand_curve_s"] + out["market.clear_s"]
    out["market.bids_per_s"] = out["market.bids"] / market_s if market_s > 0 else 0.0
    out["cli.bytes_written"] = bytes_written
    return out


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def feeder_violations(trace_csv: str, limit: float) -> list[str]:
    """Exact checks per interval: cleared <= limit, realized <= limit and
    realized <= cleared, with realized the interval-average demand."""
    errs = []
    with open(trace_csv, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            cleared = float(row["cleared_demand_kw"])
            avg = float(row["avg_demand_kw"])
            t = row["interval"]
            if not cleared <= limit:
                errs.append(f"interval {t}: cleared {cleared!r} > limit {limit!r}")
            if not avg <= limit:
                errs.append(f"interval {t}: avg demand {avg!r} > limit {limit!r}")
            if not avg <= cleared:
                errs.append(f"interval {t}: avg demand {avg!r} > cleared {cleared!r}")
    return errs


def feeder_limit(tclmarket, scenario, capacity_kw=None) -> float:
    """The limit as run() derives it, from the drawn population's capacity."""
    if scenario.feeder_limit_kw is not None:
        return float(scenario.feeder_limit_kw)
    if capacity_kw is None:
        capacity_kw = tclmarket.generate_population(scenario.population, scenario.seed).capacity_kw
    return scenario.feeder_fraction * capacity_kw


def check_outputs(out_dir: str, limit: float) -> tuple[dict, list[str]]:
    """Hashes of every CSV, and every feeder-invariant violation."""
    hashes, errs = {}, []
    for name in CSV_FILES:
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            hashes[name] = sha256(path)
        else:
            errs.append(f"{name} was not written")
    if "trace.csv" in hashes:
        errs += feeder_violations(os.path.join(out_dir, "trace.csv"), limit)
    return hashes, errs


def repetition(specs: list[str], seed: int, out: str, traced: bool) -> dict:
    t0 = perf_counter()
    tclmarket = import_package()
    scenarios = [replace(tclmarket.cli.load_scenario(s), seed=seed) for s in specs]
    for spec, scenario in zip(specs, scenarios):
        errs = scenario.validate()
        if errs:
            raise SystemExit(f"{spec}: invalid scenario: {'; '.join(errs)}")
    first = tclmarket.generate_population(scenarios[0].population, seed)
    setup_s = perf_counter() - t0
    from reference import reference_seconds  # imports numpy, so after set-up is timed

    capacity0 = first.capacity_kw
    del first

    tracer = Tracer() if traced else None
    if tracer is not None:
        install(tracer, tclmarket)
    runs, walls, load_intervals, reference_s = [], [], 0, []
    for i, (spec, scenario) in enumerate(zip(specs, scenarios)):
        reference_s.append(reference_seconds())
        run_dir = os.path.join(out, str(i))
        argv = ["--scenario", spec, "--seed", str(seed), "--out", run_dir, "--emit", EMIT]
        error = None
        start = perf_counter()
        try:
            if tracer is None:
                code = tclmarket.cli.main(argv)
            else:
                code = tracer.span("cli.main", tclmarket.cli.main, argv)
        except (Exception, SystemExit):
            code, error = None, traceback.format_exc()
        walls.append(perf_counter() - start)
        if error is None and code != 0:
            error = f"exit code {code}"
        runs.append({"key": f"{spec_key(spec)}@{seed}", "dir": run_dir, "error": error})
        load_intervals += scenario.population.count * scenario.n_intervals
    reference_s.append(reference_seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()

    bytes_written = 0
    for i, (run, scenario) in enumerate(zip(runs, scenarios)):
        run["hashes"], run["violations"] = {}, []
        if run["error"] is None:
            limit = feeder_limit(tclmarket, scenario, capacity0 if i == 0 else None)
            run["hashes"], run["violations"] = check_outputs(run["dir"], limit)
        for entry in os.scandir(run["dir"]) if os.path.isdir(run["dir"]) else ():
            bytes_written += entry.stat().st_size

    result = {"setup_s": setup_s, "wall_s": sum(walls), "walls": walls, "load_intervals": load_intervals,
              "peak_rss_mb": peak_rss_mb, "reference_s": reference_s, "runs": runs}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, bytes_written)
        result["traced_wall_s"] = tracer.times()[2]
        result["absent"] = tracer.absent
        tracer.write(os.path.join(out, "spans.csv"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--specs", required=True, help="comma-separated built-in names or JSON paths")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for this repetition's outputs")
    parser.add_argument("--result", required=True, help="JSON file the figures go to")
    parser.add_argument("--trace", action="store_true", help="wrap the layers and record spans")
    args = parser.parse_args(argv)
    result = repetition(args.specs.split(","), args.seed, args.out, args.trace)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
