"""Command-line driver: run scenarios, validate configs, write CSV artifacts.

Built-in scenarios cover the canonical experiments (price-step
synchronization, heterogeneous set-points, fluctuating prices, the pulse
train, bid-curve subgroups, and an unconstrained natural-cycling
baseline); any other scenario comes from a JSON file with the same schema
``Scenario.to_json`` emits.

Outputs (selected with --emit, all CSV with units in the header row):
  scenario.json   resolved configuration echo (always written)
  trace.csv       one row per market interval
  metrics.csv     per-interval synchronization statistics
  windows.csv     sliding-window oscillation statistics
  bids_sample.csv bid-price evolution for 20 sampled TCLs
  steps.csv       per-physics-step records, optionally decimated
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from .engine import Trace, run
from .metrics import WINDOW_MIN, MetricsReport, compute_metrics
from .scenario import PopulationSpec, PriceSignal, Scenario, ScenarioError

__all__ = ["main", "builtin_scenario", "load_scenario", "BUILTIN_SCENARIOS"]

ENV_OUT = "TCLMARKET_OUT"
EMIT_CHOICES = ("trace", "metrics", "bids", "steps")
DEFAULT_EMIT = "trace,metrics,bids"

BUILTIN_SCENARIOS: dict[str, Scenario] = {
    "stepprice": Scenario(
        name="stepprice",
        population=PopulationSpec(),
        price_signal=PriceSignal.step([(0.0, 42.0), (360.0, 20.0), (720.0, 9.0)]),
    ),
    "stepprice-hetset": Scenario(
        name="stepprice-hetset",
        population=PopulationSpec(theta_set_width=1.0),
        price_signal=PriceSignal.step([(0.0, 42.0), (360.0, 20.0), (720.0, 9.0)]),
    ),
    "fluctuating": Scenario(
        name="fluctuating",
        population=PopulationSpec(),
        price_signal=PriceSignal.square(low=20.0, high=30.0, period_min=10.0),
    ),
    # Starts at the high level; first drop to the low level at t=240 min.
    "pulsetrain": Scenario(
        name="pulsetrain",
        population=PopulationSpec(),
        price_signal=PriceSignal.square(
            low=14.0, high=24.0, period_min=480.0, offset_min=240.0
        ),
    ),
    # Four bid-curve groups with widely spaced offsets and steep slopes, so
    # a base price alternating inside the bid stack holds each group at its
    # own temperature (blocked groups pile against the price cutoff instead
    # of free-running), while the square edges march all groups between
    # their two hold points at once.
    "subgroups": Scenario(
        name="subgroups",
        population=PopulationSpec(
            subgroups=4,
            subgroup_rel_width=0.005,
            p0_range=(16.0, 28.0),
            p_cap_range=(30.0, 40.0),
            gamma_range=(3.0, 34.0),
        ),
        price_signal=PriceSignal.square(low=22.0, high=23.5, period_min=110.0),
        feeder_fraction=0.60,
    ),
    "natural": Scenario(
        name="natural",
        population=PopulationSpec(),
        price_signal=PriceSignal.constant(0.0),
        feeder_fraction=1.0,
    ),
}


def builtin_scenario(name: str) -> Scenario:
    """Resolve a built-in scenario by name."""
    try:
        return BUILTIN_SCENARIOS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; built-ins are "
            f"{', '.join(sorted(BUILTIN_SCENARIOS))}"
        ) from None


def load_scenario(spec: str) -> Scenario:
    """Resolve a scenario argument: built-in name first, then a JSON file."""
    if spec in BUILTIN_SCENARIOS:
        return builtin_scenario(spec)
    if not os.path.exists(spec):
        raise ScenarioError(
            f"scenario file not found: {spec} (and it is not a built-in name)"
        )
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"scenario file cannot be read: {spec} ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(
            f"scenario file is not UTF-8 text: {spec} ({exc.reason} at byte {exc.start})"
        ) from exc
    return Scenario.from_json(text)


# --------------------------------------------------------------------------
# CSV writers (floats via repr: shortest round-trip, byte-stable per seed)

#: Rows formatted and written at a time, so memory does not grow with length.
TABLE_CHUNK_ROWS = 1024


def _cells(column: np.ndarray) -> list[str]:
    """One column as CSV cells: bools as 1/0, ints by str, floats by repr."""
    if column.dtype == bool:
        return ["1" if x else "0" for x in column.tolist()]
    return list(map(str if column.dtype.kind in "iu" else repr, column.tolist()))


def _write_table(path: str, columns: list[tuple[str, np.ndarray]]) -> None:
    """Write (header, column) pairs as a CSV table, column by column.

    The bytes are those of ``csv.writer`` (``\\r\\n`` row ends) given the
    headers and then each row's cells; no header or cell needs quoting.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header for header, _ in columns) + "\r\n")
        for start in range(0, len(columns[0][1]), TABLE_CHUNK_ROWS):
            cells = [_cells(column[start : start + TABLE_CHUNK_ROWS]) for _, column in columns]
            fh.write("".join(",".join(row) + "\r\n" for row in zip(*cells)))


def write_trace_csv(path: str, trace: Trace) -> None:
    _write_table(path, [
        ("interval", np.arange(trace.n_intervals)),
        ("time_min", trace.time_min),
        ("base_price_usd_per_mwh", trace.base_price),
        ("clearing_price_usd_per_mwh", trace.clearing_price),
        ("cleared_demand_kw", trace.cleared_demand_kw),
        ("base_demand_kw", trace.base_demand_kw),
        ("constrained", trace.constrained),
        ("avg_demand_kw", trace.avg_demand_kw),
        ("n_dispatched", trace.n_dispatched),
        ("bid_price_min_usd_per_mwh", trace.bid_price_min),
        ("bid_price_mean_usd_per_mwh", trace.bid_price_mean),
        ("bid_price_max_usd_per_mwh", trace.bid_price_max),
    ])


def write_metrics_csv(path: str, trace: Trace, report: MetricsReport) -> None:
    """Per-interval synchronization statistics of the trace, and the report's price divergence."""
    _write_table(path, [
        ("interval", np.arange(trace.n_intervals)),
        ("time_min", trace.time_min),
        ("sync_index", trace.sync),
        ("temperature_dispersion_degc", trace.dispersion_degc),
        ("price_divergence_usd_per_mwh", report.price_divergence),
    ] + [
        (f"subgroup{g}_sync_index", sync) for g, sync in enumerate(trace.subgroup_sync)
    ])


def write_windows_csv(path: str, report: MetricsReport) -> None:
    _write_table(path, [
        ("window_start_min", report.window_start_min),
        ("window_min", np.full(report.n_windows, WINDOW_MIN)),
        ("demand_p2p_kw", report.window_p2p_kw),
        ("dominant_period_min", report.window_period_min),
        ("mean_sync_index", report.window_sync),
    ])


def write_bids_csv(path: str, trace: Trace) -> None:
    """Bid-price evolution for the TCLs the trace sampled."""
    _write_table(path, [
        ("interval", np.arange(trace.n_intervals)),
        ("time_min", trace.time_min),
    ] + [
        (f"tcl{int(i)}_bid_usd_per_mwh", trace.bid_sample[:, j])
        for j, i in enumerate(trace.bid_sample_ids)
    ])


def write_steps_csv(path: str, trace: Trace, decimate: int = 1) -> None:
    kept = slice(None, None, decimate)
    step = np.arange(len(trace.step_power_kw))[kept]
    _write_table(path, [
        ("step", step),
        ("time_min", (step + 1) * trace.scenario.h_seconds / 60.0),
        ("power_kw", trace.step_power_kw[kept]),
        ("on_fraction", trace.step_on_fraction[kept]),
        ("theta_mean_degc", trace.step_theta_mean[kept]),
        ("theta_std_degc", trace.step_theta_std[kept]),
    ])


# --------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tclmarket",
        description=(
            "Simulate market-coordinated thermostatically controlled loads "
            "under a feeder capacity limit."
        ),
    )
    parser.add_argument(
        "--scenario",
        required=True,
        help=(
            "built-in scenario name "
            f"({', '.join(sorted(BUILTIN_SCENARIOS))}) or path to a JSON file"
        ),
    )
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument(
        "--out",
        default=None,
        help=f"output directory (default: ${ENV_OUT} or ./out)",
    )
    parser.add_argument(
        "--decimate",
        type=int,
        default=1,
        help="keep every k-th physics-step record in steps.csv (default 1)",
    )
    parser.add_argument(
        "--emit",
        default=DEFAULT_EMIT,
        help=(
            "comma-separated outputs from "
            f"{{{','.join(EMIT_CHOICES)}}} (default {DEFAULT_EMIT})"
        ),
    )
    parser.add_argument(
        "--validate-only",
        action="store_true",
        help="parse and check the scenario, report every violation, do not run",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """The ``tclmarket`` command: returns its exit code.

    A reader that closes standard output early (``tclmarket ... | head``)
    ends the command with exit code 1 and no traceback, and so does an
    allocation the machine refuses, at any stage from validation to the
    writers, with an ``error:`` line.
    """
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout once more at exit: point it at devnull first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 1
    return code


def _main(argv: Optional[list[str]]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.decimate < 1:
        print("error: --decimate must be >= 1", file=sys.stderr)
        return 2
    emit = [e.strip() for e in args.emit.split(",") if e.strip()]
    bad = [e for e in emit if e not in EMIT_CHOICES]
    if bad:
        print(
            f"error: unknown --emit value(s) {', '.join(bad)}; "
            f"choose from {', '.join(EMIT_CHOICES)}",
            file=sys.stderr,
        )
        return 2

    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)

    violations = scenario.validate()
    if args.validate_only:
        if violations:
            for v in violations:
                print(f"violation: {v}")
            return 1
        print("OK")
        print(scenario.to_json())
        return 0
    if violations:
        for v in violations:
            print(f"error: invalid scenario: {v}", file=sys.stderr)
        return 1

    out_dir = args.out or os.environ.get(ENV_OUT) or "out"
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write_probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        print(f"error: output directory {out_dir!r} not writable: {exc}", file=sys.stderr)
        return 1

    try:
        trace = run(scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = compute_metrics(trace)

    with open(os.path.join(out_dir, "scenario.json"), "w", encoding="utf-8") as fh:
        fh.write(scenario.to_json() + "\n")
    written = ["scenario.json"]
    if "trace" in emit:
        write_trace_csv(os.path.join(out_dir, "trace.csv"), trace)
        written.append("trace.csv")
    if "metrics" in emit:
        write_metrics_csv(os.path.join(out_dir, "metrics.csv"), trace, report)
        write_windows_csv(os.path.join(out_dir, "windows.csv"), report)
        written += ["metrics.csv", "windows.csv"]
    if "bids" in emit:
        write_bids_csv(os.path.join(out_dir, "bids_sample.csv"), trace)
        written.append("bids_sample.csv")
    if "steps" in emit:
        write_steps_csv(os.path.join(out_dir, "steps.csv"), trace, args.decimate)
        written.append("steps.csv")

    print(f"scenario {scenario.name!r}  seed {scenario.seed}")
    print(
        f"{trace.population.size} TCLs, capacity {trace.population.capacity_kw:.1f} kW, "
        f"feeder limit {trace.feeder_limit_kw:.1f} kW"
    )
    print(
        f"{trace.n_intervals} intervals x {scenario.market_interval_min:g} min "
        f"(h={scenario.h_seconds:g} s)"
    )
    print(f"feeder hits (constrained intervals): {report.feeder_hits}")
    print(f"max sync index: {report.max_sync:.3f}")
    if report.n_windows:
        print(f"max windowed demand peak-to-peak: {report.max_p2p_kw:.1f} kW")
    else:
        print(
            f"max windowed demand peak-to-peak: none, the {scenario.horizon_min:g}-min "
            f"horizon holds no complete {WINDOW_MIN:g}-min window"
        )
    print("wrote " + ", ".join(os.path.join(out_dir, name) for name in written))
    return 0


if __name__ == "__main__":
    sys.exit(main())
