"""tclmarket benchmark: end-to-end figures, or per-layer figures when traced.

Usage (from the repository root):

    python3 bench/run.py --workload paper-builtins --seed 0 --seconds 30 --trace 0

Each repetition runs in a fresh interpreter (``worker.py``), one at a time,
so set-up time and peak memory are those a user pays. Repetitions repeat
until ``--seconds`` is spent (at least ``MIN_REPS``); figures are medians.

With ``--trace 0`` the end-to-end figures are reported: ``wall_s``,
``load_intervals_per_s``, ``setup_s``, ``peak_rss_mb``. Times are scaled
to the speed at which the kernel in ``reference.py`` takes ``REFERENCE_S``,
so that the shared machine's changes of speed cancel; the host times are
printed beside them. With ``--trace 1``
untraced and traced repetitions alternate, and the per-layer figures plus
``trace.wall_ratio`` are reported.

Every scenario run is checked: it must exit 0, every CSV's sha256 must
match ``hashes.json`` (when that seed is recorded) and agree across
repetitions, and the feeder invariants must hold. A run that fails any of
these counts in ``failed``; ``error_rate`` is failed/attempted. The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from reference import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
HASHES = os.path.join(HERE, "hashes.json")

BUILTINS = ["stepprice", "stepprice-hetset", "fluctuating", "pulsetrain", "subgroups", "natural"]
WORKLOADS = {
    "paper-builtins": BUILTINS,
    "crowd-100k": ["bench/scenarios/crowd-100k.json"],
    "finestep-10k": ["bench/scenarios/finestep-10k.json"],
}
MIN_REPS = 3
HARD_LIMIT_S = 170.0  # a run must end within 180 s; stop starting work before that
SELF_SUM_TOL = 1e-6  # relative; reported self times must add up to the traced wall
HOST_TOL = 1e-3  # relative; the traced wall must match the host time around cli.main,
HOST_SLACK_S = 0.005  # give or take this much per call, for the process being preempted


def repetition(specs, seed, path, timeout, *flags) -> dict:
    """Run one worker process; a crash or timeout fails every scenario in it."""
    result = path + ".json"
    cmd = [sys.executable, WORKER, "--specs", ",".join(specs), "--seed", str(seed),
           "--out", path, "--result", result, *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
        error = proc.stderr.strip() or f"worker exit code {proc.returncode}"
        if proc.returncode == 0 and os.path.isfile(result):
            with open(result, encoding="utf-8") as fh:
                return json.load(fh)
    except subprocess.TimeoutExpired:
        error = f"worker timed out after {timeout:.0f} s"
    runs = [{"key": f"{k}@{seed}", "error": error, "hashes": {}, "violations": []} for k in specs]
    return {"runs": runs}


def count_failures(reps, recorded) -> tuple[int, int, list[str], dict]:
    """Attempted and failed scenario runs, the reasons, and the hashes seen.

    A run fails if it raised or exited non-zero, broke a feeder invariant,
    wrote a CSV whose sha256 differs from the recorded one, or wrote one
    that differs from the first repetition's.
    """
    attempted, failed, reasons, seen = 0, 0, [], {}
    for rep in reps:
        for run in rep.get("runs", []):
            attempted += 1
            problems = list(run["violations"])
            if run["error"]:
                problems.append(run["error"].strip().splitlines()[-1])
            want = recorded.get(run["key"])
            first = seen.setdefault(run["key"], run["hashes"]) if run["hashes"] else {}
            for name, digest in run["hashes"].items():
                if want is not None and want.get(name) != digest:
                    problems.append(f"{name} sha256 {digest[:16]} differs from the recorded hash")
                if first.get(name, digest) != digest:
                    problems.append(f"{name} sha256 {digest[:16]} differs between repetitions")
            if problems:
                failed += 1
                reasons += [f"{run['key']}: {p}" for p in problems]
    return attempted, failed, reasons, seen


def quartiles(values) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  (n={len(values)}, q1 {q1:.4g}, q3 {q3:.4g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tclmarket", "__init__.py")):
        print(f"error: no package source under {ROOT}/src", file=sys.stderr)
        return 2
    with open(HASHES, encoding="utf-8") as fh:
        recorded = json.load(fh)
    specs = WORKLOADS[args.workload]

    start = perf_counter()
    work = os.path.join(OUT_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    count = 0

    def launch(*flags) -> dict:
        nonlocal count
        count += 1
        timeout = max(1.0, start + HARD_LIMIT_S - perf_counter())
        return repetition(specs, args.seed, os.path.join(work, f"rep{count}"), timeout, *flags)

    def repeat(one_round, minimum: int) -> list:
        rounds, began = [], perf_counter()
        while True:
            rounds.append(one_round())
            now = perf_counter()
            each = (now - began) / len(rounds)
            if now + each > start + HARD_LIMIT_S or (len(rounds) >= minimum and now + each > deadline):
                return rounds

    try:
        deadline = start + args.seconds
        if args.trace:
            # Alternate, so that drift in machine speed hits both sides alike.
            pairs = repeat(lambda: (launch(), launch("--trace")), 1)
            plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
        else:
            plain, traced = repeat(launch, MIN_REPS), []
        spans = os.path.join(work, f"rep{count}", "spans.csv")
        if traced and os.path.isfile(spans):
            shutil.copy(spans, os.path.join(OUT_ROOT, f"spans-{args.workload}.csv"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, reasons, seen = count_failures(plain + traced, recorded)
    correct = failed == 0
    ok = [r for r in plain if "wall_s" in r]
    metrics, lines = {}, []

    def report(name, values, unit, result=True):
        if values:
            value = statistics.median(values)
            if result:
                metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name:36s} {value:.6g} {unit}{quartiles(values)}")

    if args.trace:
        done = [r for r in traced if "layers" in r]
        for r in done:
            problems = trace_problems(r)
            correct = correct and not problems
            reasons += problems
        for name in (done[0]["layers"] if done else {}):
            report(name, [r["layers"][name] for r in done], unit_of(name))
        if done and ok:
            ratio = (statistics.median(r["wall_s"] for r in done)
                     / statistics.median(r["wall_s"] for r in ok))
            report("trace.wall_ratio", [ratio], "ratio")
        absent = sorted({a for r in done for a in r["absent"]})
        if absent:
            lines.append("absent (not wrapped): " + ", ".join(absent))
    else:
        scaled = [scaled_times(r) for r in ok]
        report("wall_s", [wall for wall, _ in scaled], "s")
        report("load_intervals_per_s",
               [r["load_intervals"] / wall for r, (wall, _) in zip(ok, scaled)], "1/s")
        report("setup_s", [setup for _, setup in scaled], "s")
        report("peak_rss_mb", [r["peak_rss_mb"] for r in ok], "MB")
        report("host wall_s", [r["wall_s"] for r in ok], "s", result=False)
        report("host setup_s", [r["setup_s"] for r in ok], "s", result=False)
        report("reference_s", [s for r in ok for s in r["reference_s"]], "s", result=False)
    lines.append(f"{'error_rate':36s} {failed}/{attempted} failed/attempted")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(plain)} untraced, {len(traced)} traced repetitions, "
          f"{perf_counter() - start:.1f} s")
    for line in lines + reasons[:20]:
        print(line)
    unrecorded = {k: v for k, v in seen.items() if k not in recorded}
    for key, hashes in sorted(unrecorded.items()):
        for name, digest in sorted(hashes.items()):
            print(f"hash {key} {name} {digest}")
    print(json.dumps({"correct": correct and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def scaled_times(rep: dict) -> tuple[float, float]:
    """A repetition's wall and set-up seconds at the reference speed.

    Each scenario's host time is scaled by the mean of the reference kernel
    times taken right before and right after it, and set-up by the first
    one, taken right after set-up, so each is scaled by the machine's speed
    at that moment.
    """
    ref = rep["reference_s"]
    wall = sum(w * 2 * REFERENCE_S / (ref[i] + ref[i + 1]) for i, w in enumerate(rep["walls"]))
    return wall, rep["setup_s"] * REFERENCE_S / ref[0]


def self_time_metrics(layers: dict) -> list[str]:
    """The reported per-layer self-second metrics; they partition the traced wall."""
    return [m for m in layers if m.endswith("_s") and not m.endswith("_per_s") and m != "engine.run_s"]


def trace_problems(rep: dict) -> list[str]:
    """Why a traced repetition's layer split cannot be trusted, if it cannot.

    The self times that are reported must add up to the traced wall time, so
    a span with no metric of its own (its time would be lost) or time
    counted twice shows; and the traced wall must match the host time the
    worker measured around each ``cli.main`` call, so no time escapes the
    spans.
    """
    problems = []
    reported = sum(rep["layers"][m] for m in self_time_metrics(rep["layers"]))
    traced = rep["traced_wall_s"]
    if abs(reported - traced) > SELF_SUM_TOL * traced:
        problems.append(f"reported self times add up to {reported!r} s, traced wall is {traced!r} s")
    if abs(traced - rep["wall_s"]) > HOST_TOL * rep["wall_s"] + HOST_SLACK_S * len(rep["walls"]):
        problems.append(f"traced wall {traced!r} s differs from host wall {rep['wall_s']!r} s")
    return problems


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric == "cli.bytes_written":
        return "bytes"
    return "count"


if __name__ == "__main__":
    # Turn SIGTERM into an exception, so that the worker in flight is killed
    # and waited for, and the outputs are removed, on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
