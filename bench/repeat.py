"""Run the benchmark over several seeds and summarise each metric's spread.

Usage (from the repository root):

    python3 bench/repeat.py --seeds 0-9 --trace 0 --out bench/baseline.json

For every workload in ``BENCHMARK.json`` and every seed, runs the
benchmark command once and keeps its figures. Per metric it reports the
median, the quartiles and the spread (q3 - q1) / median, which for an
end-to-end metric should stay below a third of its bound. The output file
carries the git commit, Python and numpy versions, the CPU count and model,
and every run's figures, so that a later change can be compared with it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def environment() -> dict:
    def probe(cmd) -> str:
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip()
        except OSError:
            return ""

    cpu = ""
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    numpy = probe([sys.executable, "-c", "import numpy; print(numpy.__version__)"])
    return {
        "git_sha": probe(["git", "rev-parse", "HEAD"]) or "unknown",
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="JSON file for the summary")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {name: [] for name in names}
    for seed in seed_list(args.seeds):
        for name in names:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            # The host times behind the scaled ones are printed, not in the JSON.
            result["host"] = {
                " ".join(words[:-2]): float(words[-2])
                for words in (line.split("  (")[0].split() for line in proc.stdout.splitlines())
                if words and words[0] in ("host", "reference_s")
            }
            result.update(seed=seed, exit=proc.returncode)
            runs[name].append(result)
            print(f"{name} seed {seed}: exit {proc.returncode} correct {result.get('correct')} "
                  f"failed {result.get('failed')}/{result.get('attempted')}", flush=True)

    summary = {}
    for name, results in runs.items():
        summary[name] = {}
        figures = [{**r.get("metrics", {}),
                    **{k: {"value": v} for k, v in r.get("host", {}).items()}} for r in results]
        for metric in sorted({m for f in figures for m in f}):
            values = [f[metric]["value"] for f in figures if metric in f]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            summary[name][metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                     "n": len(values)}
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                summary[name][metric]["bound"] = bound
                flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"{name:15s} {metric:36s} median {median:12.6g}  spread {spread:7.4f}  {flag}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment(), "trace": args.trace, "seeds": args.seeds,
                       "run_seconds": bench["run_seconds"], "summary": summary, "runs": runs},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
