"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --workloads straightline interleave corpus \
        --seeds 1 2 3 4 5 6 7 8 9 10 --traced-seeds 1 [--out FILE]

Runs perfbench/run.py once per workload and seed, one run at a time: with
--trace 0 for each of --seeds and with --trace 1 for each of
--traced-seeds. Prints per metric the median and the spread: the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median. --out writes every run's result and the summaries as
JSON, the form of perfbench/results/BENCH_*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def summarize(results: list[dict]) -> dict[str, dict]:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        entry = {"median": median, "unit": results[0]["metrics"][name]["unit"]}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["quartiles"] = [q1, q3]
            entry["spread"] = (q3 - q1) / abs(median) if median else 0.0
        summary[name] = entry
    return summary


def sweep(workload: str, seeds: list[int], seconds: int, trace: int) -> dict:
    runs = []
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"{workload} seed {seed} trace {trace}: correct "
              f"{result['correct']}, failed {result['failed']} of "
              f"{result['attempted']}", flush=True)
    summary = summarize(runs)
    for name, entry in summary.items():
        spread = entry.get("spread")
        spread = "" if spread is None else f" spread {spread:.4f}"
        print(f"  {name:40s} median {entry['median']:.6g} "
              f"{entry['unit']}{spread}", flush=True)
    return {"runs": runs, "summary": summary}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, default=[])
    parser.add_argument("--traced-seeds", nargs="+", type=int, default=[])
    parser.add_argument("--seconds", type=int,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.seconds is None:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = benchmark["run_seconds"]

    doc = {
        "machine": {"python": platform.python_version(),
                    "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workloads:
        entry = {}
        if args.seeds:
            entry["end_to_end"] = sweep(workload, args.seeds, args.seconds, 0)
        if args.traced_seeds:
            entry["per_layer"] = sweep(workload, args.traced_seeds,
                                       args.seconds, 1)
        doc["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
