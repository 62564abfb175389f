#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/repeat.py --workload cli_cold --seeds 1-10

For every end-to-end metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread (the
distance between the quartiles as a share of the median).  It flags each
spread that is not below a third of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            if line.startswith("# FAILED"):
                print(f"seed {seed}: {line}")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{args.workload}, {len(args.seeds)} seeds, {seconds} s per run")
    print(f"{'metric':46s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        flag = "" if spread < bound / 3 else "  <-- over bound/3"
        print(f"{name:46s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
