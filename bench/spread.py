"""Steadiness of the end-to-end metrics across seeds.

    python3 bench/spread.py [--workloads W ...] [--seeds 1 2 ...] [--seconds S]

Runs `bench/run.py --trace 0` once per workload and seed, one run at a
time, and prints for each end-to-end metric the median of its values and
the distance between their first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of that median, next to
the metric's bound from BENCHMARK.json.  A spread of a third of the bound
or more is marked "!"; setup_s is held only to its median.  The info and
result lines of every run are appended to .bench_work/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    with open(os.path.join(ROOT, ".bench_work", "spread.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(lines[-2] + "\n" + lines[-1] + "\n")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {out.stdout}")
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"| workload | metric | median | IQR / median | bound | values |")
    print(f"|---|---|---|---|---|---|")
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            result = one_run(workload, seed, args.seconds)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            mark = "" if name == "setup_s" or share < bounds[name] / 3 else " !"
            print(f"| {workload} | {name} | {med:.6g} | {share:.4f}{mark} | "
                  f"{bounds[name]} | {' '.join(f'{v:.4g}' for v in vals)} |",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
