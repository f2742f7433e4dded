#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload cf_abr_bba --seeds 1-10 --seconds 30

Runs perfbench/run.py once per seed and prints, per metric, the median,
the first and third quartiles (statistics.quantiles, n=4) and the spread:
(q3 - q1) / median. With --bounds, each spread is compared with its
metric's bound in BENCHMARK.json, and the target is a third of it.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values):
    """(median, q1, q3, (q3 - q1) / median); needs at least two values."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def seed_list(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-5"))
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--bounds", action="store_true")
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: run.py exited {proc.returncode}"
                     + ("" if lines else " without a result"))
        line = json.loads(lines[-1])
        if not line["correct"]:
            sys.exit(f"seed {seed}: run incorrect")
        runs.append(line["metrics"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()),
            file=sys.stderr, flush=True)

    bounds = {}
    if args.bounds:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        med, q1, q3, s = spread(values)
        verdict = ""
        if name in bounds:
            verdict = ("ok" if s <= bounds[name] / 3 else
                       "over a third" if s <= bounds[name] else "OVER BOUND")
            verdict += f" (bound {bounds[name]})"
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:8.4f} {verdict}")


if __name__ == "__main__":
    main()
