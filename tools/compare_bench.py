#!/usr/bin/env python3
"""Diff two BENCH_N.json perf snapshots and fail on regressions.

Usage: tools/compare_bench.py NEW.json OLD.json [--threshold 0.10]

Compares every tracked metric present in BOTH snapshots and exits
non-zero when any regresses by more than the threshold (default 10%).
Tracked metrics:

  * micro:   per-benchmark cpu_time from the google-benchmark block
             (lower is better), matched by full name incl. /simd:N
             and /warm:N args — new tiers (e.g. /simd:2) only appear
             in the newer snapshot and are reported as "new".
  * batch:   single_session_us phases (lower), batch_throughput
             sessions_per_sec per thread count (higher).
  * train:   train_ms per mode (lower).
  * service: per-lane cold/warm sessions_per_sec (higher).

Improvements and new/retired metrics never fail the run; only
tracked-metric regressions beyond the threshold do. The micro block is
the noisiest — pass a looser --threshold when comparing runs from
loaded machines.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def collect(snapshot):
    """Flattens a BENCH_N.json into {metric_name: (value, direction)}
    where direction is +1 when higher is better, -1 when lower is."""
    metrics = {}

    micro = snapshot.get("micro") or {}
    for bench in micro.get("benchmarks", []):
        if bench.get("run_type") != "iteration":
            continue
        name = bench["name"]
        metrics[f"micro:{name}:cpu_time"] = (bench["cpu_time"], -1)

    batch = snapshot.get("batch") or {}
    for phase, us in (batch.get("single_session_us") or {}).items():
        metrics[f"batch:single_session_us:{phase}"] = (us, -1)
    for lane in batch.get("batch_throughput", []):
        metrics[f"batch:sessions_per_sec:threads={lane['threads']}"] = (
            lane["sessions_per_sec"], +1)

    train = snapshot.get("train") or {}
    for mode in train.get("train_ms", []):
        metrics[f"train:train_ms:{mode['mode']}"] = (mode["ms"], -1)

    service = snapshot.get("service") or {}
    for lane in service.get("lanes", []):
        threads = lane["threads"]
        metrics[f"service:cold_sessions_per_sec:threads={threads}"] = (
            lane["cold_sessions_per_sec"], +1)
        metrics[f"service:warm_sessions_per_sec:threads={threads}"] = (
            lane["warm_sessions_per_sec"], +1)

    return metrics


def main():
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_N.json snapshots.")
    parser.add_argument("new_json", help="the candidate snapshot")
    parser.add_argument("old_json", help="the baseline snapshot")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max tolerated relative regression "
                             "(default 0.10 = 10%%)")
    args = parser.parse_args()

    new_metrics = collect(load(args.new_json))
    old_metrics = collect(load(args.old_json))

    regressions = []
    improvements = 0
    compared = 0
    for name in sorted(new_metrics):
        if name not in old_metrics:
            print(f"  new      {name}")
            continue
        new_value, direction = new_metrics[name]
        old_value, _ = old_metrics[name]
        if old_value <= 0:
            continue
        compared += 1
        # Positive change = better, in either direction convention.
        change = direction * (new_value - old_value) / old_value
        if change < -args.threshold:
            regressions.append((name, old_value, new_value, change))
            print(f"  REGRESS  {name}: {old_value:.6g} -> {new_value:.6g} "
                  f"({change * 100.0:+.1f}%)")
        elif change > args.threshold:
            improvements += 1
            print(f"  improve  {name}: {old_value:.6g} -> {new_value:.6g} "
                  f"({change * 100.0:+.1f}%)")
    for name in sorted(set(old_metrics) - set(new_metrics)):
        print(f"  retired  {name}")

    print(f"\ncompared {compared} metrics: {len(regressions)} regression(s) "
          f"beyond {args.threshold * 100.0:.0f}%, "
          f"{improvements} improvement(s) beyond it")
    if regressions:
        print("FAIL", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
