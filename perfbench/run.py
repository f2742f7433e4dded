#!/usr/bin/env python3
"""Builds and runs the Veritas benchmark.

    python3 perfbench/run.py --workload cf_abr_bba --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, against the library sources in the
root) into $CARGO_TARGET_DIR, default .bench_build. Each run prints the
workload's table on stderr, writes its full result with host context to
.bench_results/, and prints one JSON line on stdout:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1)
that BENCHMARK.json lists. Exits 1 when the build fails, when a
correctness gate fails, or when a listed metric is missing.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cf_abr_bba", "cf_buffer_mpc", "service_fleet")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (a no-op when nothing changed) and brings the benchmark
    binary up to date."""
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("perfbench: build failed: " + " ".join(step))
    return out / "perfbench"


def run_timeout_s(seconds):
    """Wall-clock limit of one workload run: the measured seconds, the
    traced run's doubled queries, plus set-ups, inputs and fidelity pass."""
    return 3 * seconds + 80


def listed_metrics():
    """Metric names by trace mode from BENCHMARK.json."""
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: [m["name"] for m in data["end_to_end"]],
            1: [m["name"] for m in data["per_layer"]]}


def governor():
    path = Path("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
    try:
        return path.read_text().strip()
    except OSError:
        return "unreadable"


def commit():
    """The git commit, or a digest of the sources when not in a git tree."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def select_metrics(result, trace, names):
    """The result's metrics for this mode, restricted to the listed names.
    Returns (metrics, missing names)."""
    pool = result["per_layer" if trace else "end_to_end"]
    metrics = {n: {"value": pool[n]["value"], "unit": pool[n]["unit"]}
               for n in names if n in pool and pool[n]["value"] is not None}
    return metrics, [n for n in names if n not in metrics]


def run_workload(binary, workload, seed, seconds, trace, names):
    load_before = os.getloadavg()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    timeout = run_timeout_s(seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} ran past {timeout:g} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {workload} printed no result "
                         f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    metrics, missing = select_metrics(result, trace, names)
    if missing:
        log(f"perfbench: {workload} is missing metrics: {', '.join(missing)}")
    result["correct"] = bool(result["correct"]) and proc.returncode == 0 \
        and not missing
    result["host"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "load_avg_before": load_before,
        "load_avg_after": os.getloadavg(),
        "governor": governor(),
        "commit": commit(),
        "command": cmd,
    }
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    host = result["host"]
    log(f"host: nproc {host['nproc']}, load {host['load_avg_before'][0]:.2f} "
        f"-> {host['load_avg_after'][0]:.2f}, governor {host['governor']}, "
        f"commit {host['commit']}; wrote {out.relative_to(ROOT)}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def combine(results):
    """One line for several workloads: metrics prefixed by workload name."""
    combined = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {}}
    for workload, r in results.items():
        for name, metric in r["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    binary = build()
    names = listed_metrics()[args.trace]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(binary, w, args.seed, args.seconds, args.trace,
                               names)
               for w in workloads}
    line = results[workloads[0]] if len(workloads) == 1 else combine(results)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
