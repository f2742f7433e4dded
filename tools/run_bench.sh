#!/usr/bin/env bash
# Runs the core perf benches and emits a BENCH_N.json snapshot of the
# repo's perf trajectory: google-benchmark microbenches
# (bench_micro_core), the batch/phase bench (bench_batch_infer,
# wall-time per phase and sessions/sec at 1/2/4/N threads), the
# Baum-Welch training bench (bench_train, EM wall-time across thread
# counts and the memoized-emission ablation) and the service bench
# (bench_service, mixed-shard async throughput/latency, cold vs warm
# result cache).
#
# The micro benches run the EHMM kernel benchmarks at /simd:0 (forced
# scalar reference) and /simd:1 (bit-exact vector table; skipped when
# the binary or CPU lacks it), so the snapshot records both kernel tiers
# from a single binary — compare e.g. BM_ForwardBackwardRecursion/simd:0
# vs /simd:1. Each guarded benchmark carries the *resolved* tier
# name as its label, and every bench JSON records a "kernels" field. The
# PR 5 estimator benches additionally split on /warm:0|1 (cross-session
# (W, S) estimator cache cold vs warm); the headline pair is
# BM_FbWithEstimatorPr4BaselineK17 vs BM_FbWithEstimatorK17/simd:1/warm:1
# (forward-backward with the estimator included, k = 17). PR 7 adds
# BM_EstimatorBatchCaHeavyK17 (congestion-avoidance-dominated batch, the
# vectorized CA jump). Also recorded:
# BM_TraceSpanDisabled / BM_TraceSpanEnabled (the observability tax of a
# span site; Enabled self-skips in default -DVERITAS_TRACING=OFF builds).
#
# The service bench records cold and warm sessions/s per lane count and
# whether every payload matched the direct engine path; it exits
# non-zero on a mismatch.
#
# Usage: tools/run_bench.sh [output.json]   (default: BENCH_8.json)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build"
out_json="${1:-${repo_root}/BENCH_8.json}"

cmake -B "${build_dir}" -S "${repo_root}" >/dev/null
cmake --build "${build_dir}" -j \
  --target bench_micro_core bench_batch_infer bench_train \
  bench_service >/dev/null

tmp_dir="$(mktemp -d)"
trap 'rm -rf "${tmp_dir}"' EXIT

echo "== bench_micro_core =="
"${build_dir}/bench/bench_micro_core" \
  --benchmark_min_time=0.5 \
  --benchmark_out="${tmp_dir}/micro.json" \
  --benchmark_out_format=json

echo
echo "== bench_batch_infer =="
"${build_dir}/bench/bench_batch_infer" \
  --sessions "${VERITAS_BENCH_SESSIONS:-64}" \
  --repeat "${VERITAS_BENCH_REPEAT:-3}" \
  --json "${tmp_dir}/batch.json"

echo
echo "== bench_train =="
"${build_dir}/bench/bench_train" \
  --sessions "${VERITAS_BENCH_TRAIN_SESSIONS:-16}" \
  --repeat "${VERITAS_BENCH_REPEAT:-3}" \
  --json "${tmp_dir}/train.json"

echo
echo "== bench_service =="
"${build_dir}/bench/bench_service" \
  --sessions "${VERITAS_BENCH_SESSIONS:-64}" \
  --repeat "${VERITAS_BENCH_REPEAT:-3}" \
  --json "${tmp_dir}/service.json"

if command -v jq >/dev/null 2>&1; then
  jq -n \
    --slurpfile micro "${tmp_dir}/micro.json" \
    --slurpfile batch "${tmp_dir}/batch.json" \
    --slurpfile train "${tmp_dir}/train.json" \
    --slurpfile service "${tmp_dir}/service.json" \
    '{micro: $micro[0], batch: $batch[0], train: $train[0],
      service: $service[0]}' > "${out_json}"
else
  # No jq: merge the plain snapshots by hand; they carry the headline
  # numbers.
  {
    echo '{'
    echo '"batch":'
    cat "${tmp_dir}/batch.json"
    echo ', "train":'
    cat "${tmp_dir}/train.json"
    echo ', "service":'
    cat "${tmp_dir}/service.json"
    echo '}'
  } > "${out_json}"
fi
echo
echo "wrote ${out_json}"
