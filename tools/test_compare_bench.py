#!/usr/bin/env python3
"""Unit tests for tools/compare_bench.py (run: python3 tools/test_compare_bench.py)."""

import json
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare_bench  # noqa: E402


def snapshot(micro_ns=100.0, batch_us=50.0, throughput=200.0,
             train_ms=30.0, cold=10.0, warm=40.0):
    return {
        "micro": {"benchmarks": [
            {"name": "BM_Forward/simd:1", "run_type": "iteration",
             "cpu_time": micro_ns},
            {"name": "BM_Forward/simd:1_mean", "run_type": "aggregate",
             "cpu_time": micro_ns},
        ]},
        "batch": {
            "single_session_us": {"forward": batch_us},
            "batch_throughput": [
                {"threads": 2, "sessions_per_sec": throughput}],
        },
        "train": {"train_ms": [{"mode": "baum", "ms": train_ms}]},
        "service": {
            "lanes": [{"threads": 2, "cold_sessions_per_sec": cold,
                       "warm_sessions_per_sec": warm}],
        },
    }


class CollectTest(unittest.TestCase):
    def test_flattens_every_tracked_block_with_directions(self):
        metrics = compare_bench.collect(snapshot())
        self.assertEqual(metrics["micro:BM_Forward/simd:1:cpu_time"],
                         (100.0, -1))
        self.assertEqual(metrics["batch:single_session_us:forward"],
                         (50.0, -1))
        self.assertEqual(metrics["batch:sessions_per_sec:threads=2"],
                         (200.0, +1))
        self.assertEqual(metrics["train:train_ms:baum"], (30.0, -1))
        self.assertEqual(metrics["service:cold_sessions_per_sec:threads=2"],
                         (10.0, +1))
        self.assertEqual(metrics["service:warm_sessions_per_sec:threads=2"],
                         (40.0, +1))

    def test_skips_aggregate_rows_and_missing_blocks(self):
        metrics = compare_bench.collect(snapshot())
        self.assertNotIn("micro:BM_Forward/simd:1_mean:cpu_time", metrics)
        self.assertEqual(compare_bench.collect({}), {})
        self.assertEqual(compare_bench.collect({"micro": None}), {})


class MainTest(unittest.TestCase):
    def run_main(self, new, old, threshold=None):
        with tempfile.TemporaryDirectory() as tmp:
            new_path = os.path.join(tmp, "new.json")
            old_path = os.path.join(tmp, "old.json")
            with open(new_path, "w") as f:
                json.dump(new, f)
            with open(old_path, "w") as f:
                json.dump(old, f)
            argv = ["compare_bench.py", new_path, old_path]
            if threshold is not None:
                argv += ["--threshold", str(threshold)]
            with mock.patch.object(sys, "argv", argv):
                return compare_bench.main()

    def test_identical_snapshots_pass(self):
        self.assertEqual(self.run_main(snapshot(), snapshot()), 0)

    def test_lower_is_better_regression_fails(self):
        # micro cpu_time up 50% — a lower-is-better metric regressing.
        self.assertEqual(
            self.run_main(snapshot(micro_ns=150.0), snapshot()), 1)

    def test_higher_is_better_regression_fails(self):
        # throughput down 50% — a higher-is-better metric regressing.
        self.assertEqual(
            self.run_main(snapshot(throughput=100.0), snapshot()), 1)

    def test_improvements_never_fail(self):
        improved = snapshot(micro_ns=50.0, throughput=400.0, warm=80.0)
        self.assertEqual(self.run_main(improved, snapshot()), 0)

    def test_threshold_is_respected(self):
        # 5% worse: fails at 1%, passes at 10%.
        worse = snapshot(micro_ns=105.0)
        self.assertEqual(self.run_main(worse, snapshot(), threshold=0.01), 1)
        self.assertEqual(self.run_main(worse, snapshot(), threshold=0.10), 0)

    def test_new_and_retired_metrics_never_fail(self):
        new = snapshot()
        new["micro"]["benchmarks"].append(
            {"name": "BM_Forward/simd:2", "run_type": "iteration",
             "cpu_time": 60.0})
        old = snapshot()
        old["train"]["train_ms"].append({"mode": "viterbi", "ms": 20.0})
        self.assertEqual(self.run_main(new, old), 0)

    def test_zero_baseline_is_skipped(self):
        self.assertEqual(
            self.run_main(snapshot(train_ms=5.0), snapshot(train_ms=0.0)), 0)


if __name__ == "__main__":
    unittest.main()
