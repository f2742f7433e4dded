"""Tests of run.py and spread.py: result parsing, metric selection,
aggregation, and (slow) an end-to-end parse-back of every workload.

    python3 -m unittest discover -s perfbench/tests
    PERFBENCH_SLOW=1 python3 -m unittest discover -s perfbench/tests
"""
import json
import os
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import spread  # noqa: E402


def fake_result(names, trace):
    metrics = {n: {"value": 1.5, "unit": "ms", "note": ""} for n in names}
    return {"correct": True, "attempted": 3, "failed": 0,
            "end_to_end": {} if trace else metrics,
            "per_layer": metrics if trace else {}}


class SelectMetrics(unittest.TestCase):
    def test_keeps_listed_names_and_drops_notes(self):
        result = fake_result(["a", "b", "extra"], trace=0)
        metrics, missing = run.select_metrics(result, 0, ["a", "b"])
        self.assertEqual(metrics, {"a": {"value": 1.5, "unit": "ms"},
                                   "b": {"value": 1.5, "unit": "ms"}})
        self.assertEqual(missing, [])

    def test_reports_missing_and_null_metrics(self):
        result = fake_result(["a", "b"], trace=1)
        result["per_layer"]["b"]["value"] = None  # a non-finite value
        metrics, missing = run.select_metrics(result, 1, ["a", "b", "c"])
        self.assertEqual(list(metrics), ["a"])
        self.assertEqual(missing, ["b", "c"])

    def test_timeout_grows_with_requested_seconds(self):
        self.assertEqual(run.run_timeout_s(30), 170)
        self.assertGreater(run.run_timeout_s(120), 3 * 120)

    def test_listed_metrics_follow_benchmark_json(self):
        spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        names = run.listed_metrics()
        self.assertEqual(names[0], [m["name"] for m in spec["end_to_end"]])
        self.assertEqual(names[1], [m["name"] for m in spec["per_layer"]])
        self.assertIn("setup_s", names[0])


class Combine(unittest.TestCase):
    def test_prefixes_metrics_and_sums_counts(self):
        one = {"correct": True, "attempted": 2, "failed": 0,
               "metrics": {"m": {"value": 1, "unit": "s"}}}
        two = {"correct": False, "attempted": 3, "failed": 1,
               "metrics": {"m": {"value": 2, "unit": "s"}}}
        line = run.combine({"w1": one, "w2": two})
        self.assertFalse(line["correct"])
        self.assertEqual((line["attempted"], line["failed"]), (5, 1))
        self.assertEqual(line["metrics"]["w2.m"], {"value": 2, "unit": "s"})


class Spread(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = [float(v) for v in range(1, 11)]  # 1..10
        med, q1, q3, s = spread.spread(values)
        self.assertEqual(med, 5.5)
        self.assertEqual((q1, q3), (2.75, 8.25))  # exclusive method, n=4
        self.assertAlmostEqual(s, 5.5 / 5.5)

    def test_matches_statistics_quantiles(self):
        values = [3.2, 1.1, 9.7, 4.4, 4.5, 2.0, 8.8]
        med, q1, q3, _ = spread.spread(values)
        expected = statistics.quantiles(values, n=4)
        self.assertEqual((q1, med, q3), tuple(expected))

    def test_steady_values_have_zero_spread(self):
        self.assertEqual(spread.spread([2.0, 2.0, 2.0])[3], 0.0)

    def test_seed_lists(self):
        self.assertEqual(spread.seed_list("3-5"), [3, 4, 5])
        self.assertEqual(spread.seed_list("1,7"), [1, 7])


@unittest.skipUnless(os.environ.get("PERFBENCH_SLOW"),
                     "set PERFBENCH_SLOW=1 to build and run every workload")
class EndToEnd(unittest.TestCase):
    def test_every_workload_parses_back_with_every_metric(self):
        names = run.listed_metrics()
        for trace in (0, 1):
            for workload in run.WORKLOADS:
                proc = subprocess.run(
                    [sys.executable, str(HERE.parent / "run.py"),
                     "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)],
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True, check=True)
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(line), {"correct", "attempted", "failed",
                                             "metrics"})
                self.assertTrue(line["correct"], workload)
                self.assertGreaterEqual(line["attempted"], 1)
                self.assertEqual(list(line["metrics"]), names[trace])
                for metric in line["metrics"].values():
                    self.assertIsInstance(metric["value"], (int, float))


if __name__ == "__main__":
    unittest.main()
