#!/usr/bin/env python3
"""Tests of the benchmark's own pieces.

    python3 perfbench/test_perfbench.py

- compare.py's verdicts on synthetic result sets;
- the C++ generator/encoder checks (perfbench_selftest: seed determinism of
  query targets and serve traffic, NCT -> permutation images of Toffoli and
  Peres), built through run.py's build step;
- BENCHMARK.json's metric lists against what run.py enforces.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "latency_us", "unit": "us", "better": "lower", "bound": 0.1},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}],
    "per_layer": [{"name": "layer.count", "unit": "count", "better": "lower"}]}


def records(workload, metric, values, nproc=4, trace=0):
    return [{"workload": workload, "trace": trace, "seed": i,
             "stamp": {"nproc": nproc},
             "result": {"metrics": {metric: {"value": v, "unit": "x"}}}}
            for i, v in enumerate(values)]


def label(base, new, metric="latency_us"):
    rows, _ = compare.compare(records("w", metric, base),
                              records("w", metric, new), SPEC)
    return rows[0]["label"]


class CompareVerdicts(unittest.TestCase):
    def test_steady_and_unchanged_is_within_bound(self):
        self.assertEqual(label([100, 101, 99, 100, 102], [101, 100, 99, 102, 100]),
                         "within_bound")

    def test_lower_is_better_regression_is_worse(self):
        self.assertEqual(label([100, 101, 99, 100, 102], [120, 121, 119, 122, 118]),
                         "worse")

    def test_higher_is_better_drop_is_worse(self):
        self.assertEqual(label([100, 101, 99, 100], [80, 81, 79, 80], "rate"),
                         "worse")

    def test_clear_win_is_improved(self):
        self.assertEqual(label([100, 101, 99, 100, 102], [90, 91, 89, 90, 92]),
                         "improved")
        self.assertEqual(label([100, 101, 99, 100], [130, 131, 129, 130], "rate"),
                         "improved")

    def test_small_but_consistent_win_is_improved(self):
        # 3 % better, every pair won, base spread ~1 %.
        self.assertEqual(label([100, 100.5, 99.5, 100, 101], [97, 97.5, 96.5, 97, 98]),
                         "improved")

    def test_spread_wider_than_bound_is_unresolved(self):
        self.assertEqual(label([100, 130, 80, 110, 95], [105, 70, 125, 90, 100]),
                         "unresolved")

    def test_different_cpu_counts_are_refused(self):
        with self.assertRaises(ValueError):
            compare.compare(records("w", "latency_us", [1, 2], nproc=4),
                            records("w", "latency_us", [1, 2], nproc=1), SPEC)

    def test_traced_records_are_listed_without_verdicts(self):
        rows, layers = compare.compare(
            records("w", "layer.count", [10, 10], trace=1),
            records("w", "layer.count", [5, 5], trace=1), SPEC)
        self.assertEqual(rows, [])
        self.assertEqual(layers[0]["change"], -0.5)

    def test_spread_is_quartile_distance_over_median(self):
        self.assertAlmostEqual(compare.spread([1, 2, 3, 4, 5]), 3.0 / 3.0)
        self.assertEqual(compare.spread([7]), 0.0)


class BenchmarkSpec(unittest.TestCase):
    def test_end_to_end_metrics_match_the_harness(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        names = {m["name"] for m in spec["end_to_end"]}
        self.assertEqual(names, {"ops_per_s", "op_p50_us", "op_tail_us",
                                 "peak_rss_mib", "setup_s"})
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_traced_run_fills_unexercised_layers_with_zero(self):
        result = {"metrics": {"layer.count": {"value": 3, "unit": "count"}}}
        spec = dict(SPEC, per_layer=SPEC["per_layer"] + [
            {"name": "other", "unit": "s", "better": "lower"}])
        completed = run.complete(result, spec, trace=1)
        self.assertEqual(completed["metrics"]["other"]["value"], 0)


class GeneratorSelfTest(unittest.TestCase):
    def test_selftest_binary_passes(self):
        run.build()
        done = subprocess.run([str(run.BUILD_DIR / "perfbench_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)


if __name__ == "__main__":
    unittest.main()
