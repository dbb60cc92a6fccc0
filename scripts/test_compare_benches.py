#!/usr/bin/env python3
"""Tests for scripts/compare_benches.py: ratios, the CPU-count refusal and
the exit status on malformed input.

Usage: python3 scripts/test_compare_benches.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "compare_benches.py")


def baseline(rows, num_cpus=4):
    return {"schema": "qsyn-bench-baseline-v1", "num_cpus": num_cpus,
            "benches": {"bench_x": {"benchmarks": rows}}}


def row(name, real_time, unit="ms"):
    return {"name": name, "real_time": real_time, "time_unit": unit}


class CompareBenchesTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, content):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content if isinstance(content, str)
                     else json.dumps(content))
        return path

    def run_script(self, *args):
        return subprocess.run([sys.executable, SCRIPT, *args],
                              capture_output=True, text=True, check=False)

    def test_prints_shared_rows_ratio_across_units(self):
        old = self.write("old.json", baseline(
            [row("bm_a", 2.0), row("bm_b", 1.0), row("bm_gone", 1.0)]))
        new = self.write("new.json", baseline(
            [row("bm_a", 500.0, "us"), row("bm_b", 3.0), row("bm_new", 1.0)]))
        result = self.run_script(old, new)
        self.assertEqual(result.returncode, 0, result.stderr)
        lines = {line.split()[1]: line.split()
                 for line in result.stdout.splitlines()
                 if line.startswith("bench_x")}
        self.assertEqual(sorted(lines), ["bm_a", "bm_b"])
        self.assertEqual(lines["bm_a"][-1], "0.250")
        self.assertEqual(lines["bm_b"][-1], "3.000")
        self.assertIn("1 only in old, 1 only in new", result.stdout)

    def test_refuses_differing_cpu_counts(self):
        old = self.write("old.json", baseline([row("bm_a", 1)], num_cpus=1))
        new = self.write("new.json", baseline([row("bm_a", 1)], num_cpus=4))
        result = self.run_script(old, new)
        self.assertEqual(result.returncode, 2)
        self.assertIn("not comparable", result.stderr)

    def test_malformed_input_exits_nonzero(self):
        good = self.write("good.json", baseline([row("bm_a", 1)]))
        cases = {
            "not_json": "{",
            "wrong_schema": {"schema": "other", "num_cpus": 4, "benches": {}},
            "no_benchmarks": {"schema": "qsyn-bench-baseline-v1",
                              "num_cpus": 4, "benches": {"bench_x": {}}},
            "string_time": baseline([row("bm_a", "1")]),
            "unknown_unit": baseline([row("bm_a", 1, "min")]),
            "repeated_row": baseline([row("bm_a", 1), row("bm_a", 2)]),
            "no_cpu_count": baseline([row("bm_a", 1)], num_cpus=None),
        }
        for name, content in cases.items():
            bad = self.write(name + ".json", content)
            for args in ((bad, good), (good, bad)):
                result = self.run_script(*args)
                self.assertEqual(result.returncode, 2, name)
                self.assertTrue(result.stderr.startswith("error:"), name)
        missing = os.path.join(self.dir.name, "missing.json")
        self.assertEqual(self.run_script(missing, good).returncode, 2)


if __name__ == "__main__":
    unittest.main()
