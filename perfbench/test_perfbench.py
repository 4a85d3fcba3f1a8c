#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the perfbench binary like run.py does, then checks three things:
the workload and metric names it prints equal those in BENCHMARK.json;
its generators are deterministic and its guards fire (its --self-test);
and a short run of every workload, untraced and traced, prints one
correct result line with exactly the declared metrics.
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def perfbench(*args):
    return subprocess.run([run.BINARY, *args], capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_names_match_benchmark_json(self):
        listed = json.loads(perfbench("--list").stdout)
        self.assertEqual(listed["workloads"],
                         [w["name"] for w in BENCHMARK["workloads"]])
        for key in ("end_to_end", "per_layer"):
            declared = [{"name": m["name"], "unit": m["unit"]}
                        for m in BENCHMARK[key]]
            self.assertEqual(listed[key], declared)

    def test_generators_and_guards(self):
        out = perfbench("--self-test")
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        self.assertIn("0 failed", out.stdout)

    def test_short_runs_report_declared_metrics(self):
        for workload in BENCHMARK["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    out = perfbench("--workload", workload["name"],
                                    "--seed", "3", "--seconds", "0.5",
                                    "--trace", str(trace))
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        sorted(result),
                        ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]),
                                     [m["name"] for m in BENCHMARK[key]])


if __name__ == "__main__":
    unittest.main()
