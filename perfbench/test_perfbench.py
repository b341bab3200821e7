#!/usr/bin/env python3
"""The benchmark's own tests: every workload at smoke size, untraced and
traced, must pass its oracles and print exactly the metrics BENCHMARK.json
names. Run from anywhere: python3 perfbench/test_perfbench.py"""
import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-2])["detail"], json.loads(lines[-1])


class SmokeRuns(unittest.TestCase):
    def check(self, workload, trace):
        code, detail, result = run(workload, 3, trace)
        self.assertEqual(detail["violations"], [])
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        group = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in group})
        for m in group:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0.0, m["name"])

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_hot_incident_live(self):
        # Not in BENCHMARK.json (see README.md), but kept runnable by hand.
        for trace in (0, 1):
            with self.subTest(trace=trace):
                self.check("hot_incident_live", trace)

    def test_same_seed_same_inputs(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                a = run(w["name"], 5, 0)[1]["identity"]["input_digest"]
                b = run(w["name"], 5, 0)[1]["identity"]["input_digest"]
                c = run(w["name"], 6, 0)[1]["identity"]["input_digest"]
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)

    def test_unknown_workload_fails(self):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "nope", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
