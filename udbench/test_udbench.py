#!/usr/bin/env python3
"""Self-test of the udring benchmark.

    python3 udbench/test_udbench.py

Runs every workload of BENCHMARK.json on its tiny work set, untraced and
traced, at the default seed (so the pinned tiny digests are checked too) and
at one other seed. Each run must pass its correctness gate and print every
metric BENCHMARK.json names, with the unit it names, as a finite number.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as text:
        return json.load(text)


def run(workload, seed, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--size", "tiny"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    return done.returncode, done.stdout


class TinyRuns(unittest.TestCase):
    def check(self, workload, seed, trace):
        spec = load_spec()
        code, out = run(workload, seed, trace)
        result = json.loads(out.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out)
        self.assertEqual(code, 0, out)
        self.assertEqual(result["failed"], 0, out)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])
        if not trace:
            for metric in wanted:
                self.assertGreater(result["metrics"][metric["name"]]["value"], 0,
                                   metric["name"])

    def test_every_workload(self):
        for workload in (w["name"] for w in load_spec()["workloads"]):
            for seed in (1, 7):
                for trace in (0, 1):
                    with self.subTest(workload=workload, seed=seed, trace=trace):
                        self.check(workload, seed, trace)


if __name__ == "__main__":
    unittest.main()
