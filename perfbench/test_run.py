"""Self-test of the benchmark: one short pass of every workload.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each workload runs for a single pass (`--seconds 0`) on seed 1, which
has shipped reference results, once untraced and once traced.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("run.py failed:\n" + proc.stdout)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    spec = load_spec()

    def check(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)  # failed_frac is 0
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_metrics(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                result = run(w["name"], 0)
                self.check(result, self.spec["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                result = run(w["name"], 1)
                self.check(result, self.spec["per_layer"])
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertEqual(metrics["trace.low_coverage_cells"], 0)
                if w["name"] == "regen_store":
                    # Two of the three requests per cell are warm and
                    # must all be served from the store.
                    self.assertEqual(metrics["sweep.from_store"],
                                     2 * metrics["store.puts"])
                    self.assertEqual(metrics["store.hits"],
                                     metrics["sweep.from_store"])
                    self.assertEqual(metrics["store.quarantined"], 0)


if __name__ == "__main__":
    unittest.main()
