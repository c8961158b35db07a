#!/usr/bin/env python3
"""The benchmark's own tests: BENCHMARK.json limits and names, and a
trimmed run of every workload through the benchmark binary and run.py.

    python3 perfbench/test_perfbench.py

Builds the benchmark binary into .bench_build/ on first use.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_names_units_and_limits(self):
        spec = self.spec
        self.assertLessEqual(len(spec["end_to_end"]), 16)
        self.assertLessEqual(len(spec["per_layer"]), 128)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        self.assertEqual(tuple(names[:len(run.WORKLOADS)]), run.WORKLOADS)


class TrimmedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = run.load_spec()

    def test_binary_checks_pass_at_one_and_fixed_threads(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                reps = [run.spawn(w, 7, t, "trim") for t in (1, run.THREADS)]
                for rep in reps:
                    self.assertEqual(rep["check_failures"], [])
                    self.assertEqual(rep["failed"], 0)
                    self.assertGreater(rep["offered"], 0)
                    self.assertLessEqual(rep["admitted"], rep["offered"])
                self.assertEqual(reps[0]["sim"], reps[1]["sim"])

    def test_result_line_carries_every_metric(self):
        for w in run.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    out = subprocess.run(
                        [sys.executable, str(Path(run.__file__)),
                         "--workload", w, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace), "--scale", "trim"],
                        capture_output=True, text=True, cwd=run.ROOT)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], out.stderr)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in self.spec[kind]}
                    got = {k: v["unit"] for k, v in
                           result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for k, v in result["metrics"].items():
                            self.assertGreater(v["value"], 0, k)
                    else:
                        m = result["metrics"]
                        self.assertGreater(m["trace.overhead_ratio"]["value"],
                                           0)
                        self.assertGreaterEqual(
                            m["model.dram_bound_slack"]["value"], 0)
                        self.assertTrue(
                            0 <= m["availability"]["value"] <= 1)


if __name__ == "__main__":
    unittest.main()
