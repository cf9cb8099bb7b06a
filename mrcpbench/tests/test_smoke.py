"""Smoke tests of the benchmark command.

    python3 -m unittest discover -s mrcpbench/tests

Builds the benchmark if needed (the first run takes a few minutes).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        proc = run([RUN, "--smoke"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = [w["name"] for w in json.load(f)["workloads"]]
        for name in declared + ["fb_incremental_faults"]:
            for trace in (0, 1):
                self.assertIn("smoke %-24s trace=%d" % (name, trace), proc.stdout)
        self.assertNotIn("FAIL", proc.stdout)

    def test_result_line(self):
        # A real (non-smoke) invocation shape, kept short: the result line
        # carries exactly the four keys and every end-to-end metric.
        proc = run([RUN, "--workload", "fb_paper", "--seed", "3",
                    "--seconds", "1", "--trace", "0"])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)["end_to_end"]
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertGreater(result["metrics"][m["name"]]["value"], 0)

    def test_refuses_without_sources(self):
        # A directory holding only BENCHMARK.json and mrcpbench/: the
        # command must fail fast and print no result.
        base = os.path.join(ROOT, ".bench_build", "mrcpbench", "tmp",
                            "isolated-%d" % os.getpid())
        shutil.rmtree(base, ignore_errors=True)
        try:
            shutil.copytree(BENCH, os.path.join(base, "mrcpbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), base)
            proc = run(["mrcpbench/run.py", "--workload", "fb_paper",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=base)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
