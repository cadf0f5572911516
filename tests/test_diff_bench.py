#!/usr/bin/env python3
"""Tests of tools/diff_bench.py, the round-time regression gate.

    python3 tests/test_diff_bench.py
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

DIFF_BENCH = Path(__file__).resolve().parent.parent / "tools" / "diff_bench.py"


def sweep(round_seconds, reference=0.05):
    """A sweep file body: one point per entry of round_seconds."""
    doc = {"bench": "sched_round", "sweep": [
        {"config": "bucket1", "jobs": jobs, "threads": 1,
         "round_seconds": secs}
        for jobs, secs in round_seconds.items()]}
    if reference is not None:
        doc["reference_seconds"] = reference
    return doc


# Ten points of 2 to 20 ms: well above --min-delta-ms once they move.
BASE = {jobs: jobs * 1e-4 for jobs in range(20, 220, 20)}


class DiffBenchTest(unittest.TestCase):
    def run_gate(self, base, cur, *flags):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("base.json", base), ("cur.json", cur)):
                path = os.path.join(tmp, name)
                with open(path, "w") as f:
                    json.dump(doc, f)
                paths.append(path)
            proc = subprocess.run(
                [sys.executable, str(DIFF_BENCH), *flags, *paths],
                capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr

    def test_one_regressed_point_fails(self):
        cur = dict(BASE)
        cur[100] *= 1.5
        code, out = self.run_gate(sweep(BASE), sweep(cur), "--strict")
        self.assertEqual(code, 1, out)
        self.assertEqual(out.count("REGRESSION"), 1, out)
        self.assertIn("jobs=100", out)

    def test_uniform_speedup_does_not_flag_unchanged_points(self):
        # A change that makes seven of ten points 30% faster and leaves
        # three alone, on a host of unchanged speed. The median ratio
        # (0.7) would read the three as 1.43x regressions.
        cur = {jobs: secs * (0.7 if i < 7 else 1.0)
               for i, (jobs, secs) in enumerate(BASE.items())}
        code, out = self.run_gate(sweep(BASE), sweep(cur), "--strict")
        self.assertEqual(code, 0, out)
        self.assertNotIn("REGRESSION", out)

    def test_slower_host_cancels_out(self):
        cur = {jobs: secs * 1.8 for jobs, secs in BASE.items()}
        code, out = self.run_gate(sweep(BASE), sweep(cur, reference=0.09),
                                  "--strict")
        self.assertEqual(code, 0, out)

    def test_regression_on_a_slower_host_still_fails(self):
        cur = {jobs: secs * 1.8 for jobs, secs in BASE.items()}
        cur[60] *= 1.5
        code, out = self.run_gate(sweep(BASE), sweep(cur, reference=0.09),
                                  "--strict")
        self.assertEqual(code, 1, out)
        self.assertEqual(out.count("REGRESSION"), 1, out)

    def test_missing_reference_fails_strict_and_falls_back_otherwise(self):
        code, out = self.run_gate(sweep(BASE, reference=None), sweep(BASE),
                                  "--strict")
        self.assertEqual(code, 1, out)
        self.assertIn("reference_seconds", out)
        code, out = self.run_gate(sweep(BASE, reference=None), sweep(BASE))
        self.assertEqual(code, 0, out)
        self.assertIn("median ratio", out)


if __name__ == "__main__":
    unittest.main()
