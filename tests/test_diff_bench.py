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
        {"config": "bucket1", "jobs": jobs, "round_seconds": secs}
        for jobs, secs in round_seconds.items()]}
    if reference is not None:
        doc["reference_seconds"] = reference
    return doc


# Ten points of 2 to 20 ms: well above --min-delta-ms once they move.
BASE = {jobs: jobs * 1e-4 for jobs in range(20, 220, 20)}


class DiffBenchTest(unittest.TestCase):
    def run_gate(self, base, cur, *flags):
        """Runs the gate on `base` and one current sweep, or a list of them."""
        currents = cur if isinstance(cur, list) else [cur]
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            docs = [("base.json", base)] + [
                (f"cur{i}.json", doc) for i, doc in enumerate(currents)]
            for name, doc in docs:
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

    def test_point_regressed_in_every_sweep_fails(self):
        sweeps = []
        for slowdown in (1.5, 1.45, 1.6):
            cur = dict(BASE)
            cur[100] *= slowdown
            sweeps.append(sweep(cur))
        code, out = self.run_gate(sweep(BASE), sweeps, "--strict")
        self.assertEqual(code, 1, out)
        self.assertEqual(out.count("REGRESSION"), 1, out)
        self.assertIn("jobs=100", out)

    def test_spike_in_one_of_three_sweeps_passes(self):
        spiked = dict(BASE)
        spiked[100] *= 1.5
        code, out = self.run_gate(
            sweep(BASE), [sweep(BASE), sweep(spiked), sweep(BASE)], "--strict")
        self.assertEqual(code, 0, out)
        self.assertNotIn("REGRESSION", out)
        # The same spike as the only sweep fails: one file is as strict as
        # it ever was.
        code, out = self.run_gate(sweep(BASE), sweep(spiked), "--strict")
        self.assertEqual(code, 1, out)

    def test_each_sweep_is_normalized_by_its_own_reference(self):
        # Three sweeps on hosts 1x, 1.8x and 1.4x slower, each recording
        # its own reference time: nothing regressed.
        sweeps = [sweep({jobs: secs * f for jobs, secs in BASE.items()},
                        reference=0.05 * f) for f in (1.0, 1.8, 1.4)]
        code, out = self.run_gate(sweep(BASE), sweeps, "--strict")
        self.assertEqual(code, 0, out)
        self.assertIn("machine factor 1.000, 1.800, 1.400", out)

    def test_one_current_file_prints_the_single_sweep_report(self):
        # The full report of a one-file run, byte for byte: one row per
        # (config, jobs) point, as the single-sweep gate printed it.
        cur = dict(BASE)
        cur[100] *= 1.5
        cur[40] *= 1.1
        code, out = self.run_gate(sweep(BASE), sweep(cur, reference=0.055),
                                  "--strict")
        self.assertEqual(code, 1, out)
        rows = [(20, 2.0, 0.91), (40, 4.4, 1.00), (60, 6.0, 0.91),
                (80, 8.0, 0.91), (100, 15.0, 1.36), (120, 12.0, 0.91),
                (140, 14.0, 0.91), (160, 16.0, 0.91), (180, 18.0, 0.91),
                (200, 20.0, 0.91)]
        want = ("diff_bench: 10 shared points, machine factor 1.100 from the "
                "reference kernel, limit 1.20x after normalization\n")
        for jobs, ms, norm in rows:
            want += (f"  bucket1   jobs={jobs:<4}  "
                     f"{jobs * 0.1:8.3f} ms -> {ms:8.3f} ms  "
                     f"({norm:.2f}x normalized)")
            want += "  REGRESSION\n" if jobs == 100 else "\n"
        stdout, stderr = out[:len(want)], out[len(want):]
        self.assertEqual(stdout, want)
        self.assertIn("diff_bench: 1 point(s) regressed more than 20% over "
                      "baseline", stderr)

    def test_quality_columns_ride_along_and_never_gate(self):
        base = sweep(BASE)
        cur = sweep(BASE)
        for p in base["sweep"]:
            p.update(grouped_fraction=1.0, mean_gamma=0.5)
        for p in cur["sweep"]:
            p.update(classes=8, quotient_solves=2, quotient_fallbacks=0,
                     grouped_fraction=0.5, mean_gamma=0.25)
        code, out = self.run_gate(base, cur, "--strict")
        self.assertEqual(code, 0, out)
        self.assertIn("  bucket1   jobs=100     10.000 ms ->   10.000 ms  "
                      "(1.00x normalized)  [classes 8, quotient 2 "
                      "(0 fallbacks), grouped 1.000 -> 0.500, mean gamma "
                      "0.5000 -> 0.2500]\n", out)
        # A baseline without the columns prints the current values only.
        code, out = self.run_gate(sweep(BASE), cur, "--strict")
        self.assertEqual(code, 0, out)
        self.assertIn("grouped 0.500, mean gamma 0.2500]", out)


if __name__ == "__main__":
    unittest.main()
