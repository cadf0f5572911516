#!/usr/bin/env python3
"""Builds and runs the Muri benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test      # tests of the statistics helpers

Run from the root of a source checkout. The benchmark package
(perfbench/CMakeLists.txt) is configured and built into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use;
later runs only rebuild what changed. Build output goes to stderr, so the
last line of stdout is always muri_perfbench's result JSON. Exits non-zero
when the build fails, muri_perfbench fails, or any correctness check
fails.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def manifest_metrics(per_layer):
    """Name -> unit of the metrics BENCHMARK.json says a run reports."""
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if per_layer else "end_to_end"]}


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return Path(root) / "perfbench"


def build(target):
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target,
                  "-j", str(min(os.cpu_count() or 1, 4))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return out


def main(argv):
    if argv == ["--test"]:
        out = build("perfbench_stats_test")
        return subprocess.run([str(out / "perfbench_stats_test")]).returncode

    out = build("muri_perfbench")
    cmd = [str(out / "muri_perfbench"), *argv, "--work-dir", str(out / "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: muri_perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: muri_perfbench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit("perfbench: malformed result line: " + lines[-1])
    expected = manifest_metrics("--trace" in argv and
                                argv[argv.index("--trace") + 1] == "1")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        sys.exit(f"perfbench: result metrics {got} differ from "
                 f"BENCHMARK.json's {expected}")
    sys.stdout.write(proc.stdout)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
