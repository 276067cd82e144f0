#!/usr/bin/env python3
"""Benchmark command: builds the driver against src/ and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. The first call configures and builds
perfbench/ (a CMake project that compiles the library from ../src) into
.bench_build/perfbench; later calls rebuild only what changed. The driver
runs with every MCM_* environment knob removed, so each knob is at its
default whatever the caller's environment holds. The report goes to
stdout; its last line is one JSON object with the keys correct,
attempted, failed and metrics. The metric names and units are checked
against BENCHMARK.json (end_to_end with --trace 0, per_layer with
--trace 1).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "mcm_perfbench"
WORKLOADS = ("vec-paged", "vec-shard")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(env):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no library sources at " + str(ROOT / "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def pinned_environment():
    """The caller's environment minus every MCM_* knob (all at default)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MCM_")}
    knobs = []
    manifest = ROOT / "KNOBS.manifest"
    if manifest.is_file():
        for line in manifest.read_text().splitlines():
            words = line.split()
            if words and words[0].startswith("MCM_"):
                knobs.append(words[0])
    return env, knobs


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in table}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env, knobs = pinned_environment()
    expected = expected_metrics(args.trace)
    build(env)

    work_dir = ROOT / ".bench_build" / "work" / (
        "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir)]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail("driver exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("driver printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics do not match BENCHMARK.json: %s" % sorted(
            set(got) ^ set(expected)))
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("metric %s is not a finite number" % name)
        if not args.trace and value <= 0:
            fail("end-to-end metric %s is not positive" % name)

    print("# knobs pinned to default (unset): %d from KNOBS.manifest"
          % len(knobs))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
