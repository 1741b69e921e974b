#!/usr/bin/env python3
"""End-to-end partition benchmark: one run of one workload.

    python3 perfbench/run.py --workload shpk-text --seed 1 --seconds 25 --trace 0

Builds the benchmark against ../src (CMake, Release) into $CARGO_TARGET_DIR
(default .bench_build), runs the checker self-test, generates the seeded
input in its own process (cached per seed), then runs the workload for
--seconds in a fresh process. Prints every metric by name with its unit and
ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (and
writes <build>/out/<workload>.layers.json and .trace.json). Exits non-zero,
without a result line, if the build, the self-test or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("shpk-text", "shp2-bsp", "shp2-spilled")
CACHED_SEEDS = 3  # input sets kept per workload
HELPER_TIMEOUT_S = 120


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir() / "cmake"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"perfbench: build failed: {err}")
            return None
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def helper(binary, *args, timeout=HELPER_TIMEOUT_S):
    """Runs the driver binary; returns its stdout, or None on failure."""
    try:
        done = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"perfbench: {args[0]} failed: {err}")
        return None
    if done.returncode != 0:
        log(f"perfbench: {args[0]} exited with {done.returncode}")
        return None
    return done.stdout


def inputs(binary, workload, seed):
    """Returns the input directory for (workload, seed), generating it once."""
    base = build_dir() / "inputs" / workload
    target = base / f"seed-{seed}"
    manifest = target / "manifest.json"
    if not manifest.exists():
        if helper(binary, "gen", f"--workload={workload}", f"--seed={seed}",
                  f"--dir={target}") is None:
            return None
        cached = sorted((d for d in base.iterdir() if d.is_dir() and d != target),
                        key=lambda d: d.stat().st_mtime)
        for old in cached[:max(0, len(cached) - (CACHED_SEEDS - 1))]:
            shutil.rmtree(old, ignore_errors=True)
    os.utime(target)
    log(f"input: {manifest.read_text().strip()}")
    return target


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    if helper(binary, "selftest") is None:
        return 1
    input_dir = inputs(binary, args.workload, args.seed)
    if input_dir is None:
        return 1
    out_dir = build_dir() / "out"
    stdout = helper(binary, "run", f"--workload={args.workload}", f"--dir={input_dir}",
                    f"--out={out_dir}", f"--seconds={args.seconds}",
                    f"--trace={args.trace}", timeout=args.seconds + 120)
    if stdout is None or not stdout.strip():
        return 1
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except json.JSONDecodeError:
        log("perfbench: run printed no result")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench: malformed result")
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != listed:
        log("perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(printed.items()) ^ set(listed.items()))}")
        return 1
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
