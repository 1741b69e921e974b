#!/usr/bin/env python3
"""Stability check for the end-to-end benchmark, and the source of its bounds.

    python3 perfbench/stability.py [--seeds 10] [--workloads ...] [--write]

Runs perfbench/run.py (--trace 0) on every workload in two separate sets of
--seeds runs each, at the run length in BENCHMARK.json. Both sets use the
same seeds (1, 2, ...), so the drift between them measures run-to-run and
host variation only, not graph-to-graph variation. For each workload and
end-to-end metric it prints each set's median and quartiles, the spread
(q3 - q1) / median, and the drift of set 2's median from set 1's. The bound
it derives for a metric is three times the worst spread or drift seen on any
workload, rounded up to 0.05 and kept within [0.05, 0.25]. --write stores
the derived bounds in BENCHMARK.json.

A run that exits without a result is reported and left out of the figures.
Exits 1 if a run fails, reports correct=false, the share of failed
operations differs between the sets, or a spread or a drift exceeds the
bound currently in BENCHMARK.json.
"""
import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
MAX_BOUND = 0.25
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=seconds + 900)
    if done.returncode != 0:
        tail = "\n  ".join(done.stderr.splitlines()[-3:])
        print(f"{workload} seed {seed}: exit {done.returncode}, no result\n  {tail}", flush=True)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def derived_bound(worst):
    return min(MAX_BOUND, max(0.05, math.ceil(3 * worst * 20 - 1e-9) / 20))


def main():
    spec = json.loads(SPEC.read_text())
    workloads_all = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=workloads_all)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    metrics = [m["name"] for m in spec["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    # results[set][workload] = list of result objects
    results = [{w: [] for w in args.workloads} for _ in range(SETS)]
    ok = True
    for s in range(SETS):
        for i in range(args.seeds):
            seed = 1 + i
            for w in args.workloads:
                r = run_once(w, seed, spec["run_seconds"])
                if r is None:
                    ok = False
                    continue
                results[s][w].append(r)
                ok &= bool(r["correct"])
                print(f"set {s + 1} seed {seed} {w}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} " +
                      " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()),
                      flush=True)

    worst = {m: 0.0 for m in metrics}
    print()
    for w in args.workloads:
        shares = [sum(r["failed"] for r in results[s][w]) /
                  sum(r["attempted"] for r in results[s][w]) for s in range(SETS)]
        if len(set(shares)) != 1:
            print(f"{w}: failed share differs between sets: {shares}")
            ok = False
        for m in metrics:
            first_median = None
            for s in range(SETS):
                values = [r["metrics"][m]["value"] for r in results[s][w]]
                median, q1, q3, spread = summary(values)
                drift = 0.0 if first_median is None else (median - first_median) / first_median
                first_median = median if first_median is None else first_median
                worst[m] = max(worst[m], spread, abs(drift))
                over = spread > bounds[m] or abs(drift) > bounds[m]
                ok &= not over
                print(f"{w:13s} {m:12s} set {s + 1}: median={median:.5g} q1={q1:.5g} "
                      f"q3={q3:.5g} spread={spread:.4f} drift={drift:+.4f} "
                      f"bound={bounds[m]}{'  OVER' if over else ''}")
    print()
    derived = {m: derived_bound(worst[m]) for m in metrics}
    for m in metrics:
        print(f"{m:12s} worst spread/drift={worst[m]:.4f} derived bound={derived[m]:.2f} "
              f"current={bounds[m]}")
    if args.write:
        for entry in spec["end_to_end"]:
            entry["bound"] = derived[entry["name"]]
        SPEC.write_text(json.dumps(spec, indent=2) + "\n")
        print(f"wrote bounds to {SPEC}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
