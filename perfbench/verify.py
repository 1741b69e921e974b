#!/usr/bin/env python3
"""Re-checks the repo's equivalence guarantees on reduced benchmark inputs.

    python3 perfbench/verify.py [--seed 1] [--scale 0.25]

Builds the benchmark (see run.py), then computes anew, without stored
reference output:
  * SHP-2 on the BSP engine (4 simulated workers) against the threaded
    engine on the same social-graph snapshot and seed: fanout within rtol
    1e-4 (docs/distributed.md). SHP-k is printed too, for information only:
    the BSP engine does not implement RefinerOptions::exploration_probability,
    which SHP-k sets to 0.05, and tests/engine_test.cc promises only 10%;
  * SHP-2 and SHP-k on a power-law snapshot loaded by the spilling streaming
    ingest against the in-memory load: bit-identical assignments
    (docs/ingest.md).
Exits 0 only if every comparison passes.
"""
import argparse
import subprocess
import sys

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=0.25)
    args = parser.parse_args()
    binary = run.build()
    if binary is None:
        return 1
    cmd = [str(binary), "verify", f"--seed={args.seed}", f"--scale={args.scale}",
           f"--dir={run.build_dir() / 'verify'}"]
    return subprocess.run(cmd, timeout=600).returncode


if __name__ == "__main__":
    sys.exit(main())
