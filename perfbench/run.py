#!/usr/bin/env python3
"""End-to-end benchmark of warp-swp.

Builds the benchmark binary from the source tree this file sits in (into
.bench_build/perfbench at the repository root), then runs one workload:

    python3 perfbench/run.py --workload livermore --seed 1 --seconds 10 --trace 0

The binary prints notes and one line per metric, and as its last line one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 1 it reports the per-layer metrics and writes a Perfetto trace to
.bench_build/traces/. Build failures exit 2 without printing a result; a
failed or wrong request makes it exit 1.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())


def build() -> bool:
    """Configures and brings the binary up to date (about 0.5 s when it is)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD)],
             ["cmake", "--build", str(BUILD), "--target", "swp_perfbench",
              "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: the last stdout line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS["workloads"]))
    p.add_argument("--seed", type=int, default=WORKLOADS["default_seed"])
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be nonnegative")

    if not build():
        return 2
    TRACES.mkdir(parents=True, exist_ok=True)
    trace_out = TRACES / f"{args.workload}-seed{args.seed}.json"
    cmd = [str(BUILD / "swp_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-out", str(trace_out)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
