#!/usr/bin/env python3
"""Checks that the benchmark's exact counts repeat for a fixed seed.

Runs every workload twice (end-to-end and traced, 2 s each) with the
default seed from workloads.json and fails unless the counts that must
not depend on timing are identical across the two runs:

    python3 perfbench/test_counts.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
EXACT = {
    0: ["sim_cycles", "code_words"],
    1: ["pipeliner.sum_ii", "pipeliner.intervals_tried", "service.compiles"],
}


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(WORKLOADS["default_seed"]), "--seconds", "2",
           "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode or not result["correct"]:
        sys.exit(f"{workload}: run failed ({out.returncode}): {out.stderr}")
    return {k: result["metrics"][k]["value"] for k in EXACT[trace]}


def main() -> int:
    bad = 0
    for workload in sorted(WORKLOADS["workloads"]):
        for trace in EXACT:
            first, second = run(workload, trace), run(workload, trace)
            for name in EXACT[trace]:
                same = first[name] == second[name]
                bad += not same
                print(f"{workload:15s} {name:26s} {first[name]:>12g} "
                      f"{second[name]:>12g} {'ok' if same else 'DIFFERS'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
