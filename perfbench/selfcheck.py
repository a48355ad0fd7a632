"""Check that the benchmark's exact work counts repeat across runs.

    python3 perfbench/selfcheck.py --workload NAME --seed N

Runs the traced benchmark RUNS times with one seed and compares the counts
in tracing.EXACT_COUNTS (term-levels, tail-algebra calls, checkpoints,
series calls, ...). Wall times on a shared host drift; these counts must
not. Exits 1 if any count differs between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import tracing
import workloads

RUNS = 2
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    counts = []
    for _ in range(RUNS):
        proc = subprocess.run([sys.executable, RUN, "--workload", args.workload,
                               "--seed", str(args.seed), "--seconds", "1",
                               "--trace", "1"], capture_output=True, text=True,
                              check=True, timeout=600)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({name: metrics[name]["value"] for name in tracing.EXACT_COUNTS})
    same = all(c == counts[0] for c in counts)
    for name in tracing.EXACT_COUNTS:
        values = [c[name] for c in counts]
        flag = "" if len(set(values)) == 1 else "  <-- differs"
        print(f"{name:28s} {' '.join(str(v) for v in values)}{flag}")
    print(f"{args.workload} seed {args.seed}: exact counts "
          f"{'repeat' if same else 'DIFFER'} over {RUNS} runs")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
