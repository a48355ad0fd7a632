"""The mzsv benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed or built. Each pass of the workload runs in a
fresh interpreter (perfbench/worker.py), and passes repeat until --seconds
have gone by (at least one). With --trace 0 the last line of standard output
holds the end-to-end metrics; with --trace 1 it holds the per-layer metrics
of traced passes. The line before it holds the run's facts: machine, build,
seed, input digest, sample counts and every failed item.

Workloads, metrics and what each layer metric should move: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import speed
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 11       # extra cold interpreters that only time set-up
DEADLINE_S = 150.0      # start no pass that would end after this
MIN_BEYOND = 10         # a percentile needs this many samples beyond it


def _worker(root, out_dir, workload, seed, timeout, *flags):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--root", root,
           "--out", out_dir, "--workload", workload, "--seed", str(seed), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values, q):
    """Nearest-rank q-quantile (the median for q = 0.5), or None unless
    MIN_BEYOND samples lie above it."""
    xs = sorted(values)
    k = math.ceil(q * len(xs)) - 1
    if not xs or len(xs) - 1 - k < MIN_BEYOND:
        return None
    return statistics.median(xs) if q == 0.5 else xs[k]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    """HEAD of a git checkout, read from its files; None elsewhere."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root):
    """SHA-256 over the package sources, which identifies the build measured."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "mzsv")
    for name in sorted(os.listdir(src)):
        if name.endswith((".py", ".pyx")):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine_facts(root):
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "git_commit": _git_commit(root), "source_sha256": _source_digest(root)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mzsv", "__init__.py")):
        print("run.py: no mzsv sources under ./src/mzsv; run it from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)

    start = time.perf_counter()

    def remaining():
        return DEADLINE_S - (time.perf_counter() - start)

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(_worker(root, out_dir, args.workload, args.seed,
                                  remaining(), "--setup-only"))
    passes = []
    measure_start = time.perf_counter()
    while True:
        flags = ["--pass-index", str(len(passes))] + (["--trace"] if args.trace else [])
        t = time.perf_counter()
        passes.append(_worker(root, out_dir, args.workload, args.seed,
                              remaining(), *flags))
        last = time.perf_counter() - t
        if time.perf_counter() - measure_start >= args.seconds or last > remaining():
            break

    digests = {p["digest"] for p in setups + passes}
    if not args.trace:
        # report times at the reference speed (see speed.py); raw values stay
        # in the info line
        for p in passes:
            p["speed_factor"] = speed.NOMINAL_NS / p["speed_ns"]
            for rec in p["items"]:
                rec["ms"] *= speed.NOMINAL_NS / rec.pop("speed_ns")
    items = [rec for p in passes for rec in p["items"]]
    failures = [rec for rec in items if not rec["ok"]]
    check_errors = [e for p in passes for e in p["check_errors"]]
    if len(digests) != 1:
        check_errors.append("passes of one seed generated different inputs")
    latencies = [rec["ms"] for rec in items]
    digits = [rec["digits"] for rec in items if rec["digits"] is not None]

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "input_digest": passes[0]["digest"], "inputs_per_pass": passes[0]["inputs"],
        "passes": len(passes), "setup_samples": len(setups),
        "item_samples": len(latencies), "item_p90_ms": _percentile(latencies, 0.9),
        "fail_ratio": len(failures) / len(items),
        "failures": [{"item": r["label"], "error": r["error"]} for r in failures],
        "check_errors": check_errors, "checked_items": len(digits),
        "facts": dict(machine_facts(root), **passes[0]["facts"]),
        "raw_wall_s": [p["wall_s"] for p in passes],
        "raw_setup_s": [s["setup_s"] for s in setups],
        "import_ref_s": [s["import_ref_s"] for s in setups],
    }

    if args.trace:
        layer_names = passes[0]["layers"]
        metrics = {name: {"value": statistics.median(p["layers"][name] for p in passes),
                          "unit": _layer_unit(name)} for name in layer_names}
        info["spans_files"] = [p["spans_file"] for p in passes]
        info["trace_ns_per_span"] = statistics.median(p["trace_ns_per_span"]
                                                      for p in passes)
        info["traced_wall_s"] = statistics.median(p["wall_s"] for p in passes)
    else:
        info["speed_factor"] = [p["speed_factor"] for p in passes]
        info["speed_samples"] = [p["speed_samples"] for p in passes]
        p50 = _percentile(latencies, 0.5)
        if p50 is None:
            check_errors.append(f"{len(latencies)} item samples are too few for p50")
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_s"] * p["speed_factor"]
                                                  for p in passes), "unit": "s"},
            "item_p50_ms": {"value": p50, "unit": "ms"},
            "worst_digits": {"value": min(digits) if digits else None,
                             "unit": "digits"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(
                s["setup_s"] * speed.NOMINAL_IMPORT_S / s["import_ref_s"]
                for s in setups), "unit": "s"},
        }
    print(json.dumps({"info": info}))
    correct = not failures and not check_errors and all(
        m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": len(items),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_term_level"):
        return "ns"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
