"""One pass of one workload in a fresh, single-threaded interpreter.

    python3 perfbench/worker.py --root . --workload NAME --seed N [--trace]
    python3 perfbench/worker.py --root . --workload NAME --seed N --setup-only

Set-up (importing mzsv, which builds the identity registry, and generating
the inputs) is timed with --setup-only, from a cold interpreter, so
per-process caches start empty as they do for each CLI call. The pass is
timed around the public calls only; output checks run after it. The last line of standard output is
one JSON object describing the pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import speed
import tracing
import workloads


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(args.root, "src"))
    import mzsv
    import mzsv.cli
    workload = workloads.WORKLOADS[args.workload](args.out)
    plan = workload.setup(mzsv, args.seed)
    setup_s = time.perf_counter() - t0
    out = {"digest": workloads.digest(plan), "inputs": len(plan.inputs)}
    if args.setup_only:
        out["setup_s"] = setup_s
        out["import_ref_s"] = speed.reference_imports()
        print(json.dumps(out))
        return 0

    # Traced passes run without the probe: their self times are not bounded,
    # and the probe's interruptions would land in whichever span is open.
    probe = None if args.trace else speed.SpeedProbe()
    clock = workloads.ItemClock(probe)
    tracer = tracing.install(tracing.Tracer(clock), mzsv) if args.trace else None
    if probe is not None:
        probe.sample(1)
        probe_ns = probe.spent_ns
        probe.start()
    t1 = time.perf_counter_ns()
    try:
        raw = workload.run(mzsv, plan, clock)
    finally:
        wall_ns = time.perf_counter_ns() - t1
        if probe is not None:
            probe.stop()
            wall_ns -= probe.spent_ns - probe_ns
            probe.sample(1)
            out["speed_ns"] = probe.mean_ns()
            out["speed_samples"] = len(probe.chunks_ns)
        if tracer is not None:
            tracer.uninstall()
    wall_s = wall_ns / 1e9
    out["wall_s"] = wall_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records, errors = workload.check(mzsv, plan, raw)
    if len(records) != len(clock.samples):
        errors.append(f"{len(clock.samples)} timed calls for {len(records)} items")
    for k, (rec, sample) in enumerate(zip(records, clock.samples)):
        rec["ms"] = sample * 1000.0
        if probe is not None:
            rec["speed_ns"] = clock.local_speed_ns(k)
    out["items"] = records
    out["check_errors"] = errors
    out["facts"] = {"mzsv_backend": mzsv.BACKEND,
                    "mpmath": mzsv.context.mpmath.__version__,
                    "mpmath_backend": mzsv.context.mpmath.libmp.BACKEND}

    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        per_span_ns = tracing.wrapper_cost_ns()
        cost_s = per_span_ns * len(tracer.spans) / 1e9
        layers["trace.overhead_ratio"] = wall_s / max(wall_s - cost_s, 1e-9)
        out["layers"] = layers
        out["trace_ns_per_span"] = per_span_ns
        spans_path = os.path.join(
            args.out, f"spans-{args.workload}-{args.seed}-{args.pass_index}.jsonl")
        tracer.write_spans(spans_path)
        out["spans_file"] = spans_path
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
