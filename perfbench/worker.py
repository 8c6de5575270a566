"""Closed-loop runner for one workload in a fresh, single-threaded interpreter.

One client: each operation starts when the previous one returns.  The loop
runs whole passes, as many as fit best in --seconds (or exactly --ops
operations), then prints one JSON object with the per-operation latencies,
the per-pass counts and wall times, the failures and the peak RSS.  With
--trace-out the slchyp layers are wrapped for the run and the spans are
written to that file.

    python3 perfbench/worker.py --workload fixture_table --seed 1 --seconds 5
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import slchyp  # noqa: E402
import slchyp.cli  # noqa: E402,F401  (run_op reaches the CLI as slchyp.cli)

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def run(workload, seed, seconds=None, ops=None, trace=None, calibrate=None):
    """Run whole passes; return latencies (s), failure reasons and, per pass,
    (operations that passed their checks, wall time).  With a
    speed.Calibrator running, each latency leaves out the time its samples
    took and is scaled to the reference speed."""
    latencies, failures, passes = [], [], []
    started = time.perf_counter()
    if trace is not None:
        trace.install()
    try:
        for batch in workloads.generate(workload, seed):
            pass_start, pass_failures = time.perf_counter(), len(failures)
            for op in batch:
                if trace is not None:
                    trace.op_id = len(latencies)
                    span = trace.open(tracing.OP_SPAN)
                busy = calibrate.busy if calibrate is not None else 0.0
                t0 = time.perf_counter()
                try:
                    reason = workloads.run_op(slchyp, op)
                except Exception as exc:  # a raising operation is a failed one
                    reason = f"raised {type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                latencies.append(t1 - t0 if calibrate is None else (t0, t1, calibrate.busy - busy))
                if trace is not None:
                    trace.close(span)
                if reason is not None:
                    failures.append(f"{op.text} (p={op.p}): {reason}")
            passes.append((len(batch) - (len(failures) - pass_failures),
                           time.perf_counter() - pass_start))
            if ops is not None and len(latencies) >= ops:
                break
            # stop at the pass boundary nearest to the time budget
            elapsed = time.perf_counter() - started
            if ops is None and elapsed + elapsed / len(passes) / 2 > seconds:
                break
    finally:
        if trace is not None:
            trace.uninstall()
    if calibrate is not None:
        latencies = [calibrate.normalise(*timed) for timed in latencies]
    return latencies, failures, passes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--ops", type=int, default=None)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--calibrate", action="store_true",
                    help="scale latencies to the reference speed (see speed.py)")
    args = ap.parse_args(argv)
    if (args.seconds is None) == (args.ops is None):
        ap.error("give exactly one of --seconds and --ops")
    if args.calibrate and args.trace_out:
        ap.error("--calibrate and --trace-out exclude each other")
    trace = tracing.Tracer() if args.trace_out else None
    if args.calibrate:
        with speed.Calibrator() as calibrate:
            latencies, failures, passes = run(args.workload, args.seed, args.seconds,
                                              args.ops, calibrate=calibrate)
    else:
        latencies, failures, passes = run(args.workload, args.seed, args.seconds,
                                          args.ops, trace)
    out = {
        "latencies_s": latencies,
        "failed": len(failures),
        "failures": failures[:5],
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.calibrate:
        out["kernel_s"] = statistics.median(calibrate.took)  # for the report only
    if trace is not None:
        trace.dump(args.trace_out)
        out["counts"] = dict(trace.counts)
        out["ext_degree_max"] = trace.ext_degree_max
    print(json.dumps(out))


if __name__ == "__main__":
    main()
