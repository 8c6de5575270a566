"""slchyp benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, seed 1, untraced

Each workload runs in a fresh single-threaded interpreter (worker.py) as a
closed loop with one client.  --trace 0 reports the end-to-end metrics, with
every time scaled to the reference speed of speed.py so that the host's
drifting speed cancels out; --trace 1 runs the workload untraced, then
reruns the same operations with every listed slchyp layer wrapped, and
reports per-layer metrics in plain wall time.  Every verdict is checked
against hand-written expectations; the command exits 1 when any operation
failed.  The last line of output is one JSON object.
"""

import argparse
import glob
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 15
SETUP_KERNEL_SAMPLES = 5
SETUP_CODE = ("import sys, time; sys.path.insert(0, 'src'); import slchyp.cli; "
              "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
WORKER_TIMEOUT_S = 170
OUT_DIR = os.path.join(HERE, "out")

# Per-layer span names (each reports .calls and .self_s per operation); the
# CLI span is renamed cli.verify for `verify` calls.
LAYER_SPANS = list(dict.fromkeys(name for _m, _a, name in tracing.SPANS)) + ["cli.verify"]
# Counter metric -> tracer counter, reported per operation.
LAYER_COUNTS = {
    "fields.mul_prime.calls": "fields.mul_prime",
    "fields.mul_ext.calls": "fields.mul_ext",
    "fields.mul_q.calls": "fields.mul_q",
    "fields.inverse.calls": "fields.inverse",
    "fields.ctx_eq.calls": "fields.ctx_eq",
    "normalize.extensions": "normalize.extensions",
    "jets.np_reduce.calls": "jets.np_reduce",
    "jets.overflow": "jets.groebner_basis.raised.OracleOverflow",
    "cli.verify.rejected": "cli.verify.rejected",
}


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]), so p50 never exceeds the
    tail percentile even when the run holds few operations."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def setup_seconds():
    """Median wall time from launching an interpreter to `import slchyp.cli`
    returning, at the reference speed of speed.py: each launch is scaled by
    the kernel time sampled just before and after it.  The first launch only
    fills the bytecode cache."""
    samples = []
    for _ in range(SETUP_LAUNCHES + 1):
        kernel = [speed.time_kernel()[1] for _ in range(SETUP_KERNEL_SAMPLES)]
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        wall = float(proc.stdout) - t0
        kernel += [speed.time_kernel()[1] for _ in range(SETUP_KERNEL_SAMPLES)]
        samples.append(wall * speed.REFERENCE_S / statistics.harmonic_mean(kernel))
    return statistics.median(samples[1:])


def run_worker(workload, seed, seconds=None, ops=None, trace_out=None, calibrate=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds)] if ops is None else ["--ops", str(ops)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if calibrate:
        cmd += ["--calibrate"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def end_to_end(workload, res, setup_s):
    lat = res["latencies_s"]
    return {
        "ops_per_s": (sum(ok for ok, _ in res["passes"]) / sum(lat), "1/s"),
        "latency_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "latency_tail_ms": (percentile(lat, workloads.TAIL_PERCENTILE[workload]) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }


def src_loc():
    """Source lines under src/slchyp, an informational count."""
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "slchyp", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def per_layer(untraced, traced, spans_path):
    names, arrays = tracing.load_spans(spans_path)
    calls, selfs = tracing.self_times(names, arrays["name_id"], arrays["start"],
                                      arrays["end"], arrays["parent"])
    n = len(traced["latencies_s"])
    counts = traced["counts"]
    out = {}
    for name in LAYER_SPANS:
        out[f"{name}.calls"] = (calls[name] / n, "count/op")
        out[f"{name}.self_s"] = (selfs[name] / n, "s/op")
    for metric, key in LAYER_COUNTS.items():
        out[metric] = (counts.get(key, 0) / n, "count/op")
    out["normalize.ext_degree_max"] = (traced["ext_degree_max"], "degree")
    # useful-to-attempted ratio of root splitting (the root count itself
    # when no pow_mod call was made)
    out["unipoly.roots_per_pow_mod"] = (
        counts.get("unipoly.find_roots.roots", 0) / max(calls["unipoly.pow_mod"], 1), "ratio")
    traced_wall = sum(e - s for e, s, k in zip(arrays["end"], arrays["start"], arrays["name_id"])
                      if names[k] == tracing.OP_SPAN)
    out["bench.self_s"] = (selfs[tracing.OP_SPAN] / n, "s/op")
    out["trace.overhead_s"] = ((traced_wall - sum(untraced["latencies_s"])) / n, "s/op")
    out["src_loc"] = (src_loc(), "lines")
    accounted = sum(selfs.values())
    if abs(accounted - traced_wall) > 1e-6 * max(traced_wall, 1.0):
        raise AssertionError(f"self times sum to {accounted} s, traced wall is {traced_wall} s")
    return out


def measure(workload, seed, seconds, trace):
    """(metrics, attempted, failed, failure reasons) for one workload."""
    if not trace:
        setup_s = setup_seconds()
        res = run_worker(workload, seed, seconds=seconds, calibrate=True)
        print(f"# {workload}: kernel() took {res['kernel_s'] * 1e3:.3g} ms at the median, "
              f"{speed.REFERENCE_S * 1e3:g} ms at the reference speed")
        return (end_to_end(workload, res, setup_s), len(res["latencies_s"]),
                res["failed"], res["failures"])
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.bin")
    untraced = run_worker(workload, seed, seconds=seconds)
    traced = run_worker(workload, seed, ops=len(untraced["latencies_s"]), trace_out=spans_path)
    attempted = len(untraced["latencies_s"]) + len(traced["latencies_s"])
    return (per_layer(untraced, traced, spans_path), attempted,
            untraced["failed"] + traced["failed"], untraced["failures"] + traced["failures"])


def main(argv=None):
    ap = argparse.ArgumentParser(description="slchyp benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, default=None,
                    help="one workload (default: every workload)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length per workload (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "slchyp", "__init__.py")):
        print("run.py: src/slchyp not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    attempted = failed = 0
    metrics = {}
    for wl in names:
        m, a, f, reasons = measure(wl, args.seed, seconds, args.trace)
        attempted += a
        failed += f
        tail = workloads.TAIL_PERCENTILE[wl]
        print(f"# {wl}: {a} operations, {f} failed (failed_frac {f / a:.4g}), "
              f"latency_tail = p{tail:g}")
        for reason in reasons:
            print(f"#   FAILED {reason}")
        for name, (value, unit) in m.items():
            print(f"{wl:24} {name:34} {value:>16.6g} {unit}")
            key = name if args.workload else f"{wl}.{name}"
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
