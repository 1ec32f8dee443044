#!/usr/bin/env python3
"""Closed-loop benchmark of benflow: one process, one caller, one workload.

    python3 flowbench/run.py --workload verdicts --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; benflow is imported from src/.
With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
a traced run.  The line before it describes the run (BLAS threads,
latencies, raw and at the reference speed of flowbench/calibration.py,
check results).  Exits 1 without a result when the checkout
has no benflow or a check cannot run.
"""
from __future__ import annotations

import os

# Fixed before numpy is first imported, here and in every child process,
# so that no BLAS thread competes with the single caller, and so that
# numpy's large arrays do not ask for transparent huge pages, whose
# supply depends on the host's memory state and can move the peak RSS
# from run to run (see README.md).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".flowbench_out"
SETUP_REPEATS = 5
MIN_TAIL_OPS = 40

_SETUP_CHILD = """
import sys
sys.path[:0] = sys.argv[1:3]
import benflow, benflow.cli
import workloads
workloads.warmup(benflow, sys.argv[3])
"""


def measure_setup(workload: str) -> tuple[float, list[float], list[float]]:
    """Median wall time of a fresh python3 that imports benflow and makes
    one warm-up call, at the reference speed: each start is scaled by the
    start of a fresh python3 that imports numpy alone, timed just before
    it (see calibration.py).  One unmeasured start of each first fills the
    bytecode and page caches, which a user's repeated runs would also find
    warm.  No timeout: with one, subprocess polls and rounds each time up
    to 50 ms.  Returns the scaled median, the set-up times and the probe
    times."""
    from calibration import IMPORT_PROBE, IMPORT_REFERENCE_S

    cmd = [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE), workload]
    probe = [sys.executable, "-c", IMPORT_PROBE]

    def wall(argv: list[str]) -> float:
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    times, probes = [], []
    for i in range(SETUP_REPEATS + 1):
        k, t = wall(probe), wall(cmd)
        if i:
            times.append(t)
            probes.append(k)
    return statistics.median(t * IMPORT_REFERENCE_S / k for t, k in zip(times, probes)), times, probes


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "benflow" / "__init__.py").is_file():
        print(f"error: no benflow sources under {SRC}", file=sys.stderr)
        return 1

    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    from calibration import Calibration
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    import benflow
    import benflow.cli

    wl = workloads.WORKLOADS[args.workload](benflow, args.seed, SCRATCH / f"{args.workload}-{os.getpid()}")
    tracer = Tracer(benflow) if args.trace else None
    wl.tracer = tracer
    workloads.warmup(benflow, args.workload)
    calibration = Calibration(args.workload)

    # Timed phase: whole rounds until the time is up.  In a traced run every
    # other operation is traced, so both halves see the same conditions.
    # The calibration kernel is timed right after each operation, outside
    # its interval, so that every operation lies between two kernel runs.
    ops, traced_lat, plain_lat = [], [], []
    clock = time.perf_counter
    rounds = 0
    try:
        calibration.time()
        kernel = [calibration.time()]
        start = clock()
        while clock() - start < args.seconds:
            for op in wl.prepare(rounds):
                traced = tracer is not None and len(ops) % 2 == 1
                if traced:
                    tracer.install(op.index)
                t0 = clock()
                try:
                    wl.run(op)
                except Exception:  # a failing operation is counted, not fatal
                    op.error = traceback.format_exc(limit=3)
                op.latency = clock() - t0
                if traced:
                    tracer.uninstall()
                (traced_lat if traced else plain_lat).append(op.latency)
                wl.settle(op)
                ops.append(op)
                kernel.append(calibration.time())
            rounds += 1
        # Read before the set-up processes start and before any reference
        # computation, so neither can raise the figure.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s, setup_runs, probe_runs = (None, [], []) if tracer else measure_setup(args.workload)

        # Everything below runs after the measurement.
        failed, errors = wl.evaluate(ops)
        errors += wl.self_test(ops)
    finally:
        calibration.close()
        wl.close()

    # Each latency at the reference speed, by the mean of the kernel runs
    # just before and just after it.
    latencies = [op.latency * calibration.reference * 2 / (k0 + k1) for op, k0, k1 in zip(ops, kernel, kernel[1:])]
    raw = [op.latency for op in ops]
    info = {
        "workload": args.workload, "seed": args.seed, "blas_threads": BLAS_THREADS, "rounds": rounds,
        "ops": len(ops), "latency_p50_ms": 1e3 * statistics.median(latencies),
        "raw_latency_p50_ms": 1e3 * statistics.median(raw), "raw_ops_per_s": len(raw) / sum(raw),
        "kernel_p50_ms": 1e3 * statistics.median(kernel), "errors": errors[:20],
    }
    if len(latencies) >= MIN_TAIL_OPS:
        info["latency_p90_ms"] = 1e3 * quantile(latencies, 0.9)
    if tracer is None:
        info["setup_runs_s"], info["setup_probe_runs_s"] = setup_runs, probe_runs
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(ops) / sum(latencies), "1/s"),
            "latency_p50_ms": (info["latency_p50_ms"], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        overhead = statistics.median(traced_lat) / statistics.median(plain_lat) - 1 if plain_lat and traced_lat else 0.0
        metrics = tracer.layer_metrics(len(traced_lat))
        metrics["trace.overhead_share"] = (overhead, "share")
        info["missing_targets"] = tracer.missing
        trace_path = SCRATCH / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(info))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
