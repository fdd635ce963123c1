#!/usr/bin/env python3
"""nslab benchmark: seeded workloads over the public API, plus a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-n3 --seed 1 --seconds 30 --trace 0

Workloads and metrics are declared in BENCHMARK.json.  The last line on
stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1.  The lines before it hold the run record: configuration, machine,
iteration timings, gate evidence and the workload's layer predictions.
The exit code is 0 only when every gate passed.  --smoke runs a workload at
a tiny size; the benchmark's own tests use it.

The harness is closed loop: one process, one thread, each call issued after
the previous one returns.  This parent process uses only the standard
library; it sets the BLAS thread variables to 1, unsets NSL_THREADS and runs
child processes of this same script:

  setup   time a cold set-up (import nslab, build the workload's systems,
          connections and surfaces, one warm-up call that builds the Taylor
          tables), then exit; setup_s is the median over these processes
  worker  one more set-up sample, then the timed loop for --seconds: the
          workload's task, repeated on fresh seeded inputs, each output
          checked by its gate.  With --trace 1 the loop alternates untraced
          and traced iterations on the same inputs and the per-layer counts
          of every traced iteration must agree exactly.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROCESSES = 9          # plus the worker's own set-up sample
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2
DEADLINE_S = 170.0           # whole run, so it ends within 180 s


class BenchError(Exception):
    pass


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    ap.add_argument("--role", choices=("main", "setup", "worker"), default="main",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "min": values[0], "q1": q1, "median": q2, "q3": q3,
            "max": values[-1]}


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

def machine_info():
    import numpy
    import scipy

    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": None,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "NSL_THREADS": os.environ.get("NSL_THREADS")}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = None
    return info


def child_main(args):
    t0 = time.perf_counter()
    import workloads  # imports numpy and nslab: part of the cold set-up

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    wl.warm_up()
    setup_s = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
        tracer.finish_setup()
    result = {"setup_s": setup_s}
    if args.role == "worker":
        if tracer:
            result.update(traced_loop(args, wl, tracer, workloads.GateFailure))
        else:
            result.update(timed_loop(args, wl, workloads.GateFailure))
        result["machine"] = machine_info()
        result["predictions"] = workloads.PREDICTIONS[args.workload]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


def _attempt(wl, inputs, failures, gate_failure):
    """Time one task and check its output; None when it raised or failed."""
    t0 = time.perf_counter()
    try:
        out = wl.run(inputs)
        dt = time.perf_counter() - t0
        return dt, wl.check(out)
    except gate_failure as err:
        failures.append(f"gate: {err}")
    except Exception as err:  # noqa: BLE001 - a raising call counts as failed
        traceback.print_exc(file=sys.stderr)
        failures.append(f"{type(err).__name__}: {err}")
    return None


def timed_loop(args, wl, gate_failure):
    """Fresh inputs per iteration until --seconds would be exceeded."""
    times, evidence, failures = [], [], []
    attempted = 0
    min_iter = 1 if args.smoke else MIN_ITERATIONS
    start = time.perf_counter()
    spent = []
    while attempted < min_iter or (
            time.perf_counter() - start + statistics.median(spent) <= args.seconds):
        t0 = time.perf_counter()
        done = _attempt(wl, attempted, failures, gate_failure)
        spent.append(time.perf_counter() - t0)
        attempted += 1
        if done:
            times.append(done[0])
            evidence.append(done[1])
    return {"attempted": attempted, "failed": len(failures), "failures": failures,
            "times": times, "evidence": evidence,
            "rates": wl.rates(statistics.median(times)) if times else {}}


def traced_loop(args, wl, tracer, gate_failure):
    """Untraced and traced iterations alternate, all on the inputs of iteration 0."""
    untraced, traced, snapshots, failures = [], [], [], []
    attempted = 0
    min_traced = 1 if args.smoke else MIN_TRACED_ITERATIONS
    start = time.perf_counter()
    while len(traced) < min_traced or (
            time.perf_counter() - start + untraced[-1] + traced[-1] <= args.seconds):
        done = _attempt(wl, 0, failures, gate_failure)
        tracer.reset()
        tracer.install()
        try:
            done_traced = _attempt(wl, 0, failures, gate_failure)
        finally:
            tracer.uninstall()
        attempted += 2
        if not (done and done_traced):
            break
        untraced.append(done[0])
        traced.append(done_traced[0])
        snapshots.append(tracer.snapshot(wl.items, done_traced[1].get("error_rows", 0)))
    layers = {}
    if snapshots:
        first = {k: snapshots[0][k] for k in tracer.COUNT_KEYS}
        for snap in snapshots[1:]:
            diff = {k: (v, snap[k]) for k, v in first.items() if snap[k] != v}
            if diff:
                failures.append(f"trace counts differ between identical runs: {diff}")
        for key in snapshots[0]:
            layers[key] = statistics.median(s[key] for s in snapshots)
        layers.update(first)
        layers["trace.overhead_frac"] = (statistics.median(traced)
                                         / statistics.median(untraced) - 1.0)
    return {"attempted": attempted, "failed": len(failures), "failures": failures,
            "untraced_times": untraced, "traced_times": traced, "layers": layers}


# ----------------------------------------------------------------------
# parent
# ----------------------------------------------------------------------

def run_child(role, args, deadline):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {role} process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process exceeded the run deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(setup, worker):
    return {"setup_s": statistics.median(setup),
            "solve_s": statistics.median(worker["times"]) if worker["times"] else None,
            "peak_rss_mb": worker["peak_rss_mb"]}


def main(argv=None):
    args = parse_args(argv)
    if args.role != "main":
        child_main(args)
        return 0

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("NSL_THREADS", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    deadline = time.monotonic() + DEADLINE_S

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        if not (SRC / "nslab" / "__init__.py").is_file():
            raise BenchError(f"nslab sources not found under {SRC}")
        # every set-up sample then loads bytecode, not only those after the first
        compileall.compile_dir(SRC / "nslab", quiet=1)
        compileall.compile_dir(HERE, quiet=1, maxlevels=0)

        declared = spec["per_layer" if args.trace else "end_to_end"]
        setup = []
        if not args.trace:
            for _ in range(1 if args.smoke else SETUP_PROCESSES):
                setup.append(run_child("setup", args, deadline)["setup_s"])
        worker = run_child("worker", args, deadline)
        setup.append(worker["setup_s"])
    except (BenchError, OSError, KeyError, ValueError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2

    values = worker["layers"] if args.trace else end_to_end(setup, worker)
    missing = [m["name"] for m in declared if values.get(m["name"]) is None]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] not in missing}
    failures = list(worker["failures"]) + [f"metric {m} not measured" for m in missing]
    failed = max(worker["failed"], int(bool(missing)))
    correct = not failures and worker["attempted"] >= 1

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "loop": "closed, 1 process, 1 thread",
              "machine": worker["machine"],
              "setup_s": quartiles(setup),
              "failures": failures}
    if args.trace:
        record["untraced_s"] = quartiles(worker["untraced_times"])
        record["traced_s"] = quartiles(worker["traced_times"])
    else:
        record["solve_s"] = quartiles(worker["times"])
        record["rates"] = worker["rates"]
        record["evidence"] = worker["evidence"]
    record["failed_frac"] = failed / worker["attempted"]
    record["predictions"] = worker["predictions"]
    print(json.dumps({"record": record}, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": worker["attempted"],
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    for msg in failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
