#!/usr/bin/env python3
"""invfuse benchmark: the train, serve and eval workloads.

Run from the repository root (nothing to install; the library is imported
from ``src/``):

    python3 perfbench/run.py                          # all workloads, untraced and traced
    python3 perfbench/run.py --workload serve --seed 3 --seconds 15 --trace 0

One workload runs in one process.  It sets up several times, each time
with the imports timed in a fresh interpreter, and reports the median set-up;
then it runs whole passes of fixed work until ``--seconds`` have
passed, checks the outputs outside the timed window, and prints one JSON
object as its last line: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  It exits 1 when a
check fails and 2 when the library cannot be imported from ``src/``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("train", "serve", "eval")
SETUPS = 5
DEFAULT_SECONDS = 20
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The GEMMs here are small: a second BLAS thread gains nothing measurable
# and makes every timing depend on the load of a second CPU.
BLAS_THREADS = "1"

# Tries the imports that the benchmark itself never makes, in a child
# process, so the modules that cannot load are listed with their error.
UNREACHABLE_PROBE = """
import importlib, json
out = {}
for name in ("config", "checkpoint", "cli"):
    try:
        importlib.import_module("invfuse." + name)
    except Exception as err:
        out[name] = f"{type(err).__name__}: {err}"
print(json.dumps(out))
"""

# Times the benchmark's imports (numpy and the library modules it uses) in
# a fresh interpreter: the part of set-up that a running process cannot
# repeat.
IMPORT_PROBE = """
from time import perf_counter
start = perf_counter()
import workloads, tracing
print(perf_counter() - start)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


# -- environment record -------------------------------------------------------

def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the requested one."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"


def _cpu_model():
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "cpu": _cpu_model(),
    }


def import_seconds():
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((str(ROOT / "src"), str(ROOT / "perfbench")))})
    return float(proc.stdout)


def unreachable_layers():
    proc = subprocess.run(
        [sys.executable, "-c", UNREACHABLE_PROBE], cwd=ROOT, capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    if proc.returncode != 0:
        return {"probe": proc.stderr.strip().splitlines()[-1]}
    return json.loads(proc.stdout)


# -- one workload ---------------------------------------------------------------

def run_one(args):
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy as np
        import invfuse
    except ImportError as err:
        print(f"error: cannot import invfuse from {src}: {err}", file=sys.stderr)
        return 2
    if not Path(invfuse.__file__).resolve().is_relative_to(src):
        print(f"error: invfuse was imported from {invfuse.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from invfuse.errors import InvfuseError

    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    OUT.mkdir(parents=True, exist_ok=True)
    work = workloads.WORKLOADS[args.workload]()
    problems = []
    try:
        import_times, setup_times = [], []
        for k in range(SETUPS):
            import_times.append(import_seconds())
            if tracer:
                tracer.begin(-1, f"setup{k}")
            t = perf_counter()
            work.setup(args.seed, OUT)
            setup_times.append(perf_counter() - t)

        gc.collect()
        clock = workloads.Clock(tracer)
        passes = 0
        pass_rates = []  # pairs per second of each pass that completed
        start = perf_counter()
        while True:
            if tracer:
                tracer.begin(passes, str(passes))
            failed_before = clock.failed
            pass_start = perf_counter()
            try:
                pairs = work.run_pass(clock, passes)
                pass_rates.append(pairs / (perf_counter() - pass_start))
            except InvfuseError as err:
                if clock.failed == failed_before:  # raised outside a unit of work
                    clock.attempted += 1
                    clock.failed += 1
                problems.append(f"pass {passes}: {type(err).__name__}: {err}")
            passes += 1
            if passes == 1:
                # the peak grows by a few MB over later passes as the heap
                # fragments, so it is taken after a fixed amount of work:
                # the set-ups and the first pass
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # tapes are reference cycles: collect them so that the memory
            # they hold does not add up across passes
            gc.collect()
            if perf_counter() - start >= args.seconds:
                break
        elapsed = perf_counter() - start
        if tracer:
            tracer.begin(None, None)
        if not problems:
            problems += work.check()
            val_loss = work.val_loss()
    finally:
        work.close()

    lat = clock.latencies
    print(f"# invfuse benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(environment())}")
    print(f"# unreachable layers {json.dumps(unreachable_layers())}")
    print("# wait time: not reported; one caller in one process, so nothing queues")
    print(f"# {passes} passes, {len(lat)} units of work, {elapsed:.3f} s timed, "
          f"set-up {[round(t, 3) for t in setup_times]} s, "
          f"imports {[round(t, 3) for t in import_times]} s")
    # the highest percentile with at least ten units of work beyond it
    tail = int(100 * (1 - 10 / len(lat))) if lat else 0
    if tail > 50:
        print(f"# latency tail (not gated): p{tail} {np.percentile(lat, tail):.6g} s "
              f"of {len(lat)} units")
    else:
        print(f"# latency tail: none, {len(lat)} units leave fewer than ten beyond any "
              f"percentile above the median")

    if tracer:
        metrics = tracing.layer_metrics(tracer.spans, passes, SETUPS)
        metrics["trace.latency_p50_s"] = (statistics.median(lat) if lat else 0.0, "s")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": (statistics.median(map(sum, zip(import_times, setup_times))), "s"),
        }
        if pass_rates:
            metrics["pairs_per_s"] = (statistics.median(pass_rates), "pairs/s")
        if lat:
            metrics["latency_p50_s"] = (statistics.median(lat), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        if not problems:
            metrics["val_loss"] = (val_loss, "loss")
    for name, (value, unit) in metrics.items():
        print(f"{name:<30} {value:>16.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": clock.attempted,
        "failed": clock.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


# -- all workloads ----------------------------------------------------------------

def run_all(args):
    """Each workload untraced, then traced, each in its own process."""
    results = {}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            status = status or proc.returncode
            lines = proc.stdout.strip().splitlines()
            if lines and lines[-1].startswith("{"):
                results[name, trace] = json.loads(lines[-1])
            else:
                results[name, trace] = None
                print(f"# {name} trace={trace}: exit status {proc.returncode}, no result")
    if any(r is None for r in results.values()):
        return status or 1

    print("# summary (tracing overhead: traced against untraced median unit of work)")
    merged = {}
    for name in WORKLOADS:
        e2e, layers = results[name, 0]["metrics"], results[name, 1]["metrics"]
        if "latency_p50_s" in e2e:
            overhead = layers["trace.latency_p50_s"]["value"] / e2e["latency_p50_s"]["value"] - 1
            e2e["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
        for metric, m in e2e.items():
            print(f"{name:<6} {metric:<22} {m['value']:>14.6g} {m['unit']}")
            merged[f"{name}.{metric}"] = m
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": merged,
    }))
    return status


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
