"""Benchmark for adiaflow: one workload per process, untraced or traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``pipeline`` (the ``adiaflow pipeline``
command in-process), ``construct`` (Picard constructions on random stable
seeds) and ``witness`` (instability witnesses with random offsets).

``--trace 0`` measures the end-to-end metrics: set-up time, the median time
per operation, operations per second and peak memory.  Operation times are
reported at a fixed reference host speed (see ``HostSpeed``), because the
speed of the shared host the benchmark was defined on drifts by more than
the regression bounds.  ``--trace 1`` wraps every public adiaflow function,
runs set-up and a fixed number of operations, and reports per-layer metrics
from the spans plus the tracing overhead; the trace goes to
``.perfbench_out/`` under the checkout.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

#: Set-up is built this many times; the median is reported.
SETUP_REPEATS = 7

#: A traced run does a fixed number of operations, this many per second of
#: --seconds (at least one), so its counts repeat exactly for a seed.  The
#: rates give about --seconds of work at the speed the benchmark was defined
#: at; the pipeline, at about 50 s an operation, runs once.
TRACED_OPS_PER_SECOND = {"pipeline": 0.0, "construct": 3.5, "witness": 1.6}

#: A percentile is reported only with at least this many cases beyond it.
TAIL_CASES = 10

#: Host speed is sampled this often, in seconds of wall time, ...
SAMPLE_INTERVAL_S = 0.2
#: ... by timing this many round trips of a 1024-point real FFT, and for
#: workloads with ``threaded_blas`` one product of this many rows with a
#: 1024 x 1024 matrix, ...
KERNEL_FFTS = 100
KERNEL_ROWS = 48
#: ... and times are scaled to the speed at which these take this long.
REFERENCE_FFTS_S = 4.0e-3
REFERENCE_PRODUCT_S = 2.0e-3


def _import_program():
    """Import adiaflow from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "adiaflow", "__init__.py")):
        sys.exit(f"error: no adiaflow sources under {SRC}")
    sys.path.insert(0, SRC)
    import adiaflow

    if os.path.dirname(os.path.abspath(adiaflow.__file__)) != os.path.join(SRC, "adiaflow"):
        sys.exit(f"error: adiaflow was imported from {adiaflow.__file__}, not {SRC}")


def _openblas_info() -> dict:
    """OpenBLAS build string and thread count from the library numpy loaded."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return {"config": config().decode(), "threads": threads()}
    return {"config": None, "threads": None}


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas": _openblas_info(),
        "thread_env": {key: os.environ[key] for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        ) if key in os.environ},
    }


class HostSpeed:
    """Samples the host's speed while operations run, to scale their times.

    The host's speed swings by a factor of up to 1.7 in phases of seconds to
    minutes, with CPU time tracking wall time, so a plain wall-clock time
    says as much about the phase a run fell in as about the program.  While
    active, a SIGALRM handler in the main thread times a fixed numpy kernel,
    which calls no adiaflow code, every SAMPLE_INTERVAL_S seconds.  The
    kernel does the work the workload spends its time in: FFT round trips on
    one thread, as in the split-step solver, plus, with ``threaded_blas``, a
    dense product on the BLAS threads, as in the spectral propagator.  The
    two slow down by different amounts when the host does: with the product
    the kernel over-corrects the single-threaded pipeline and witness, and
    without it construct.

    ``timed`` subtracts the handler's own time from an operation and scales
    the rest by the kernel's reference time over its mean time in the
    samples taken during the operation and the one just before it.  Python
    runs the handler between bytecodes, so it never interrupts a numpy call.
    """

    def __init__(self, threaded_blas: bool):
        import numpy as np

        rng = np.random.default_rng(0)
        self._fft = np.fft
        self._x = rng.standard_normal(1024)
        self.threaded_blas = threaded_blas
        if threaded_blas:
            self._rows = rng.standard_normal((KERNEL_ROWS, 1024))
            self._matrix = rng.standard_normal((1024, 1024))
        self.reference_s = REFERENCE_FFTS_S + threaded_blas * REFERENCE_PRODUCT_S
        self.kernel_s = []
        self.paused_s = 0.0
        self._previous = None

    def sample(self, *_):
        start = time.perf_counter()
        for _ in range(KERNEL_FFTS):
            self._fft.irfft(self._fft.rfft(self._x))
        if self.threaded_blas:
            self._rows @ self._matrix
        elapsed = time.perf_counter() - start
        self.kernel_s.append(elapsed)
        self.paused_s += elapsed

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return len(self.kernel_s) - 1, self.paused_s

    def unpaused(self, mark, wall: float) -> float:
        """``wall`` seconds since ``mark`` less the time spent sampling."""
        return wall - (self.paused_s - mark[1])

    def factor(self, mark) -> float:
        """Reference over actual kernel time: the mean of the samples taken
        since ``mark`` and the one just before it.  The mean, because an
        operation's time adds up the speed it met at every moment."""
        return self.reference_s / statistics.fmean(self.kernel_s[mark[0]:])


def timed(fn, arg, speed=None):
    """(wall seconds, seconds at reference speed, result, traceback or None)
    of ``fn(arg)``; without ``speed`` both times are plain wall time."""
    mark = speed.mark() if speed is not None else None
    start = time.perf_counter()
    try:
        result, problem = fn(arg), None
    except Exception:
        result, problem = None, traceback.format_exc()
    wall = time.perf_counter() - start
    if speed is None:
        return wall, wall, result, problem
    wall = speed.unpaused(mark, wall)
    return wall, wall * speed.factor(mark), result, problem


def measure_setup():
    """(median seconds, runtime) over SETUP_REPEATS builds of the default run.

    Plain wall time: a build lasts about one HostSpeed sample interval, and
    the few samples that fall among the builds scatter more than the builds'
    own times do.
    """
    from adiaflow import harness
    from adiaflow.config import ExperimentConfig

    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        runtime = harness.build_runtime(ExperimentConfig())
        times.append(time.perf_counter() - start)
    return statistics.median(times), runtime


def measure(workload, *, seconds=None, n_ops=None, tracer=None,
            speed=None) -> dict:
    """Run cases until their summed wall time reaches ``seconds``, or
    ``n_ops`` cases; validate each outside its timed interval, and with
    tracing off.  ``times`` are at reference speed when ``speed`` is given."""
    wall_times, times, failed = [], [], 0
    cases = workload.cases()
    while len(times) < n_ops if n_ops else sum(wall_times) < seconds:
        case = next(cases)
        if tracer is not None:
            tracer.enabled = True
        wall, elapsed, output, problem = timed(workload.run, case, speed)
        if tracer is not None:
            tracer.enabled = False
        wall_times.append(wall)
        times.append(elapsed)
        try:
            if problem is None:
                problem = workload.validate(case, output)
        finally:
            workload.cleanup(case)
        if problem is not None:
            failed += 1
            print(f"FAILED case {len(times)}: {problem}", file=sys.stderr)
    return {"times": times, "wall_times": wall_times, "failed": failed}


def percentile_ms(times, q: int):
    """The q-th percentile in ms, or None with fewer than TAIL_CASES beyond."""
    if len(times) * (100 - q) / 100 < TAIL_CASES:
        return None
    return statistics.quantiles(times, n=100)[q - 1] * 1e3


def end_to_end(label: str, result: dict, setup_s: float, speed) -> dict:
    """End-to-end metrics, at reference speed; also prints them under the
    per-workload names, and the wall-clock figures."""
    times, wall_times = result["times"], result["wall_times"]
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if label == "pipeline":
        named = {"pipeline_s": (statistics.median(times), "s")}
    else:
        named = {
            f"{label}_per_s": metrics["ops_per_s"],
            f"{label}_ms_p50": metrics["op_ms_p50"],
            f"{label}_ms_p90": (percentile_ms(times, 90), "ms"),
        }
    named["failed_ratio"] = (result["failed"] / len(times), "1")
    named["wall_op_ms_p50"] = (statistics.median(wall_times) * 1e3, "ms")
    named["wall_ops_per_s"] = (len(wall_times) / sum(wall_times), "1/s")
    named["host_speed"] = (
        speed.reference_s / statistics.fmean(speed.kernel_s), "ratio")
    print(f"{label}: {len(times)} operations, {result['failed']} failed")
    for name, (value, unit) in {**metrics, **named}.items():
        shown = (f"not reported: {len(times)} cases leave fewer than "
                 f"{TAIL_CASES} beyond it" if value is None else f"{value:.6g} {unit}")
        print(f"  {name:<20} {shown}")
    return metrics


def per_layer(label: str, tracer, result: dict, trace_path: str, env: dict):
    """Per-layer metrics from a traced run; writes the trace.  Returns
    (metrics, problems with the trace)."""
    from tracer import layer_metrics, traced_seconds

    problems = tracer.verify()
    metrics = layer_metrics(tracer)
    overhead = tracer.overhead_s()
    metrics["trace.op_ms_p50"] = (statistics.median(result["times"]) * 1e3, "ms")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / traced_seconds(tracer), "ratio")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "workload": label,
                   "operations": len(result["times"]),
                   "op_times_s": result["times"], "problems": problems,
                   "metrics": {k: v[0] for k, v in metrics.items()},
                   **tracer.to_dict()}, fh)
    print(f"{label}: traced {len(result['times'])} operations, "
          f"{result['failed']} failed; trace in {trace_path}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<44} {value:.6g} {unit}")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "construct", "witness"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    _import_program()
    from tracer import Tracer
    from workloads import WORKLOADS

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    run_dir = os.path.join(OUT_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    tracer = Tracer() if args.trace else None
    problems = []
    try:
        if tracer is None:
            setup_s, runtime = measure_setup()
            kind = WORKLOADS[args.workload]
            with HostSpeed(kind.threaded_blas) as speed:
                workload = kind(runtime, args.seed, run_dir)
                result = measure(workload, seconds=args.seconds, speed=speed)
        else:
            tracer.install()
            setup_s, runtime = measure_setup()
            tracer.enabled = False
            workload = WORKLOADS[args.workload](runtime, args.seed, run_dir)
            n_ops = max(1, round(TRACED_OPS_PER_SECOND[args.workload] * args.seconds))
            result = measure(workload, n_ops=n_ops, tracer=tracer)
    finally:
        if tracer is not None:
            problems += tracer.uninstall()
        if os.path.isdir(run_dir) and not os.listdir(run_dir):
            os.rmdir(run_dir)
    if tracer is None:
        metrics = end_to_end(workload.label, result, setup_s, speed)
    else:
        trace_path = os.path.join(
            OUT_ROOT, f"trace-{args.workload}-seed{args.seed}.json")
        metrics, trace_problems = per_layer(
            workload.label, tracer, result, trace_path, env)
        problems += trace_problems
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0 and not problems,
        "attempted": len(result["times"]),
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
