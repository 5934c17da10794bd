"""Benchmark of the bcdyn library.

Run from the repository root:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 36 --trace 0

Workloads: catalog, scan, stiff (see workloads.py).  One process, one
thread, BLAS pinned to one thread, a closed loop: the next library call
starts when the previous one returns.  Inputs are generated from --seed
before timing.  Every result is checked outside the timed call.
Times are reported at a reference host speed (see Probe); the report also
prints them as measured.

--trace 0 measures end-to-end metrics for --seconds of wall time.
--trace 1 instead runs the first inputs of the same seeded pool with the
library wrapped by tracer.Tracer, then replays them untraced to measure the
tracing overhead, and reports per-module metrics.  Spans are written to
perfbench/out/.

A human-readable report goes to stdout; its last line is one JSON object
with the keys correct, attempted, failed and metrics.  A call fails if it
raises or if its result fails its check; correct is false when any result
failed its check.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
from itertools import cycle
from time import perf_counter

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
# The traced loop stops after this share of --seconds even if it has not
# run all of the workload's trace inputs; the untraced replay takes less.
TRACE_SHARE = 0.6
P90_MIN_CALLS = 100
PROBE_STEPS = 20
# A round figure near the probe kernel's time on the 2-vCPU x86-64 host the
# benchmark was written on; times are reported at the host speed where a
# reading takes this long (see Probe).
PROBE_REF_S = 200e-6
SAMPLE_EVERY_S = 0.02
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class Loop:
    """Calls, timings and check outcomes of one measured loop."""

    def __init__(self) -> None:
        self.raw: list[float] = []       # seconds per call, as measured
        self.readings: list[float] = []  # mean probe reading over each call
        self.items = 0
        self.attempted = 0
        self.failed = 0     # calls that raised or returned a wrong result
        self.wrong = 0      # calls that returned a wrong result
        self.requested = 0  # units of work asked for
        self.done = 0       # units of work whose result passed its check
        self.reasons: list[str] = []
        self.pending: list[tuple] = []

    def judge(self, work: int, check, result) -> None:
        try:
            reason = check(result)
        except Exception as exc:  # a changed result type fails, not crashes
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None:
            self.done += work
        else:
            self.wrong += 1
            self.fail(reason)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def durations(self) -> list[float]:
        """Seconds per call at the reference host speed (see Probe)."""
        return [t * PROBE_REF_S / s for t, s in zip(self.raw, self.readings)]


def _stage(a, b, c, d, e):
    return (
        0.1 * a * (1.0 - a) - 0.2 * a * b, 0.3 * b - 0.1 * b * c / (1.0 + b),
        0.2 - 0.3 * c + 0.1 * a * c, 0.5 * (1.0 - d), 0.1 * math.exp(-e) - 0.05 * e,
    )


class Probe:
    """Measures how fast the shared host runs, before, during and after
    each timed call.

    Other tenants slow this host down by up to 2x, in phases from about a
    second to minutes, so raw wall times drift with their load.  A fixed
    kernel is timed before and after each call, and every SAMPLE_EVERY_S
    during it from a timer signal.  A call's time multiplied by
    PROBE_REF_S / (mean reading over the call) is its time on a host where
    the kernel takes PROBE_REF_S.  The ratio is taken against a constant
    and not against the run's fastest reading, because a slow phase can
    last a whole run.

    The kernel runs Runge-Kutta stages on tuples in pure Python: the kind
    of work the library does, but none of its code, so it slows down with
    the host and not with a change to bcdyn.  It has no numpy call: the
    time of a small numpy eigenvalue or root problem changed by up to 2x
    between runs of the same code on a steady host.  Five runs of one stiff
    seed whose raw throughput ranged over 1.28x ranged over 1.13x
    normalized.  Use as a context manager.
    """

    def __init__(self) -> None:
        self._busy = False               # a reading is under way
        self._samples: list[float] = []  # readings taken by the timer signal
        self._paused = 0.0               # seconds spent taking them
        self()  # warm-up

    def __enter__(self) -> "Probe":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        start = perf_counter()
        self._samples.append(self())
        self._paused += perf_counter() - start

    def __call__(self) -> float:
        """Seconds the kernel takes now.  The garbage collector is off
        meanwhile, so that a collection of the library's objects is not
        charged to the host."""
        self._busy, gc_on = True, gc.isenabled()
        gc.disable()
        start = perf_counter()
        y, h = (0.5, 0.4, 0.3, 0.2, 0.1), 0.01
        for _ in range(PROBE_STEPS):
            k1 = _stage(*y)
            k2 = _stage(*(yi + h * 0.5 * a for yi, a in zip(y, k1)))
            k3 = _stage(*(yi + h * 0.5 * b for yi, b in zip(y, k2)))
            y = tuple(yi + h * (a + 2.0 * b + c) / 4.0 for yi, a, b, c in zip(y, k1, k2, k3))
        elapsed = perf_counter() - start
        if gc_on:
            gc.enable()
        self._busy = False
        return elapsed

    def time(self, fn, *args):
        """Run ``fn(*args)``; returns (result, seconds, mean reading).  The
        seconds exclude the readings taken during the call."""
        readings = [self()]
        first, paused = len(self._samples), self._paused
        start = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - start - (self._paused - paused)
        readings += self._samples[first:]
        readings.append(self())
        return result, elapsed, sum(readings) / len(readings)

    def at_ref(self, fn, *args) -> float:
        """Seconds ``fn(*args)`` takes at the reference host speed."""
        _, elapsed, reading = self.time(fn, *args)
        return elapsed * PROBE_REF_S / reading


def measure(workload, bc, pool, probe: Probe, seconds: float, limit: int | None = None,
            defer_checks: bool = False) -> Loop:
    """Closed loop over the pool (cycled) until ``seconds`` of wall time or
    ``limit`` inputs.  With ``defer_checks`` the results are kept in
    ``pending`` and checked by the caller."""
    loop = Loop()
    deadline = perf_counter() + seconds
    for item in cycle(pool):
        if loop.items == limit or perf_counter() >= deadline:
            break
        loop.items += 1
        for work, call, check in workload.calls(bc, item):
            loop.attempted += 1
            loop.requested += work
            start = perf_counter()
            try:
                result, elapsed, reading = probe.time(call)
            except Exception as exc:  # a failed call is counted, the run goes on
                loop.raw.append(perf_counter() - start)
                loop.readings.append(probe())
                loop.fail(f"{type(exc).__name__}: {exc}")
                continue
            loop.raw.append(elapsed)
            loop.readings.append(reading)
            if defer_checks:
                loop.pending.append((work, check, result))
            else:
                loop.judge(work, check, result)
    return loop


def import_bcdyn(src: str):
    """Import bcdyn afresh from ``src``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "bcdyn" or m.startswith("bcdyn.")]:
        del sys.modules[name]
    bc = importlib.import_module("bcdyn")
    if os.path.dirname(os.path.realpath(bc.__file__)) != os.path.realpath(os.path.join(src, "bcdyn")):
        raise ImportError(f"bcdyn imported from {bc.__file__}, not from {src}")
    return bc


def set_up(workload, src: str, seed: int, repeats: int, probe: Probe):
    """Import, generate the seeded inputs and make one warm-up call,
    ``repeats`` times; returns the last import, its inputs and the set-up
    times at the reference host speed."""
    raw, readings = [], []
    for _ in range(repeats):
        def once():
            bc = import_bcdyn(src)
            return bc, workload.make_inputs(bc, seed), workload.warm_up(bc)

        (bc, pool, _), elapsed, reading = probe.time(once)
        raw.append(elapsed)
        readings.append(reading)
    return bc, pool, [t * PROBE_REF_S / s for t, s in zip(raw, readings)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, bc, pool, probe, setup_times, seconds):
    loop = measure(workload, bc, pool, probe, seconds)
    durations = loop.durations()
    n = len(durations)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (loop.done / sum(durations), "1/s"),
        "call_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups: "
                   + ", ".join(f"{t:.4f}" for t in setup_times),
        "ops_per_s": f"{loop.done} units in {sum(durations):.3f} s of calls "
                     f"(as measured: {loop.done / sum(loop.raw):.6g} 1/s)",
        "call_p50_ms": f"n={n} (as measured: {statistics.median(loop.raw) * 1e3:.6g} ms)",
    }
    if n >= P90_MIN_CALLS:
        p90 = f"{statistics.quantiles(durations, n=10)[-1] * 1e3:14.6g} ms     n={n}"
    else:
        p90 = f"{'n/a':>14s}        n={n} < {P90_MIN_CALLS} calls"
    extra = [
        f"{'call_p90_ms':24s} {p90}",
        f"{'failed_frac':24s} {loop.failed / max(loop.attempted, 1):14.6g}        "
        f"{loop.failed}/{loop.attempted} calls",
        f"{'host_slowdown':24s} {statistics.median(loop.readings) / PROBE_REF_S:14.6g}        "
        "median over calls; times above are at the reference host speed",
    ]
    return loop, metrics, notes, extra


def traced(workload, bc, pool, probe, seed, seconds):
    import tracer
    import workloads

    micro = workloads.model_microbench(bc, seed, probe.at_ref)
    with tracer.Tracer() as tr:
        loop = measure(workload, bc, pool, probe, TRACE_SHARE * seconds,
                       limit=workload.trace_items, defer_checks=True)
    for pending in loop.pending:
        loop.judge(*pending)
    loop.pending.clear()
    plain = measure(workload, bc, pool, probe, float("inf"), limit=loop.items)
    traced_s, plain_s = sum(loop.durations()), sum(plain.durations())
    # Layer times at the reference host speed, like the end-to-end times.
    scale = PROBE_REF_S / statistics.median(loop.readings)
    metrics = {name: (v, "us") for name, v in micro.items()}
    for name, (value, unit) in tracer.layer_metrics(tr, loop.requested).items():
        metrics[name] = (value * scale if unit in ("s", "us") else value, unit)
    metrics["trace.ops"] = (loop.requested, "count")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "ratio")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.json")
    tr.write(path)
    notes = {"trace.ops": f"{loop.items} inputs, {loop.attempted} calls; spans in {path}"}
    extra = [
        f"host slowdown {1 / scale:.4g} (median over calls); layer times are scaled to the reference speed",
        "waiting: none - one thread, a closed loop and no queues, so no module waits",
    ]
    if tr.absent:
        extra.append("absent (not traced): " + ", ".join(tr.absent))
    return loop, metrics, notes, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog", "scan", "stiff"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    # Before numpy is imported anywhere: BLAS on one thread.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "bcdyn", "__init__.py")):
        print("perfbench: no bcdyn sources at ./src/bcdyn; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    with Probe() as probe:
        bc, pool, setup_times = set_up(
            workload, src, args.seed, 1 if args.trace else SETUP_REPEATS, probe
        )
        if args.trace:
            loop, metrics, notes, extra = traced(workload, bc, pool, probe, args.seed, args.seconds)
        else:
            loop, metrics, notes, extra = end_to_end(
                workload, bc, pool, probe, setup_times, args.seconds
            )
    print(f"bcdyn perfbench: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"python={platform.python_version()} numpy={workloads.np.__version__} "
          f"nproc={os.cpu_count()} blas_threads=1 inputs={len(pool)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    for line in extra:
        print(line)
    for reason in loop.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
