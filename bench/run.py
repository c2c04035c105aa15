"""duality-lab benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: three_slit_scenario, wide_grating, sweep_batch (see README.md in
this directory).  With --trace 0 the run measures the end-to-end metrics
with no wrappers installed.  With --trace 1 it runs every item twice,
untraced and traced, and reports per-layer metrics plus the tracing
overhead.  End-to-end times are scaled to a reference host speed, measured
by a fixed calibration quantum timed right before and right after every
item and every set-up sample (see `HostSpeed`).  Every item's outputs are checked outside
the timed region.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program is imported from `src/` of the checkout that holds this file;
run from anywhere else, the benchmark exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_out"

# BLAS threads are pinned before numpy loads, to the same value on every
# run, so that timings on a small shared machine do not depend on how many
# cores the BLAS pool happens to grab.  The matrices here are at most 128 x 128.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

# p90 latency needs at least ten items beyond it, so a run goes on past its
# time until it has this many items; the hard stop keeps a much slower
# program inside the 180 s a run may take.
MIN_ITEMS = 100
HARD_STOP_S = 150.0
WARMUP_ITEMS = 3
SETUP_REPEATS = 15
IMPORTTIME_REPEATS = 5
REALIZE_PROBE_CALLS = 1000
REALIZE_PROBE_REPEATS = 5

MAIN_STREAM = 0
WARMUP_STREAM = 10

# The calibration quantum's wall time at the reference host speed; every
# end-to-end time is reported as wall time x CALIBRATION_REF_MS / (the mean
# of the quanta timed right before and right after it).  The value is fixed
# here, never measured at run time, so the program's own speed is not
# scaled away.
CALIBRATION_REF_MS = 5.0
CALIBRATION_PY_STEPS = 20000
CALIBRATION_NP_STEPS = 20

E2E_UNITS = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _fresh_import(extra=()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *extra, "-c", "import duality_lab.cli"],
        cwd=ROOT, env=_env_with_src(), capture_output=True, text=True, check=True,
    )


class HostSpeed:
    """Times a fixed calibration quantum that uses none of the program's
    code: a pure-Python loop of float and dict work, then small numpy work
    (complex exp over 4096 points, a 64 x 64 matmul), the two kinds of work
    the workloads do.  The vCPUs of a shared host change speed by up to 2x
    over seconds to minutes, and the quantum slows with them; a wall time
    divided by the quanta that bracket it does not.  The speed can change
    within a second, so each wall time gets its own pair of quanta rather
    than a median over its neighbours."""

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.matrix = rng.uniform(size=(64, 64))
        self.phase = 1j * np.linspace(0.0, 50.0, 4096)
        self.wall = []
        self.samples = []
        for _ in range(3):  # warm-up
            self.quantum_ms()

    def quantum_ms(self) -> float:
        start = time.perf_counter_ns()
        acc = 0.0
        table = {}
        for i in range(CALIBRATION_PY_STEPS):
            acc += (i * 1.0001) % 7.0
            table[i & 255] = acc
        for _ in range(CALIBRATION_NP_STEPS):
            acc += float(self.np.exp(self.phase).real.sum())
            acc += float((self.matrix @ self.matrix).trace())
        self.sink = acc
        return (time.perf_counter_ns() - start) / 1e6

    def bracket(self, fn):
        """Call `fn` between two quanta; return its result and its wall
        time in ms at reference speed.  The raw wall time and the quanta's
        mean are kept in `wall` and `samples`."""
        before = self.quantum_ms()
        start = time.perf_counter_ns()
        result = fn()
        wall = (time.perf_counter_ns() - start) / 1e6
        cal = (before + self.quantum_ms()) / 2
        self.wall.append(wall)
        self.samples.append(cal)
        return result, wall * CALIBRATION_REF_MS / cal


class SetupSampler:
    """Wall time of a fresh interpreter that imports the CLI module and exits,
    the cost every CLI invocation pays, scaled to reference host speed by
    the quanta timed right before and right after it.
    Samples are spread over the whole run, one whenever `interval` seconds
    passed since the last; `median()` tops the samples up to `SETUP_REPEATS`
    first.  The very first start is discarded."""

    def __init__(self, interval: float):
        self.interval = interval
        self.speed = HostSpeed()
        self.samples = []
        _fresh_import()
        self.last = time.perf_counter()

    def sample(self) -> None:
        _, scaled = self.speed.bracket(_fresh_import)
        self.last = time.perf_counter()
        self.samples.append(scaled / 1e3)

    def __call__(self) -> None:
        if time.perf_counter() - self.last >= self.interval:
            self.sample()

    def median(self) -> float:
        while len(self.samples) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.samples)


def import_times_ms() -> dict[str, float]:
    """Cumulative import times from `-X importtime`, median of repeats:
    numpy, click, and duality_lab's own modules (the CLI module's cumulative
    time minus numpy and click)."""
    samples = {"numpy": [], "click": [], "duality_lab": []}
    for _ in range(IMPORTTIME_REPEATS):
        cumulative = {}
        for line in _fresh_import(["-X", "importtime"]).stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
        samples["numpy"].append(cumulative["numpy"])
        samples["click"].append(cumulative["click"])
        samples["duality_lab"].append(
            cumulative["duality_lab.cli"] - cumulative["numpy"] - cumulative["click"]
        )
    return {f"setup.import.{k}_ms": statistics.median(v) for k, v in samples.items()}


def realize_fields_us() -> float:
    """Direct probe of `oracle.realize_fields` on the three-slit ensemble:
    microseconds per call, median of repeats."""
    from duality_lab import oracle, scenario

    sc = scenario.load_scenario(ROOT / "scenarios" / "three_slit.json")
    spec = oracle.ensemble_spec(sc.slits, sc.coherence, sc.oracle_realizations, sc.oracle_seed)
    runs = []
    for _ in range(REALIZE_PROBE_REPEATS):
        start = time.perf_counter_ns()
        for k in range(REALIZE_PROBE_CALLS):
            oracle.realize_fields(spec, k)
        runs.append((time.perf_counter_ns() - start) / REALIZE_PROBE_CALLS / 1e3)
    return statistics.median(runs)


def platform_record() -> dict:
    """What the goldens and the timings depend on."""
    import numpy as np

    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "duality_lab_threads": os.environ.get("DUALITY_LAB_THREADS"),
    }
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no dict mode
        return record
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {})
    record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    record["simd_baseline"] = simd.get("baseline")
    record["simd_found"] = simd.get("found")
    return record


def run_item(wl, item, speed=None):
    """Run one item; return its latency in ms and the problems found.
    Only `wl.run` is timed.  With a `HostSpeed`, it runs between two
    calibration quanta and the latency is at reference host speed."""
    def attempt():
        try:
            return wl.run(item), None
        except Exception as exc:  # an item that raises is a failed item, not a crash
            return None, exc

    if speed is None:
        t0 = time.perf_counter_ns()
        output, error = attempt()
        latency = (time.perf_counter_ns() - t0) / 1e6
    else:
        (output, error), latency = speed.bracket(attempt)
    return latency, [f"raised {error!r}"] if error is not None else wl.check(item, output)


def measure(wl, seconds, stream, count=None, min_items=0, tracer=None, between=None,
            speed=None):
    """Run items back to back; return per-item latencies (ms) and failures.

    Stops once `count` items ran, or else at the first block boundary after
    `seconds` passed with at least `min_items` run.  With a tracer, every item
    runs twice with the same inputs, untraced and traced, in alternating
    order so that neither side always runs first; the traced latencies are
    returned as a second list.  `between` is called after every item.  With
    a `HostSpeed`, untraced latencies are at reference host speed."""
    latencies = []
    traced = []
    failures = []
    start = time.perf_counter()
    k = 0
    while True:
        if count is not None:
            if k >= count:
                break
        elif k % wl.block == 0:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and k >= min_items) or elapsed >= HARD_STOP_S:
                break
        item = wl.make_item(k, stream)
        if tracer is None:
            sides = (False,)
        else:
            sides = (False, True) if k % 2 == 0 else (True, False)
        for with_trace in sides:
            if with_trace:
                tracer.item = k
                tracer.install()
                try:
                    latency, problems = run_item(wl, item)
                finally:
                    tracer.uninstall()
                traced.append(latency)
            else:
                latency, problems = run_item(wl, item, speed)
                latencies.append(latency)
            if problems:
                failures.append((k, problems))
        if between is not None:
            between()
        k += 1
    return latencies, traced, failures


def end_to_end(wl, seconds):
    """End-to-end metrics, every time at reference host speed; the raw wall
    times are returned too, for the printed table only."""
    speed = HostSpeed()
    measure(wl, 0, WARMUP_STREAM, count=WARMUP_ITEMS)
    setup = SetupSampler(seconds / SETUP_REPEATS)
    latencies, _, failures = measure(wl, seconds, MAIN_STREAM, min_items=MIN_ITEMS,
                                     between=setup, speed=speed)
    metrics = {
        "items_per_s": len(latencies) / (sum(latencies) / 1e3),
        "item_p50_ms": statistics.median(latencies),
        "item_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "setup_s": setup.median(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "wall.item_p50_ms": statistics.median(speed.wall),
        "wall.setup_s": statistics.median(setup.speed.wall) / 1e3,
        "calibration_p50_ms": statistics.median(speed.samples),
    }
    return metrics, E2E_UNITS, len(latencies), failures, raw


def per_layer(wl, seconds, seed):
    from tracing import Tracer

    probes = import_times_ms()
    probes["oracle.realize_fields.us_per_call"] = realize_fields_us()
    measure(wl, 0, WARMUP_STREAM, count=WARMUP_ITEMS)
    tracer = Tracer()
    plain, traced, failures = measure(wl, seconds, MAIN_STREAM, tracer=tracer)
    tracer.write(TRACE_OUT / f"trace-{wl.name}-seed{seed}.csv")
    metrics = tracer.layer_metrics(len(traced))
    metrics.update(wl.observed)
    metrics.update(probes)
    metrics["trace_overhead_frac"] = sum(traced) / sum(plain) - 1.0
    units = {name: layer_unit(name) for name in metrics}
    return metrics, units, len(plain) + len(traced), failures, {}


def layer_unit(name: str) -> str:
    suffix_units = {
        ".calls": "calls/item",
        ".self_ms": "ms",
        "_ms": "ms",
        ".errors": "count",
        ".cells": "cells/item",
        "_bytes_computed": "bytes/item",
        ".bytes": "bytes/item",
        ".realizations": "count/item",
        ".us_per_call": "us",
        "_ratio": "ratio",
        "max_rel_dev": "frac",
        "max_abs_dev": "1",
        "mismatch_rows": "rows",
        "overhead_frac": "frac",
    }
    for suffix, unit in suffix_units.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(f"no unit for metric {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("DUALITY_LAB_THREADS", None)  # the sweep's default serial path
    if not (SRC / "duality_lab" / "cli.py").is_file():
        print(f"error: no duality_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import duality_lab
    from workloads import WORKLOADS

    if Path(duality_lab.__file__).resolve().parent != SRC / "duality_lab":
        print(f"error: duality_lab imported from {duality_lab.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = WORK / str(os.getpid())
    try:
        wl = WORKLOADS[args.workload](ROOT, work, args.seed)
        if args.trace:
            metrics, units, attempted, failures, raw = per_layer(wl, args.seconds, args.seed)
        else:
            metrics, units, attempted, failures, raw = end_to_end(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's directory is still there
            pass

    for k, problems in failures[:10]:
        print(f"item {k} failed: {'; '.join(problems)}", file=sys.stderr)
    print("platform " + json.dumps(platform_record(), sort_keys=True))
    phases = " (each item once untraced, once traced)" if args.trace else ""
    print(f"workload {wl.name} seed {args.seed}: {attempted} items attempted{phases}, "
          f"{len(failures)} failed, failed_frac {len(failures) / attempted:.6g}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    if raw:
        print("unscaled, for reference (not metrics):")
        for name, value in raw.items():
            print(f"  {name:44s} {value:14.6g}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
