"""Benchmark of the recency-bounded verifier: one workload per run.

Run from the root of a checkout (the program is imported from
``src/``)::

    python3 perfbench/run.py --workload library-booking --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload with the program's null metrics
registry and prints every end-to-end metric; ``--trace 1`` runs it once
untraced and once with wrappers around each layer's public functions
plus a live ``repro.obs`` registry, and prints the per-layer table, the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

#: ``(name, unit)`` of the end-to-end metrics every workload reports.
END_TO_END = (
    ("states_per_s", "states/s"),
    ("latency_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: Units of the workload-specific metrics printed alongside.
UNITS = {
    "throughput_rps": "req/s",
    "latency_p99_s": "s",
    "ttr_p50_s": "s",
    "sweep_cold_s": "s",
    "sweep_warm_s": "s",
    "delta_s": "s",
    "error_rate": "ratio",
    **dict(END_TO_END),
}

#: How many times each workload's set-up is timed before the timed loop
#: and again after it (the median of all is reported): a shared host's
#: speed drifts, and two windows sample it better than one.
SETUPS = {
    "library-booking": 8,
    "sharded-booking": 3,
    "service-replay": 2,
    "convergence-store": 8,
}


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibration_seconds() -> float:
    """Best of three runs of a fixed pure-Python loop (host speed factor)."""
    best = float("inf")
    for _ in range(3):
        begun = perf_counter()
        total = 0
        for value in range(1_000_000):
            total += value * value
        best = min(best, perf_counter() - begun)
    return best


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _stop_resource_tracker() -> None:
    # Shared-memory interning starts multiprocessing's resource tracker;
    # stop it and wait for it, so no process outlives the run.
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _set_up(workload_class, seed, workdir, metrics, repeats):
    """Time ``repeats`` set-ups on fresh instances; keep the last instance."""
    times = []
    for attempt in range(repeats):
        workload = workload_class(seed, metrics=metrics, workdir=workdir)
        begun = perf_counter()
        workload.setup()
        times.append(perf_counter() - begun)
        if attempt + 1 < repeats:
            workload.close()
    return workload, times


def timed_run(workload_class, args, workdir) -> tuple[dict, list[str]]:
    """The end-to-end run: set-ups, the timed loop, more set-ups, the checks."""
    repeats = SETUPS[args.workload]
    workload, setups = _set_up(workload_class, args.seed, workdir, None, repeats)
    try:
        workload.measure(args.seconds)
    finally:
        workload.close()
    extra, later = _set_up(workload_class, args.seed, workdir, None, repeats)
    extra.close()
    setups += later
    problems = workload.verify()
    metrics = workload.report()
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["error_rate"] = workload.failed / workload.attempted
    for name in sorted(metrics):
        gated = " (bounded in BENCHMARK.json)" if name in dict(END_TO_END) else ""
        print(f"metric {name} = {metrics[name]:.6g} {UNITS[name]}{gated}")
    if "latency_p99_s" not in metrics and args.workload == "service-replay":
        print("metric latency_p99_s not reported: fewer than 1000 counted requests")
    summary = {
        "correct": not problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END
        },
    }
    return summary, problems


def traced_run(workload_class, args, workdir) -> tuple[dict, list[str]]:
    """The layer run: one untraced pass, then the same under wrappers."""
    from layers import (
        OPERATION, PER_LAYER, PROBES, RegistryDelta, layer_metrics, layer_table, merge_tables,
    )
    from repro.obs import MetricsRegistry, set_global_registry
    from tracing import Recorder, install, timed
    from workloads import call

    half = args.seconds / 2
    plain, _ = _set_up(workload_class, args.seed, workdir, None, 1)
    try:
        plain.measure(half, repeats=1)
    finally:
        plain.close()

    recorder = Recorder(workdir)
    registry = MetricsRegistry()
    uninstall = install(recorder, PROBES)
    previous = set_global_registry(registry)
    try:
        traced, _ = _set_up(workload_class, args.seed, workdir, registry, 1)
        before = registry.snapshot()
        recorder.begin_window()
        try:
            traced.measure(half, timed(recorder, OPERATION, call, span=True), repeats=1)
        finally:
            traced.close()
        after = registry.snapshot()
    finally:
        set_global_registry(previous)
        uninstall()
    parent = recorder.table()
    worker_files = recorder.worker_tables()
    workers = merge_tables(table for table, _ in worker_files)
    overhead = traced.unit_seconds() / plain.unit_seconds()
    values = layer_metrics(parent, workers, RegistryDelta(before, after), overhead)

    out = workdir.parent / f"trace-{args.workload}.jsonl"
    spans = recorder.write_spans(out, [spans for _, spans in worker_files])
    print(f"trace: {spans} spans from {1 + len(worker_files)} processes in {out.name}")
    print(f"trace: tracing overhead {overhead:.2f}x (traced / untraced time per unit of work)")
    for line in layer_table(parent, workers):
        print(line)
    problems = plain.verify() + traced.verify()
    summary = {
        "correct": not problems,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER
        },
    }
    return summary, problems


def main(argv=None) -> int:
    args = _arguments(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    base = root / ".perfbench-work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    # Keep every temporary file of the program inside the checkout.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        from workloads import WORKLOADS

        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        print(
            f"host: cpus={cpus} python={platform.python_version()} "
            f"calibration_s={calibration_seconds():.4f} workload={args.workload} "
            f"seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
        )
        run = traced_run if args.trace else timed_run
        summary, problems = run(WORKLOADS[args.workload], args, workdir)
    finally:
        _stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
