"""E15 — the persistent parallel runtime (warm pools, async sweeps, resume).

Gates the three contracts of :mod:`repro.runtime` (the runtime PR's
acceptance criteria):

* **Warm pools beat per-call pools** — repeated sharded exploration of
  the booking study through one warm :class:`~repro.runtime.WorkerPool`
  engine must be ≥ 1.3× faster than the per-call-pool baseline (a fresh
  explorer, and hence a fresh fork+teardown cycle, per exploration).
  The margin is the pool overhead that used to dominate small
  explorations.
* **Parallel sweeps beat sequential sweeps** — an E9-style convergence
  grid (state-space size over the booking study, recency bounds 2–5)
  run through the sweep scheduler at 4 workers must be ≥ 1.5× faster
  than the sequential run of the same grid.
* **Resume reproduces the row set** — a store-backed sweep interrupted
  after N points and re-run against the same result store must produce
  rows bit-identical to an uninterrupted run, recomputing only the
  missing points.

Row equality is asserted **unconditionally** on every host.  The two
timing assertions only make sense where the runtime can actually win:
they are skipped on hosts without the ``fork`` start method, below the
CPU floors (2 usable CPUs for the warm-pool gate, 4 for the parallel
gate), or under ``REPRO_BENCH_QUICK=1`` (tiny inputs are
noise-dominated).  Timings and rows persist to
``benchmarks/results/BENCH_E15.json`` via the shared ``run_once``
fixture.
"""

import os
import time

from repro.casestudies.booking import booking_agency_system
from repro.harness.reporting import print_experiment
from repro.modelcheck.convergence import state_space_bound_sweep
from repro.recency.explorer import RecencyExplorer
from repro.runtime import SweepScheduler, WorkerPool
from repro.search import (
    RETAIN_COUNTS,
    ExplorationOptions,
    process_backend_available,
    usable_cpu_count,
)
from repro.store import ResultStore

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
FORK = process_backend_available()
CPUS = usable_cpu_count()

_BOOKING = booking_agency_system()


def _convergence_measure(parameters: dict) -> dict:
    """One cell of the E9-style convergence grid (deterministic, JSON-clean)."""
    explorer = RecencyExplorer(
        _BOOKING,
        parameters["b"],
        ExplorationOptions(max_depth=parameters["max_depth"], retention=RETAIN_COUNTS),
    )
    result = explorer.explore()
    return {"configurations": result.configuration_count, "edges": result.edge_count}


def _convergence_grid(quick: bool) -> list[dict]:
    """Recency bounds 2–5 over the booking study — comparably sized cells."""
    return [{"b": bound, "max_depth": 4 if quick else 5} for bound in (2, 3, 4, 5)]


def _rows(records) -> list[dict]:
    return [record.as_row() for record in records]


# -- warm pool vs per-call pool -----------------------------------------------


def warm_vs_cold(quick: bool) -> list[dict]:
    """Repeated sharded exploration: per-call-pool baseline vs warm pool."""
    repeats = 2 if quick else 6
    depth, shards, workers = 3, 2, 2
    options = ExplorationOptions(max_depth=depth, retention=RETAIN_COUNTS)

    def explore_once(pool=None):
        explorer = RecencyExplorer(
            _BOOKING, 2, options.replace(shards=shards, workers=workers), pool=pool
        )
        result = explorer.explore()
        if pool is None:
            explorer.close()  # per-call baseline: tear the backend down every time
        return result

    reference = RecencyExplorer(_BOOKING, 2, options).explore()
    signatures = []

    started = time.perf_counter()
    for _ in range(repeats):
        cold_result = explore_once()
        signatures.append(
            (cold_result.configuration_count, cold_result.edge_count, cold_result.truncated)
        )
    cold_seconds = time.perf_counter() - started

    with WorkerPool(workers=workers) as pool:
        explore_once(pool)  # spawn the warm workers outside the timed window
        started = time.perf_counter()
        for _ in range(repeats):
            warm_result = explore_once(pool)
            signatures.append(
                (warm_result.configuration_count, warm_result.edge_count, warm_result.truncated)
            )
        warm_seconds = time.perf_counter() - started

    expected = (reference.configuration_count, reference.edge_count, reference.truncated)
    return [
        {
            "mode": "cold (pool per exploration)",
            "repeats": repeats,
            "depth": depth,
            "seconds": round(cold_seconds, 4),
            "speedup": 1.0,
            "results_match": all(signature == expected for signature in signatures),
        },
        {
            "mode": "warm (persistent WorkerPool)",
            "repeats": repeats,
            "depth": depth,
            "seconds": round(warm_seconds, 4),
            "speedup": round(cold_seconds / warm_seconds, 2) if warm_seconds else None,
            "results_match": all(signature == expected for signature in signatures),
        },
    ]


def test_e15_warm_pool_vs_cold_pool(benchmark, run_once):
    rows = run_once(benchmark, warm_vs_cold, QUICK)
    print_experiment("E15", "Warm worker pool vs per-call pool", rows)
    for row in rows:
        assert row["results_match"], row
    if not QUICK and FORK and CPUS >= 2:
        warm = rows[1]
        assert warm["speedup"] >= 1.3, warm


# -- parallel sweep vs sequential sweep ---------------------------------------


def parallel_vs_sequential_grid(quick: bool) -> list[dict]:
    """The convergence grid, sequential and at 4 workers, rows compared."""
    grid = _convergence_grid(quick)

    started = time.perf_counter()
    sequential = SweepScheduler().run(grid, _convergence_measure)
    sequential_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = SweepScheduler(parallel=4).run(grid, _convergence_measure)
    parallel_seconds = time.perf_counter() - started

    identical = _rows(sequential) == _rows(parallel)
    return [
        {
            "mode": "sequential",
            "points": len(grid),
            "seconds": round(sequential_seconds, 4),
            "speedup": 1.0,
            "rows_identical": identical,
        },
        {
            "mode": "parallel (4 workers)",
            "points": len(grid),
            "seconds": round(parallel_seconds, 4),
            "speedup": (
                round(sequential_seconds / parallel_seconds, 2) if parallel_seconds else None
            ),
            "rows_identical": identical,
        },
    ]


def test_e15_parallel_grid_vs_sequential(benchmark, run_once):
    rows = run_once(benchmark, parallel_vs_sequential_grid, QUICK)
    print_experiment("E15", "Parallel convergence grid vs sequential", rows)
    for row in rows:
        assert row["rows_identical"], row
    if not QUICK and FORK and CPUS >= 4:
        parallel = rows[1]
        assert parallel["speedup"] >= 1.5, parallel


# -- resume through the result store ------------------------------------------


def resume_round_trip(quick: bool, store_path) -> list[dict]:
    """Interrupt a store-backed sweep after 2 points, re-run it, compare rows.

    The store saves each point as it completes, so a sequential sweep
    killed after two points leaves exactly what a finished sweep over the
    first two bounds leaves; the re-run serves those and computes the rest.
    """
    grid = _convergence_grid(True)  # the cheap depth keeps this unconditional
    bounds, depth = tuple(point["b"] for point in grid), grid[0]["max_depth"]
    completed_before_kill = 2

    uninterrupted = state_space_bound_sweep(_BOOKING, bounds, depth, store=False)
    state_space_bound_sweep(
        _BOOKING, bounds[:completed_before_kill], depth, store=ResultStore(store_path)
    )
    store = ResultStore(store_path)  # the re-run's own session counters
    resumed = state_space_bound_sweep(_BOOKING, bounds, depth, store=store)
    statistics = store.stats()
    return [
        {
            "points": len(bounds),
            "completed_before_kill": completed_before_kill,
            "recomputed_after_resume": statistics["session"]["misses"].get("result", 0),
            "rows_identical": resumed == uninterrupted,
            "memo_complete": statistics["results"] == len(bounds),
        }
    ]


def test_e15_checkpoint_resume_equivalence(benchmark, run_once, tmp_path):
    rows = run_once(benchmark, resume_round_trip, QUICK, tmp_path / "e15.store")
    print_experiment("E15", "Store-backed sweep resume round trip", rows)
    row = rows[0]
    assert row["rows_identical"], row
    assert row["recomputed_after_resume"] == row["points"] - row["completed_before_kill"], row
    assert row["memo_complete"], row
