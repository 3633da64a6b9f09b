"""The persistent parallel runtime.

This package is the layer between the exploration engine
(:mod:`repro.search`) and the experiment harness (:mod:`repro.harness`):
it owns long-lived execution resources and the operational concerns of
running many explorations, where the engine owns a single exploration.

* :class:`~repro.runtime.pool.WorkerPool` — warm fork-based worker
  contexts reused across explorations and sweeps, health-checked, with
  crashed workers respawned and their tasks re-run.  The sharded engine
  borrows expansion backends from it instead of paying a fork+teardown
  cycle per ``explore()`` call.
* :class:`~repro.runtime.scheduler.SweepScheduler` — executes sweep and
  experiment grids concurrently on forked workers with bounded
  parallelism, streaming each point as it completes, with results that
  are identical regardless of completion order.

Completed sweep points are memoised by the content-addressed result
store (:mod:`repro.store`), not by this package: a sweep re-run against
the same store serves every point it already computed.

Quick start::

    from repro.runtime import SweepScheduler

    records = SweepScheduler(parallel=4).run(grid, measure)   # grid order

Everything degrades deterministically: without the ``fork`` start
method (or with one worker) pools fall back to in-process execution and
the scheduler runs points sequentially — identical rows, no processes.
"""

from repro.errors import SchedulerError, WorkerPoolError
from repro.runtime.pool import (
    DEFAULT_POOL_WORKERS,
    PooledExpansionBackend,
    ProcessWorkerContext,
    SerialWorkerContext,
    WorkerPool,
)
from repro.runtime.scheduler import PointRecord, SweepScheduler

__all__ = [
    "DEFAULT_POOL_WORKERS",
    "PointRecord",
    "PooledExpansionBackend",
    "ProcessWorkerContext",
    "SchedulerError",
    "SerialWorkerContext",
    "SweepScheduler",
    "WorkerPool",
    "WorkerPoolError",
]
