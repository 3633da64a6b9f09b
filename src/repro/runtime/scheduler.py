"""Sweep scheduling over forked workers.

Experiment sweeps are grids of **independent** points — (recency bound ×
depth × case study) cells that share nothing but their measure function.
:class:`SweepScheduler` executes such a grid with bounded parallelism on
a private :class:`~repro.runtime.pool.WorkerPool`:

* **dependency-free point ordering** — points are submitted in grid
  order and may complete in any order; :meth:`run` always returns
  records sorted back into grid order, so the produced rows are
  *identical regardless of completion order* (given a deterministic
  measure function);
* **streaming** — :meth:`stream` yields a :class:`PointRecord` the
  moment each point completes, and :meth:`run` accepts an ``on_point``
  callback with the same timing, so long sweeps report progress row by
  row instead of going dark;
* **fail fast** — a point whose measure raises (or whose worker fails)
  aborts the sweep with :class:`~repro.errors.SchedulerError`.

The scheduler keeps no memo of completed points: that is the
content-addressed result store's job (:mod:`repro.store`), which the
bound sweeps consult per point, so re-running an interrupted sweep
against the same store serves every completed point and recomputes only
the rest.

Parallel execution forks workers that inherit the measure function, so
any closed-over system objects travel for free; only parameter dicts and
measurement dicts cross process boundaries.  Measure functions must be
deterministic and must **not** use a parent-process ``WorkerPool`` from
inside a forked worker (nested pools must be created per point).  When
``parallel <= 1``, or fork is unavailable, points run sequentially
in-process — same rows, no processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from repro.errors import SchedulerError
from repro.obs.metrics import resolve_metrics
from repro.obs.trace import get_tracer
from repro.runtime.pool import WorkerPool

__all__ = ["PointRecord", "SweepScheduler"]


@dataclass(frozen=True)
class PointRecord:
    """One completed sweep point.

    Attributes:
        index: the point's position in the submitted grid.
        parameters: the parameter assignment (a copy of the grid entry).
        measurements: what the measure function returned.
    """

    index: int
    parameters: dict
    measurements: dict

    def as_row(self) -> dict:
        """A flat reporting row (parameters first, then measurements)."""
        row = dict(self.parameters)
        row.update(self.measurements)
        return row


class SweepScheduler:
    """Bounded-parallelism executor of sweep grids (see module docs).

    Args:
        parallel: maximum points in flight (1 = sequential in-process).
        metrics: a :class:`repro.obs.MetricsRegistry`; ``None`` (the
            default) resolves to the process-wide registry per sweep.
            Counts completed points and, through the sweep's pool, task
            outcomes.
    """

    def __init__(self, *, parallel: int = 1, metrics=None) -> None:
        if parallel < 1:
            raise SchedulerError("parallel must be positive")
        self._parallel = parallel
        self._metrics = metrics

    def run(
        self,
        grid: Sequence[Mapping],
        measure: Callable[[dict], dict],
        *,
        on_point: Callable[[PointRecord], None] | None = None,
    ) -> list[PointRecord]:
        """Execute the grid; returns records **in grid order**.

        ``on_point`` fires in completion order, as each point finishes.
        The returned list is sorted by grid index, so its rows are
        independent of scheduling: a 1-worker and an 8-worker run of a
        deterministic measure produce identical results.
        """
        records = []
        for record in self.stream(grid, measure):
            if on_point is not None:
                on_point(record)
            records.append(record)
        records.sort(key=lambda record: record.index)
        return records

    def stream(
        self, grid: Sequence[Mapping], measure: Callable[[dict], dict]
    ) -> Iterator[PointRecord]:
        """Yield a :class:`PointRecord` per point, in completion order."""
        registry = resolve_metrics(self._metrics)
        record = registry if registry.enabled else None
        tracer = get_tracer()
        points = [dict(parameters) for parameters in grid]
        if not points:
            return
        # One worker is the in-process context; more fork where fork exists.
        pool = WorkerPool(workers=self._parallel, metrics=self._metrics)
        try:
            context = pool.context("sweep", measure)
            task_index = {context.submit(point): index for index, point in enumerate(points)}
            for task_id, measurements, error in context.events():
                index = task_index[task_id]
                if error is not None:
                    raise SchedulerError(f"sweep point {points[index]!r} failed: {error}")
                if record is not None:
                    record.counter("sweep_points_total", source="run").inc()
                tracer.event("point", index=index, source="run")
                yield PointRecord(index=index, parameters=points[index], measurements=measurements)
        finally:
            pool.shutdown()
