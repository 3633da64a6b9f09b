"""Parameter sweeps used by the benchmark harness.

Each sweep returns a tuple of dictionaries (rows) so that the harness and
``pytest-benchmark`` targets can print them uniformly.

Sweeps execute through the runtime's
:class:`~repro.runtime.scheduler.SweepScheduler`: :func:`sweep` accepts
``parallel=`` (bounded concurrent points on forked workers),
``checkpoint=``/``resume=`` (JSONL memo of completed points, resumable
after interruption), per-point ``timeout=``/``retries=``, and
``on_point=`` (a streaming callback fired as each point completes).  The
returned points are always in grid order, identical regardless of
parallelism.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.runtime import SweepScheduler
from repro.workloads.generators import RandomDMSParameters, random_dms

__all__ = ["SweepPoint", "sweep", "dms_family", "exploration_mode_sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One sweep point: a parameter assignment and the measured values."""

    parameters: dict
    measurements: dict

    def as_row(self) -> dict:
        """A flat dictionary row for reporting."""
        row = dict(self.parameters)
        row.update(self.measurements)
        return row


def sweep(
    parameter_grid: Sequence[dict],
    measure: Callable[[dict], dict],
    *,
    parallel: int = 1,
    pool=None,
    timeout: float | None = None,
    retries: int = 0,
    checkpoint=None,
    resume: bool = False,
    on_point: Callable | None = None,
) -> tuple[SweepPoint, ...]:
    """Run ``measure`` on every parameter assignment of the grid.

    Executes on the sweep scheduler: with ``parallel > 1`` the points
    run concurrently on forked workers (the measure closure is inherited
    through fork), with a ``checkpoint`` every completed point is
    persisted as it finishes and ``resume=True`` serves already-computed
    points from the memo.  ``on_point`` fires with each
    :class:`~repro.runtime.scheduler.PointRecord` in completion order;
    the returned tuple is always in grid order.
    """
    scheduler = SweepScheduler(
        parallel=parallel, pool=pool, timeout=timeout, retries=retries,
        checkpoint=checkpoint, resume=resume,
    )
    records = scheduler.run(parameter_grid, measure, on_point=on_point)
    return tuple(
        SweepPoint(parameters=record.parameters, measurements=record.measurements)
        for record in records
    )


def exploration_mode_sweep(
    system,
    bound: int,
    strategies: Sequence[str] = ("bfs", "dfs"),
    retentions: Sequence[str] = ("full", "parents-only", "counts-only"),
    max_depth: int = 4,
    heuristic: Callable | None = None,
    *,
    parallel: int = 1,
) -> tuple[SweepPoint, ...]:
    """Explore one system under every (strategy, retention) combination.

    Measures discovered configurations/edges, retained edge objects and
    wall-clock seconds per engine mode.  Used by
    :func:`repro.harness.experiments.experiment_e13_engine` (and the E13
    benchmark), which checks that on un-truncated explorations every
    strategy discovers the same configuration set and that the memory
    modes shrink edge retention as documented.  ``parallel`` runs the
    grid points concurrently as in :func:`sweep`.
    """
    from repro.recency.explorer import RecencyExplorer
    from repro.search import ExplorationOptions

    # Built before the grid runs, so invalid modes fail here, not in a point.
    options = {
        (strategy, retention): ExplorationOptions(
            max_depth=max_depth, strategy=strategy, heuristic=heuristic, retention=retention
        )
        for strategy in strategies
        for retention in retentions
    }

    def measure(parameters: dict) -> dict:
        explorer = RecencyExplorer(
            system, bound, options[parameters["strategy"], parameters["retention"]]
        )
        started = time.perf_counter()
        result = explorer.explore()
        elapsed = time.perf_counter() - started
        return {
            "configurations": result.configuration_count,
            "edges": result.edge_count,
            "retained_edges": len(result.edges),
            "seconds": round(elapsed, 4),
        }

    grid = [
        {"strategy": strategy, "retention": retention}
        for strategy in strategies
        for retention in retentions
    ]
    return sweep(grid, measure, parallel=parallel)


def dms_family(
    seeds: Iterable[int] = (0, 1, 2),
    relations: int = 3,
    max_arity: int = 2,
    actions: int = 4,
    max_fresh: int = 2,
) -> tuple:
    """A family of random DMSs sharing the same structural parameters."""
    parameters = RandomDMSParameters(
        relations=relations, max_arity=max_arity, actions=actions, max_fresh=max_fresh
    )
    return tuple(random_dms(seed, parameters) for seed in seeds)
