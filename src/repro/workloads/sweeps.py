"""Parameter sweeps used by the benchmark harness.

:func:`exploration_mode_sweep` returns its points in grid order, as
:class:`~repro.runtime.scheduler.PointRecord` rows that the harness and
``pytest-benchmark`` targets print uniformly.  Its grid runs on the
runtime's :class:`~repro.runtime.scheduler.SweepScheduler`, so
``parallel=`` executes points concurrently on forked workers with rows
identical to a sequential run.  :func:`dms_family` builds random systems
sharing one set of structural parameters.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Sequence

from repro.runtime import PointRecord, SweepScheduler
from repro.workloads.generators import RandomDMSParameters, random_dms

__all__ = ["dms_family", "exploration_mode_sweep"]


def exploration_mode_sweep(
    system,
    bound: int,
    strategies: Sequence[str] = ("bfs", "dfs"),
    retentions: Sequence[str] = ("full", "parents-only", "counts-only"),
    max_depth: int = 4,
    heuristic: Callable | None = None,
    *,
    parallel: int = 1,
) -> tuple[PointRecord, ...]:
    """Explore one system under every (strategy, retention) combination.

    Measures discovered configurations/edges, retained edge objects and
    wall-clock seconds per engine mode.  Used by
    :func:`repro.harness.experiments.experiment_e13_engine` (and the E13
    benchmark), which checks that on un-truncated explorations every
    strategy discovers the same configuration set and that the memory
    modes shrink edge retention as documented.  ``parallel`` runs the
    grid points concurrently on the sweep scheduler.
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
    return tuple(SweepScheduler(parallel=parallel).run(grid, measure))


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
