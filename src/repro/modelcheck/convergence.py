"""Convergence of recency-bounded analysis in the bound ``b`` (paper, Section 5).

Recency boundedness is an *exhaustive* under-approximation: every finite
behaviour is captured once ``b`` is large enough, and safety verdicts
converge to the exact ones in the limit (Example 5.2 derives a concrete
``k_mb`` for the booking case study).  The helpers in this module sweep
the bound and report how verdicts and the amount of explored behaviour
evolve, which is what experiment E9 measures.

Every helper takes one :class:`~repro.search.ExplorationOptions` value
(``options=``) for the knobs that shape an exploration — limits,
strategy, retention and execution shape — and asks its questions through
:func:`repro.api.run_reachability`; ``max_depth`` stays a positional
parameter and overrides the options' depth.

The bound sweeps are grids of independent points, so both sweep
functions execute through the runtime's
:class:`~repro.runtime.scheduler.SweepScheduler`: ``parallel=`` runs
points concurrently on forked workers, ``checkpoint=``/``resume=``
persist completed points to a JSONL memo and resume interrupted sweeps,
and ``pool=`` lends warm expansion workers to the explorations of a
*sequential* sweep (a parent pool is never used from inside forked
point workers).  Rows are identical regardless of parallelism or
completion order.

Every sweep additionally accepts ``store=`` (a path, a
:class:`repro.store.ResultStore`, ``False`` to disable; ``None``
consults ``REPRO_STORE``): points are then served from the
content-addressed result store in O(lookup) on repeat runs — across
processes and sessions, unlike the per-file checkpoint memo — with rows
bit-identical to cold exploration.  The store object is fork-safe, so
``parallel > 1`` sweeps share one store across their point workers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dms.system import DMS
from repro.fol.syntax import Query
from repro.modelcheck.result import Verdict
from repro.recency.explorer import RecencyExplorer
from repro.recency.semantics import enumerate_b_bounded_successors
from repro.runtime import SweepScheduler
from repro.search import RETAIN_COUNTS, ExplorationOptions

__all__ = ["BoundSweepEntry", "reachability_bound_sweep", "state_space_bound_sweep", "convergence_bound"]


@dataclass(frozen=True)
class BoundSweepEntry:
    """One row of a sweep over the recency bound."""

    bound: int
    verdict: Verdict
    configurations: int
    edges: int

    def as_row(self) -> tuple:
        """The row printed by the benchmark harness."""
        return (self.bound, self.verdict.value, self.configurations, self.edges)


def _heuristic_key(heuristic) -> str | None:
    """A (best-effort) stable memo-key component for a search heuristic.

    Heuristics are callables, so the key uses the qualified name — stable
    across runs for named functions and per-definition-site for lambdas.
    Distinct heuristics defined at the same site would collide; name your
    heuristic when checkpointing a best-first sweep.
    """
    if heuristic is None:
        return None
    return getattr(heuristic, "__qualname__", repr(heuristic))


def _memo_grid(
    sweep: str,
    system: DMS,
    bounds: tuple[int, ...],
    options: ExplorationOptions,
    checkpoint,
    **fields,
) -> list[dict]:
    """The sweep's grid: one content-keyed parameter assignment per bound.

    The keys name everything that determines a row except the execution
    shape, which never changes results.  A checkpoint outlives the
    system object it was written for, so its keys also carry the
    system's content hash: variants sharing a name (``drop_action_variant``
    keeps it) never serve each other's rows.  Without a checkpoint the
    hash is skipped — no memo reads the keys, and warm sweeps stay cheap.
    """
    shared = {**options.result_fields(), "heuristic": _heuristic_key(options.heuristic)}
    if checkpoint is not None:
        from repro.store.canonical import system_hash

        shared["system_hash"] = system_hash(system)
    return [
        {"sweep": sweep, "system": system.name, **fields, "b": bound, **shared}
        for bound in bounds
    ]


def _point_store(store):
    # Resolve once so forked point workers inherit a fork-safe store
    # object (per-process connections) instead of re-resolving the
    # environment per point.
    from repro.store.service import resolve_store

    resolved = resolve_store(store)
    return resolved if resolved is not None else False


def reachability_bound_sweep(
    system: DMS,
    condition: Query | str,
    bounds: tuple[int, ...] = (0, 1, 2, 3, 4),
    max_depth: int = 6,
    *,
    options: ExplorationOptions | None = None,
    pool=None,
    store=None,
    parallel: int = 1,
    timeout: float | None = None,
    retries: int = 0,
    checkpoint=None,
    resume: bool = False,
    on_point=None,
) -> tuple[BoundSweepEntry, ...]:
    """Reachability verdict and explored state space for increasing bounds.

    Each bound is one :func:`repro.api.run_reachability` query with
    ``options.replace(max_depth=max_depth)``; the default options keep
    only parent links, so sweeping large bounds does not hold every edge
    in memory.  Sharded and distributed shapes give bit-identical rows
    (any-shard truncation reports ``UNKNOWN``, never ``FAILS``).

    ``parallel`` runs the bounds concurrently through the sweep
    scheduler; ``checkpoint``/``resume`` memoise completed bounds.  The
    memo is content-keyed on what determines the result — sweep kind,
    system (name, plus content hash under a checkpoint), condition,
    bound, limits, strategy, heuristic (by qualified name) and retention,
    but not the execution shape — so a shared checkpoint file cannot
    serve one query's rows to another.  ``pool`` lends warm expansion
    workers to sequential sweeps only.  ``on_point`` streams each
    completed bound.
    """
    from repro.api.query import run_reachability

    effective = (options or ExplorationOptions()).replace(max_depth=max_depth)
    exploration_pool = pool if parallel <= 1 else None
    exploration_store = _point_store(store)

    def measure(parameters: dict) -> dict:
        result = run_reachability(
            system, condition, bound=parameters["b"], options=effective,
            pool=exploration_pool, store=exploration_store,
        )
        return {
            "verdict": result.reachable.value,
            "configurations": result.configurations_explored,
            "edges": result.edges_explored,
        }

    grid = _memo_grid(
        "reachability-bound", system, bounds, effective, checkpoint,
        condition=condition if isinstance(condition, str) else repr(condition),
    )
    scheduler = SweepScheduler(
        parallel=parallel, timeout=timeout, retries=retries,
        checkpoint=checkpoint, resume=resume,
    )
    records = scheduler.run(grid, measure, on_point=on_point)
    return tuple(
        BoundSweepEntry(
            bound=record.parameters["b"],
            verdict=Verdict(record.measurements["verdict"]),
            configurations=record.measurements["configurations"],
            edges=record.measurements["edges"],
        )
        for record in records
    )


def state_space_bound_sweep(
    system: DMS,
    bounds: tuple[int, ...] = (0, 1, 2, 3),
    max_depth: int = 5,
    *,
    options: ExplorationOptions | None = None,
    pool=None,
    store=None,
    parallel: int = 1,
    timeout: float | None = None,
    retries: int = 0,
    checkpoint=None,
    resume: bool = False,
    on_point=None,
) -> tuple[BoundSweepEntry, ...]:
    """How many configurations/edges are explored as the bound grows (no property).

    Only sizes are reported, so without ``options`` the sweep explores
    with ``"counts-only"`` retention: no edge objects are held in
    memory.  Given options are used whole, with ``max_depth`` applied;
    ``parallel``/``checkpoint``/``resume`` schedule the points as in
    :func:`reachability_bound_sweep`, with the memo content-keyed the
    same way.  ``store`` serves repeat points from the content-addressed
    result store (exploration results cached whole).
    """
    from repro.store.service import cached_compute

    effective = (options or ExplorationOptions(retention=RETAIN_COUNTS)).replace(
        max_depth=max_depth
    )
    exploration_pool = pool if parallel <= 1 else None
    exploration_store = _point_store(store)

    def measure(parameters: dict) -> dict:
        bound = parameters["b"]

        def successors(configuration, actions=None):
            return enumerate_b_bounded_successors(system, configuration, bound, actions)

        def compute(override):
            return RecencyExplorer(
                system, bound, effective, pool=exploration_pool, successors=override
            ).explore()

        result, _ = cached_compute(
            store=exploration_store,
            system=system,
            graph=f"recency:{bound}",
            parameters={"payload": "exploration", **effective.result_fields()},
            compute=compute,
            successors=successors if effective.single_shard else None,
            cacheable=effective.heuristic is None,
        )
        return {
            "configurations": result.configuration_count,
            "edges": result.edge_count,
        }

    grid = _memo_grid("state-space-bound", system, bounds, effective, checkpoint)
    scheduler = SweepScheduler(
        parallel=parallel, timeout=timeout, retries=retries,
        checkpoint=checkpoint, resume=resume,
    )
    records = scheduler.run(grid, measure, on_point=on_point)
    return tuple(
        BoundSweepEntry(
            bound=record.parameters["b"],
            verdict=Verdict.UNKNOWN,
            configurations=record.measurements["configurations"],
            edges=record.measurements["edges"],
        )
        for record in records
    )


def convergence_bound(
    system: DMS,
    condition: Query | str,
    max_bound: int = 8,
    max_depth: int = 6,
    *,
    options: ExplorationOptions | None = None,
    pool=None,
    store=None,
) -> int | None:
    """The least bound at which the bounded reachability verdict matches the
    unbounded (depth-bounded) verdict.

    Returns ``None`` when no bound up to ``max_bound`` agrees — which, for
    exhaustive exploration depths, indicates the behaviour of interest
    genuinely needs a deeper recency window.  Every query of the scan
    runs with ``options.replace(max_depth=max_depth)``; ``pool`` keeps
    sharded expansion workers warm across the whole scan, and ``store``
    serves the scan's queries from the content-addressed result store.
    """
    from repro.api.query import run_reachability

    effective = (options or ExplorationOptions()).replace(max_depth=max_depth)
    reference = run_reachability(system, condition, options=effective, pool=pool, store=store)
    for bound in range(max_bound + 1):
        bounded = run_reachability(
            system, condition, bound=bound, options=effective, pool=pool, store=store
        )
        if bounded.reachable == reference.reachable:
            return bound
    return None
