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

The bound sweeps are grids of independent ``{"b": bound}`` points, so
both run through the runtime's
:class:`~repro.runtime.scheduler.SweepScheduler`: ``parallel=`` runs
points concurrently on forked workers, and ``pool=`` lends warm
expansion workers to the explorations of a *sequential* sweep (a parent
pool is never used from inside forked point workers).  Rows are
identical regardless of parallelism or completion order.

One expansion serves every bound.  ``Recent_b ⊆ Recent_{b+1}`` and no
other edge condition mentions ``b`` (Section 5), so ``C_S^b`` is a
subgraph of ``C_S^{b+1}`` and of the unbounded graph.  A step's *least
bound* is the largest 1-based recency rank (position in ``adom(I)``
ordered by decreasing ``seq_no``) among its parameter values, and 0 for
an action without parameters: the step is a b-edge exactly when ``b`` is
at least its label.  A sequential single-shard sweep therefore keeps one
cache for the length of the call, mapping each configuration to its
``[(least bound, step)]``, filled on demand at the sweep's largest bound
(at ``None`` for :func:`convergence_bound`, whose unbounded reference
runs first).  A bound ``b`` is served the steps labelled at most ``b``:
exactly the direct enumeration at ``b``, in the same order.  A
``parallel > 1`` or sharded sweep explores each point directly, since a
forked point or a sharded engine cannot share the cache.

Every sweep additionally accepts ``store=`` (a path, a
:class:`repro.store.ResultStore`, ``False`` to disable; ``None``
consults ``REPRO_STORE``): the content-addressed result store is the one
memo of sweep points.  Repeat points are served in O(lookup) — across
processes and sessions — with rows bit-identical to cold exploration,
and re-running an interrupted sweep against the same store recomputes
only the points it had not finished.  The store's subgraph capture and
delta verification wrap a point's labelled successor function as they
wrap the canonical one, so keys and entries do not change, and a point
served from the store expands nothing.  The store object is fork-safe,
so ``parallel > 1`` sweeps share one store across their point workers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

from repro.dms.system import DMS
from repro.fol.syntax import Query
from repro.modelcheck.result import Verdict
from repro.recency.explorer import RecencyExplorer
from repro.recency.semantics import (
    RecencyConfiguration,
    RecencyStep,
    enumerate_b_bounded_successors,
)
from repro.runtime import SweepScheduler
from repro.search import RETAIN_COUNTS, ExplorationOptions

__all__ = ["BoundSweepEntry", "reachability_bound_sweep", "state_space_bound_sweep", "convergence_bound"]

# The measurement key a forked point's store session counts travel under.
_STORE_SESSION = "_store_session"


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


class _LabelledSuccessors:
    """One sweep's expansions, each step labelled with its least bound (see module docs).

    ``bound`` is the labelling bound: the sweep's largest, or ``None``.
    """

    def __init__(self, system: DMS, bound: int | None) -> None:
        self._system = system
        self._bound = bound
        self._expansions: dict = {}

    def labelled(self, configuration: RecencyConfiguration) -> list:
        """``[(least bound, step)]`` of ``configuration``, expanded once at the labelling bound."""
        labelled = self._expansions.get(configuration)
        if labelled is None:
            steps = list(enumerate_b_bounded_successors(self._system, configuration, self._bound))
            ordered = configuration.seq_no.order_recent_first(configuration.active_domain)
            rank = {value: index for index, value in enumerate(ordered, 1)}
            labelled = self._expansions[configuration] = [
                (_least_bound(step, rank), step) for step in steps
            ]
        return labelled

    def successors(self, bound: int | None) -> Callable:
        """The successor function ``(configuration, actions=None)`` of ``bound``.

        ``actions`` is a subset of the system's actions, enumerated in
        the given order.  A bound the labels do not cover (negative, or
        above the labelling bound) is enumerated directly, so a negative
        one raises at its first expansion as it always has.
        """
        system = self._system
        covered = self._bound is None or (bound is not None and bound <= self._bound)
        if not covered or (bound is not None and bound < 0):

            def direct(configuration, actions=None):
                return enumerate_b_bounded_successors(system, configuration, bound, actions)

            return direct
        limit = math.inf if bound is None else bound

        def served(configuration, actions=None):
            labelled = self.labelled(configuration)
            if actions is None:
                return [step for least, step in labelled if least <= limit]
            return [
                step
                for action in actions
                for least, step in labelled
                if step.action is action and least <= limit
            ]

        return served


def _least_bound(step: RecencyStep, rank: dict) -> int:
    """The largest recency rank among ``step``'s parameter values (0 without parameters)."""
    return max(
        (rank[step.substitution[parameter]] for parameter in step.action.parameters), default=0
    )


def _sweep_successors(
    system: DMS, bound: int | None, options: ExplorationOptions, parallel: int = 1
) -> Callable:
    """``point bound -> successor function`` of a sweep labelling at ``bound``.

    Only a sequential single-shard sweep serves its points from one
    :class:`_LabelledSuccessors`.  Elsewhere every point gets ``None``
    and explores directly: a forked point cannot share the cache, and a
    sharded exploration takes no successor override.
    """
    if parallel > 1 or not options.single_shard:
        return lambda point: None
    return _LabelledSuccessors(system, bound).successors


def _largest(bounds: tuple) -> int | None:
    """The labelling bound of a sweep over ``bounds``."""
    return None if None in bounds else max(bounds, default=0)


def _bound_rows(bounds, measure, parallel: int, on_point, store) -> tuple[BoundSweepEntry, ...]:
    """Run ``measure`` over ``{"b": bound}`` points; one entry per bound, in order.

    A measurement without a ``"verdict"`` (the state-space sweep asks no
    question) reports :attr:`Verdict.UNKNOWN`.  A point measured in a
    forked worker looks up in the worker's copy of ``store``, so its
    store session counts travel back with its measurements and are
    folded into ``store`` here.
    """
    parent = os.getpid()
    measured = measure
    if parallel > 1 and store:

        def measured(parameters: dict) -> dict:
            if os.getpid() == parent:
                return measure(parameters)
            store.reset_session()
            return {**measure(parameters), _STORE_SESSION: store.session()}

    def collect(record) -> None:
        session = record.measurements.pop(_STORE_SESSION, None)
        if session is not None:
            store.absorb_session(session)
        if on_point is not None:
            on_point(record)

    records = SweepScheduler(parallel=parallel).run(
        [{"b": bound} for bound in bounds], measured, on_point=collect
    )
    return tuple(
        BoundSweepEntry(
            bound=record.parameters["b"],
            verdict=Verdict(record.measurements.get("verdict", Verdict.UNKNOWN.value)),
            configurations=record.measurements["configurations"],
            edges=record.measurements["edges"],
        )
        for record in records
    )


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
    on_point=None,
) -> tuple[BoundSweepEntry, ...]:
    """Reachability verdict and explored state space for increasing bounds.

    Each bound is one :func:`repro.api.run_reachability` query with
    ``options.replace(max_depth=max_depth)``; the default options keep
    only parent links, so sweeping large bounds does not hold every edge
    in memory.  Sharded and distributed shapes give bit-identical rows
    (any-shard truncation reports ``UNKNOWN``, never ``FAILS``).

    ``parallel`` runs the bounds concurrently through the sweep
    scheduler; ``store`` serves completed bounds from the result store,
    whose keys carry everything that determines a row (system content,
    condition, bound and result fields), never the execution shape.
    ``pool`` lends warm expansion workers to sequential sweeps only.
    ``on_point`` streams each completed bound.  A sequential
    single-shard sweep serves every bound from one labelled expansion
    (see the module docs).
    """
    from repro.api.query import _run_reachability

    bounds = tuple(bounds)
    effective = (options or ExplorationOptions()).replace(max_depth=max_depth)
    exploration_pool = pool if parallel <= 1 else None
    exploration_store = _point_store(store)
    served = _sweep_successors(system, _largest(bounds), effective, parallel)

    def measure(parameters: dict) -> dict:
        bound = parameters["b"]
        result = _run_reachability(
            system, condition, bound=bound, options=effective, pool=exploration_pool,
            store=exploration_store, successors=served(bound),
        )
        return {
            "verdict": result.reachable.value,
            "configurations": result.configurations_explored,
            "edges": result.edges_explored,
        }

    return _bound_rows(bounds, measure, parallel, on_point, exploration_store)


def state_space_bound_sweep(
    system: DMS,
    bounds: tuple[int, ...] = (0, 1, 2, 3),
    max_depth: int = 5,
    *,
    options: ExplorationOptions | None = None,
    pool=None,
    store=None,
    parallel: int = 1,
    on_point=None,
) -> tuple[BoundSweepEntry, ...]:
    """How many configurations/edges are explored as the bound grows (no property).

    Only sizes are reported, so without ``options`` the sweep explores
    with ``"counts-only"`` retention: no edge objects are held in
    memory.  Given options are used whole, with ``max_depth`` applied;
    ``parallel`` schedules the points as in
    :func:`reachability_bound_sweep`.  ``store`` serves repeat points
    from the content-addressed result store (exploration results cached
    whole).
    """
    from repro.store.service import cached_compute

    bounds = tuple(bounds)
    effective = (options or ExplorationOptions(retention=RETAIN_COUNTS)).replace(
        max_depth=max_depth
    )
    exploration_pool = pool if parallel <= 1 else None
    exploration_store = _point_store(store)
    served = _sweep_successors(system, _largest(bounds), effective, parallel)

    def measure(parameters: dict) -> dict:
        bound = parameters["b"]
        successors = served(bound)

        def canonical(configuration, actions=None):
            return enumerate_b_bounded_successors(system, configuration, bound, actions)

        def compute(recorder):
            return RecencyExplorer(
                system, bound, effective, pool=exploration_pool, successors=recorder or successors
            ).explore()

        result, _ = cached_compute(
            store=exploration_store,
            system=system,
            graph=f"recency:{bound}",
            parameters={"payload": "exploration", **effective.result_fields()},
            compute=compute,
            successors=(successors or canonical) if effective.single_shard else None,
            cacheable=effective.heuristic is None,
        )
        return {
            "configurations": result.configuration_count,
            "edges": result.edge_count,
        }

    return _bound_rows(bounds, measure, parallel, on_point, exploration_store)


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
    Single-shard, the scan labels its expansions at ``None`` and serves
    every bound from them (see the module docs).
    """
    from repro.api.query import _run_reachability

    effective = (options or ExplorationOptions()).replace(max_depth=max_depth)
    served = _sweep_successors(system, None, effective)

    def verdict(bound: int | None) -> Verdict:
        return _run_reachability(
            system, condition, bound=bound, options=effective, pool=pool, store=store,
            successors=served(bound),
        ).reachable

    reference = verdict(None)
    for bound in range(max_bound + 1):
        if verdict(bound) == reference:
            return bound
    return None
