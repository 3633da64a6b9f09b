"""Reachability analysis for DMSs (legacy keyword surface).

Propositional reachability (Example 4.2) asks whether some execution
reaches an instance where a given proposition holds.  The problem is
undecidable in general (Theorem 4.1); the library offers bounded-depth
reachability in the unbounded semantics and in the b-bounded semantics,
both returning three-valued
:class:`~repro.modelcheck.result.ReachabilityResult`.

.. deprecated::
    The four functions of this module are thin shims over the unified
    facade — :func:`repro.api.run_reachability` with
    :class:`repro.api.ExplorationOptions` — which is where verdicts,
    truncation semantics, witnesses and content-store keys are defined.
    They remain supported (the whole test matrix runs through them) and
    produce bit-identical results, but new code should call the facade:
    ``bound=None`` replaces :func:`query_reachable`, an integer bound
    replaces :func:`query_reachable_bounded`, and a proposition name as
    the condition replaces the two ``proposition_*`` variants.  Warm
    repeated querying (the HTTP service, experiment loops) should go
    through :class:`repro.api.Session`.

Everything documented here — the truncation contract (a cut-short
exploration reports ``UNKNOWN``, never ``FAILS``), ``pool=`` lending
warm expansion workers to sharded queries, ``shared_interning=``,
``nodes=``/``transport=`` lifting a query onto the distributed engine,
and ``store=`` serving repeat queries bit-identically from the
content-addressed result store — holds unchanged; the semantics live in
:mod:`repro.api.query`.
"""

from __future__ import annotations

from typing import Callable

from repro.dms.system import DMS
from repro.fol.syntax import Query
from repro.modelcheck.result import ReachabilityResult
from repro.recency.explorer import RecencyExplorationLimits
from repro.search import RETAIN_PARENTS

__all__ = [
    "query_reachable",
    "proposition_reachable",
    "query_reachable_bounded",
    "proposition_reachable_bounded",
]


def _options(limits, max_depth: int, **knobs):
    """The facade options equivalent to one legacy keyword surface.

    The facade is imported lazily: this module is imported during
    ``repro.modelcheck`` package initialisation, and :mod:`repro.api`
    imports ``repro.modelcheck.result`` — a module-level import here
    would deadlock whichever package initialises second.
    """
    from repro.api.options import ExplorationOptions

    if limits is not None:
        return ExplorationOptions.from_limits(limits, **knobs)
    return ExplorationOptions(max_depth=max_depth, **knobs)


def query_reachable(
    system: DMS,
    condition: Query | str,
    max_depth: int = 6,
    limits: RecencyExplorationLimits | None = None,
    *,
    strategy: str = "bfs",
    heuristic: Callable | None = None,
    retention: str = RETAIN_PARENTS,
    shards: int = 1,
    workers: int = 1,
    pool=None,
    shared_interning: bool | None = None,
    nodes: int = 1,
    transport=None,
    store=None,
) -> ReachabilityResult:
    """Is an instance satisfying ``condition`` reachable (unbounded semantics)?

    Shim over :func:`repro.api.run_reachability` with ``bound=None``
    (see the module docs); results are bit-identical to the facade's.
    """
    from repro.api.query import run_reachability

    options = _options(
        limits,
        max_depth,
        strategy=strategy,
        heuristic=heuristic,
        retention=retention,
        shards=shards,
        workers=workers,
        shared_interning=shared_interning,
        nodes=nodes,
        transport=transport,
    )
    return run_reachability(system, condition, bound=None, options=options, pool=pool, store=store)


def proposition_reachable(
    system: DMS,
    proposition: str,
    max_depth: int = 6,
    limits: RecencyExplorationLimits | None = None,
    *,
    strategy: str = "bfs",
    heuristic: Callable | None = None,
    retention: str = RETAIN_PARENTS,
    shards: int = 1,
    workers: int = 1,
    pool=None,
    shared_interning: bool | None = None,
    nodes: int = 1,
    transport=None,
    store=None,
) -> ReachabilityResult:
    """Propositional reachability (Example 4.2) in the unbounded semantics.

    Shim over :func:`repro.api.run_reachability` (a proposition name is
    a valid facade condition).
    """
    return query_reachable(
        system,
        proposition,
        max_depth=max_depth,
        limits=limits,
        strategy=strategy,
        heuristic=heuristic,
        retention=retention,
        shards=shards,
        workers=workers,
        pool=pool,
        shared_interning=shared_interning,
        nodes=nodes,
        transport=transport,
        store=store,
    )


def query_reachable_bounded(
    system: DMS,
    condition: Query | str,
    bound: int,
    max_depth: int = 6,
    limits: RecencyExplorationLimits | None = None,
    *,
    strategy: str = "bfs",
    heuristic: Callable | None = None,
    retention: str = RETAIN_PARENTS,
    shards: int = 1,
    workers: int = 1,
    pool=None,
    shared_interning: bool | None = None,
    nodes: int = 1,
    transport=None,
    store=None,
) -> ReachabilityResult:
    """Is an instance satisfying ``condition`` reachable along a b-bounded run?

    Shim over :func:`repro.api.run_reachability` with an integer bound
    (see the module docs); results are bit-identical to the facade's.
    """
    from repro.api.query import run_reachability

    options = _options(
        limits,
        max_depth,
        strategy=strategy,
        heuristic=heuristic,
        retention=retention,
        shards=shards,
        workers=workers,
        shared_interning=shared_interning,
        nodes=nodes,
        transport=transport,
    )
    return run_reachability(system, condition, bound=bound, options=options, pool=pool, store=store)


def proposition_reachable_bounded(
    system: DMS,
    proposition: str,
    bound: int,
    max_depth: int = 6,
    limits: RecencyExplorationLimits | None = None,
    *,
    strategy: str = "bfs",
    heuristic: Callable | None = None,
    retention: str = RETAIN_PARENTS,
    shards: int = 1,
    workers: int = 1,
    pool=None,
    shared_interning: bool | None = None,
    nodes: int = 1,
    transport=None,
    store=None,
) -> ReachabilityResult:
    """Propositional reachability restricted to b-bounded runs.

    Shim over :func:`repro.api.run_reachability` (a proposition name is
    a valid facade condition).
    """
    return query_reachable_bounded(
        system,
        proposition,
        bound,
        max_depth=max_depth,
        limits=limits,
        strategy=strategy,
        heuristic=heuristic,
        retention=retention,
        shards=shards,
        workers=workers,
        pool=pool,
        shared_interning=shared_interning,
        nodes=nodes,
        transport=transport,
        store=store,
    )
