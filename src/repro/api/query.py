"""The one reachability implementation behind every entry point.

:func:`run_reachability` is the only way to ask whether a condition is
reachable: an integer bound explores the canonical b-bounded graph and
``bound=None`` the unbounded (depth-bounded) configuration graph,
through the same explorer; a proposition name or a boolean FOL(R) query
selects the condition.  Sessions, the convergence sweeps, the harness,
the fuzz oracle and the service all call it, so verdicts, witnesses,
truncation semantics and content-store keys are defined here and only
here.  The bound changes only the store's graph name and, for ``None``,
projects the witness onto plain configurations.

The truncation contract: an exploration cut short by any limit
reports an unreached condition
:attr:`~repro.modelcheck.result.Verdict.UNKNOWN`, never
:attr:`~repro.modelcheck.result.Verdict.FAILS`.  Store keys are the
parameter assignment (payload kind, condition key, limits, strategy,
retention, graph kind), byte-for-byte the one earlier releases
produced, so populated stores keep serving hits.

``on_state`` streams exploration progress: it fires with each newly
discovered configuration and its depth, in discovery order, on every
engine (single-shard, sharded, distributed).  A query answered from the
content-addressed store never explores, so a store hit produces no
``on_state`` calls — stream consumers (the service layer) treat that as
an instantly final query.
"""

from __future__ import annotations

from typing import Callable

from repro.database.instance import DatabaseInstance
from repro.dms.system import DMS
from repro.errors import ModelCheckingError
from repro.fol.evaluator import evaluate_sentence
from repro.fol.syntax import Query
from repro.modelcheck.result import ReachabilityResult, Verdict
from repro.recency.explorer import RecencyExplorer
from repro.recency.semantics import enumerate_b_bounded_successors
from repro.search import ExplorationOptions
from repro.store.service import cached_compute

__all__ = ["condition_key", "instance_predicate", "run_reachability"]


def condition_key(condition: Query | str) -> str:
    """The canonical store-key component of a reachability condition.

    Proposition names and query renderings live in disjoint namespaces
    (``p:``/``q:`` prefixes), so a proposition named like a query text
    can never collide with that query.
    """
    if isinstance(condition, str):
        return f"p:{condition}"
    return f"q:{condition}"


def instance_predicate(
    condition: Query | str, system: DMS
) -> Callable[[DatabaseInstance], bool]:
    """The per-instance predicate a reachability condition denotes.

    A string names a zero-ary proposition of the system's schema; a
    :class:`~repro.fol.syntax.Query` must be a sentence (no free
    variables) and is evaluated per instance.
    """
    if isinstance(condition, str):
        name = condition
        system.schema.relation(name)
        return lambda instance: instance.holds_proposition(name)
    if not condition.is_sentence():
        raise ModelCheckingError("reachability conditions must be boolean queries (sentences)")
    return lambda instance: evaluate_sentence(condition, instance)


def run_reachability(
    system: DMS,
    condition: Query | str,
    *,
    bound: int | None = None,
    options: ExplorationOptions | None = None,
    pool=None,
    store=None,
    on_state: Callable[[object, int], None] | None = None,
) -> ReachabilityResult:
    """Is an instance satisfying ``condition`` reachable?

    Args:
        system: the DMS to explore.
        condition: a boolean FOL(R) query or a proposition name.
        bound: ``None`` explores the unbounded (depth-bounded)
            configuration graph; an integer explores the canonical
            b-bounded graph at that recency bound.
        options: every exploration knob (defaults to
            :class:`ExplorationOptions`).
        pool: a :class:`repro.runtime.WorkerPool` lending warm expansion
            workers to sharded explorations (single-shard explorations
            expand in-process and ignore it).
        store: content-addressed result store — a path, a
            :class:`repro.store.ResultStore`, ``False`` to disable,
            ``None`` to consult ``REPRO_STORE``.
        on_state: progress callback ``on_state(configuration, depth)``,
            fired per newly discovered configuration in discovery order
            (never on a store hit — see the module docs).

    Returns:
        A three-valued :class:`~repro.modelcheck.result.ReachabilityResult`;
        truncated explorations report ``UNKNOWN``, never ``FAILS``.
    """
    options = options or ExplorationOptions()
    predicate = instance_predicate(condition, system)

    def compute(successors) -> ReachabilityResult:
        explorer = RecencyExplorer(system, bound, options, pool=pool, successors=successors)
        witness, stats = explorer.find_configuration(
            lambda configuration: predicate(configuration.instance), on_state
        )
        if witness is not None:
            verdict = Verdict.HOLDS
        elif stats.truncated or stats.depth_reached >= options.max_depth:
            verdict = Verdict.UNKNOWN
        else:
            verdict = Verdict.FAILS
        return ReachabilityResult(
            reachable=verdict,
            witness=witness.plain() if witness is not None and bound is None else witness,
            configurations_explored=stats.configuration_count,
            edges_explored=stats.edge_count,
            depth=options.max_depth,
            bound=bound,
        )

    def successors(configuration, actions=None):
        return enumerate_b_bounded_successors(system, configuration, bound, actions)

    result, _ = cached_compute(
        store=store,
        system=system,
        # The unbounded graph keeps its historical name, so existing
        # stores keep serving its results.
        graph="dms" if bound is None else f"recency:{bound}",
        parameters={
            "payload": "reachability",
            "condition": condition_key(condition),
            **options.result_fields(),
        },
        compute=compute,
        successors=successors if options.single_shard else None,
        cacheable=options.heuristic is None,
    )
    return result
