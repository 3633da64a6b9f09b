"""Orchestration of store-backed computations.

:func:`cached_compute` is the one code path every store-aware entry
point (:func:`repro.api.run_reachability`, the
:mod:`repro.modelcheck.convergence` sweeps, the explorer-level caching
used by benches and tests) funnels through:

1. **Resolve** the ``store=`` argument (:func:`resolve_store`):
   ``None`` falls back to the ``REPRO_STORE`` environment variable,
   ``False`` disables the store outright, a path opens a
   :class:`~repro.store.store.ResultStore` there, and an existing store
   object is used as-is.
2. **Key** the query: the canonical parameter assignment (payload kind,
   condition, limits, strategy, retention, graph kind, system content
   hash) is digested through the collision-free canonicaliser of
   :mod:`repro.store.canonical`.  Unkeyable queries — a ``best-first``
   heuristic, a parameter outside the canonical domain — bypass the
   store silently (:class:`~repro.errors.StoreKeyError` is absorbed,
   the computation runs cold and nothing is stored).  A hit needs only
   the system's (memoised) content hash; the schema and base hashes
   are derived on a miss.
3. **Serve** an exact hit bit-identically, or **compute** — with
   subgraph capture on the single-shard path, seeded by the freshest
   compatible delta base (:meth:`~repro.store.store.ResultStore.delta_base`)
   when one exists — then **save** the result, the recorded subgraph,
   and prune entries orphaned by a schema change.

Keys deliberately *exclude* execution knobs that never change results:
``shards``/``workers``/``nodes``/``pool``/``shared_interning`` are
bit-identity-gated elsewhere (the E14/E16/E17 benches), so a result
computed sharded serves a later single-shard query and vice versa.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.dms.system import DMS
from repro.errors import StoreKeyError
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.store.canonical import (
    base_hash,
    point_key,
    schema_hash,
    serialised_digest,
    system_hash,
)
from repro.store.capture import DeltaSuccessors, Subgraph, SubgraphRecorder
from repro.store.store import KIND_RESULT, KIND_SUBGRAPH, ResultStore

__all__ = ["StoreOutcome", "cached_compute", "resolve_store"]

#: Environment variable naming the default store directory.
STORE_ENV = "REPRO_STORE"


def resolve_store(store) -> ResultStore | None:
    """Resolve a ``store=`` argument to a :class:`ResultStore` or ``None``.

    ``None`` consults the ``REPRO_STORE`` environment variable;
    ``False`` disables the store even when the variable is set; a
    string/path opens a store rooted there; an existing
    :class:`ResultStore` passes through.
    """
    if store is False:
        return None
    if store is None:
        root = os.environ.get(STORE_ENV)
        return ResultStore(root) if root else None
    if isinstance(store, ResultStore):
        return store
    return ResultStore(store)


@dataclass
class StoreOutcome:
    """What the store did for one computation (diagnostics for benches/tests).

    Attributes:
        key: the content key, or ``None`` when the store was bypassed.
        served_from_cache: an exact hit was returned without computing.
        captured: the computation recorded a subgraph.
        delta_base_used: a prior subgraph seeded delta verification.
        fresh_states: expansions enumerated with no memo assistance
            (``None`` unless delta verification ran).
        reused_states: memo-assisted expansions (``None`` likewise).
    """

    key: str | None = None
    served_from_cache: bool = False
    captured: bool = False
    delta_base_used: bool = False
    fresh_states: int | None = None
    reused_states: int | None = None


def cached_compute(
    *,
    store,
    system: DMS,
    graph: str,
    parameters: Mapping,
    compute: Callable[[Callable | None], object],
    successors: Callable[..., Iterable] | None = None,
    cacheable: bool = True,
) -> tuple[object, StoreOutcome]:
    """Serve ``compute`` through the content-addressed store (see module docs).

    Args:
        store: anything :func:`resolve_store` accepts.
        system: the system being explored (keys carry its content hash).
        graph: the graph kind — ``"dms"`` or ``"recency:<b>"``.
        parameters: the canonical key parameters (payload kind,
            condition, limits, strategy, retention, ...).
        compute: ``compute(successors)`` runs the exploration;
            ``successors`` is ``None`` (cold, no capture) or a recording
            successor function the computation must install on the
            engine's single-shard path.
        successors: the cold successor function
            ``successors(configuration, actions=None)``, whose optional
            action subset enables delta verification from a stored
            subgraph.  Pass it exactly when the computation runs
            single-shard in-process (the only path where a successor
            override reaches the engine); ``None`` skips capture.
        cacheable: ``False`` bypasses the store (e.g. a heuristic-driven
            search that cannot be content-addressed).

    Returns:
        ``(payload, outcome)`` — the computed or cached payload plus a
        :class:`StoreOutcome` describing what the store did.
    """
    outcome = StoreOutcome()
    resolved = resolve_store(store) if cacheable else None
    if resolved is None:
        return compute(None), outcome
    try:
        content = system_hash(system)
        key_parameters = dict(parameters)
        key_parameters.update({"graph": graph, "system": content})
        serialised = point_key(key_parameters)
        key = serialised_digest(serialised)
    except (StoreKeyError, TypeError):
        return compute(None), outcome
    outcome.key = key
    tracer = get_tracer()
    cached = resolved.load(key, kind=KIND_RESULT)
    if cached is not None:
        outcome.served_from_cache = True
        tracer.event("store", outcome="hit", kind=KIND_RESULT, graph=graph)
        return cached, outcome
    tracer.event("store", outcome="miss", kind=KIND_RESULT, graph=graph)
    schema_digest = schema_hash(system.schema)
    base_digest = base_hash(system)
    recorder = None
    delta: DeltaSuccessors | None = None
    if successors is not None:
        base = successors
        memo = resolved.delta_base(graph, base_digest)
        if isinstance(memo, Subgraph):
            delta = DeltaSuccessors(system, memo, successors)
            base = delta
            outcome.delta_base_used = True
        recorder = SubgraphRecorder(system, base)
        outcome.captured = True
    payload = compute(recorder)
    if delta is not None:
        outcome.fresh_states = delta.fresh_states
        outcome.reused_states = delta.reused_states
        registry = get_metrics()
        if registry.enabled:
            registry.counter("store_delta_states_total", kind="fresh").inc(delta.fresh_states)
            registry.counter("store_delta_states_total", kind="reused").inc(delta.reused_states)
        tracer.event(
            "store_delta", graph=graph, fresh=delta.fresh_states, reused=delta.reused_states
        )
    row = {
        "family": system.name,
        "system_hash": content,
        "schema_hash": schema_digest,
        "base_hash": base_digest,
        "graph": graph,
    }
    resolved.save(key, KIND_RESULT, payload, parameters=serialised, **row)
    if recorder is not None and recorder.subgraph.state_count:
        subgraph_serialised = point_key({"payload": "subgraph", "graph": graph, "system": content})
        subgraph_key = serialised_digest(subgraph_serialised)
        recorded = recorder.subgraph
        existing = resolved.load(subgraph_key, kind=KIND_SUBGRAPH)
        if isinstance(existing, Subgraph):
            # Grow the memo monotonically: expansions are deterministic,
            # so the union is consistent by construction.
            recorded.absorb(existing)
        resolved.save(
            subgraph_key, KIND_SUBGRAPH, recorded, parameters=subgraph_serialised, **row,
        )
    resolved.invalidate_schema_change(system.name, schema_digest)
    return payload, outcome
