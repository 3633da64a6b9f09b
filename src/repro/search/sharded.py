"""The partitioned level loop: sharded and distributed exploration.

The single-process :class:`~repro.search.engine.Engine` expands one
state at a time; on the large case studies almost all of that time is
spent in *successor enumeration* (guard evaluation over the database
instance, instance construction).  This module parallelises exactly that
hot loop while keeping the results **bit-identical** to a single-shard
breadth-first exploration.

States are hash-partitioned (:func:`shard_of`) across ``k``
:class:`Partition` objects; each partition owns the intern table and the
partial :class:`~repro.search.engine.SearchResult` of its states.
:func:`run_levels` — the only level loop — explores one breadth-first
level at a time:

1. **expand** the level (batches of states, tail-half work stealing
   across per-partition queues — :class:`ShardFrontiers`);
2. **walk** the generated edges in global discovery order — the exact
   order in which single-shard BFS pops its FIFO frontier — checking
   the search predicate and the edge limit;
3. **probe** the owning partitions for would-be-new states, only when
   ``max_configurations`` is within reach, so the state cut lands
   exactly where single-shard BFS would put it;
4. **commit** each partition's share up to the cut (interning, depths,
   parent links — cross-partition parents marked ``-1`` — and the edges
   generated from its states);
5. fire ``on_state`` for the committed states in position order.

The loop reaches partitions through a transport with two operations,
``expand(level)`` and ``broadcast(kind, payload_fn)``.
:class:`InProcessTransport` calls ``k`` partitions directly and expands
through the engine's single expansion backend — a deterministic serial
fallback (:class:`SerialExpansionBackend`) or fork workers leased from a
:class:`repro.runtime.WorkerPool`.  The TCP transport of
:mod:`repro.distributed` sends the same request kinds as frames to node
agents, each serving one partition.

Because interning, parent assignment, limit checks and predicate
evaluation are sequenced by the walk, the merged result is bit-identical
to the single-shard engine's on the visited set, edge counts, truncation
flags, parent links and reconstructed witnesses, for every retention
mode, worker count and transport.  The only speculative work is
successor enumeration past a limit, which the walk discards.  Partials
fold with the associative :meth:`~repro.search.engine.SearchResult.merge`,
which re-keys parent links across partitions and ORs truncation flags —
any truncated partition makes the merged exploration truncated, which
the reachability layer maps to ``UNKNOWN`` (never ``FAILS``).

Sharding is inherently level-synchronous, so only the ``"bfs"`` frontier
strategy is supported: a :class:`ShardedEngine` given options asking for
``"dfs"``/``"best-first"`` raises :class:`~repro.errors.SearchError`.

Expansion backends live for the **engine's lifetime** (not one fork
cycle per ``explore()`` call), and an engine given a
:class:`repro.runtime.WorkerPool` borrows *warm* workers that survive
the engine itself — see :mod:`repro.runtime` for the pool, the sweep
scheduler and checkpointed execution built on top of this module.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Callable, Iterable

from repro.errors import SearchError
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, resolve_metrics
from repro.obs.trace import get_tracer
from repro.search.engine import RETAIN_COUNTS, RETAIN_FULL, SearchResult
from repro.search.interning import InternTable
from repro.search.options import ExplorationOptions
from repro.search.shm_interning import SharedInternTable, shared_memory_available

__all__ = [
    "InProcessTransport",
    "LevelRun",
    "Partition",
    "ShardFrontiers",
    "ShardedEngine",
    "SerialExpansionBackend",
    "collect_partials",
    "owned_expansion_backend",
    "run_levels",
    "search_partitions",
    "shard_of",
    "process_backend_available",
    "usable_cpu_count",
]

DEFAULT_BATCH_SIZE = 16


def shard_of(state: Any, shards: int) -> int:
    """The shard owning ``state``: its structural hash modulo ``shards``.

    Ownership only balances work across shards — the walk makes the
    exploration result independent of the partition, so per-process hash
    randomisation is harmless (the loop evaluates ownership in one
    process only).
    """
    return hash(state) % shards


def process_backend_available() -> bool:
    """Whether fork-based expansion workers can run *here*.

    Workers inherit the successor closure via the ``fork`` start method,
    so they are available exactly where fork is (POSIX) — and where the
    current process may have children at all: inside a daemonic pool
    worker (e.g. a sweep point running on the runtime's scheduler)
    Python forbids spawning processes, so nested explorations silently
    use the deterministic serial backend instead.  Results are
    bit-identical either way; only parallelism is affected, and the
    outer level already provides it in the nested case.
    """
    if multiprocessing.current_process().daemon:
        return False
    return "fork" in multiprocessing.get_all_start_methods()


def usable_cpu_count() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


class ShardFrontiers:
    """Per-shard FIFO frontiers with tail-half work stealing.

    One instance holds the frontiers of a single exploration level: the
    transport pushes every frontier entry onto its owning shard's queue,
    and expansion workers drain the queues in batches.
    :meth:`take_batch` serves a shard from its own queue first; when that
    queue has drained it steals the tail half of the fullest remaining
    queue (the classic work-stealing split: the victim keeps the head it
    is about to process, the thief takes the colder tail).

    ``steals`` counts the steal operations of this level; the in-process
    transport reads it after the backend drains the frontiers and
    flushes it into the metrics registry (stealing happens
    coordinator-side for every backend, so no counter crosses a process
    boundary).
    """

    __slots__ = ("_queues", "steals")

    def __init__(self, shards: int) -> None:
        self._queues: list[deque] = [deque() for _ in range(shards)]
        self.steals = 0

    @property
    def shards(self) -> int:
        """Number of shard queues."""
        return len(self._queues)

    def push(self, shard: int, entry: Any) -> None:
        """Append ``entry`` to ``shard``'s frontier."""
        self._queues[shard].append(entry)

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues)

    def __bool__(self) -> bool:
        return any(self._queues)

    def take_batch(self, shard: int, size: int) -> list:
        """Up to ``size`` entries for ``shard``, stealing when it drained.

        Returns ``[]`` only when every frontier is empty.
        """
        queue = self._queues[shard]
        if not queue:
            victim = self._fullest()
            if victim is None:
                return []
            self._steal(victim, into=shard)
        batch = []
        while queue and len(batch) < size:
            batch.append(queue.popleft())
        return batch

    def _fullest(self) -> int | None:
        """The index of the fullest non-empty queue (smallest index on ties)."""
        best: int | None = None
        for index, queue in enumerate(self._queues):
            if queue and (best is None or len(queue) > len(self._queues[best])):
                best = index
        return best

    def _steal(self, victim: int, into: int) -> None:
        """Move the tail half (at least one entry) of ``victim`` to ``into``."""
        self.steals += 1
        source = self._queues[victim]
        count = max(1, len(source) // 2)
        stolen = [source.pop() for _ in range(count)]
        stolen.reverse()  # preserve the tail segment's original order
        self._queues[into].extend(stolen)


# -- expansion backends ------------------------------------------------------------


def _drain_batches(frontiers: ShardFrontiers, batch_size: int) -> list[list]:
    """Materialise all expansion batches of a level, round-robin with stealing.

    A cursor cycles over the shards the way a pool of per-shard workers
    would: each shard takes batches from its own frontier and steals from
    the fullest one once its own has drained.
    """
    batches: list[list] = []
    shard = 0
    shards = frontiers.shards
    while frontiers:
        batch = frontiers.take_batch(shard, batch_size)
        shard = (shard + 1) % shards
        if batch:
            batches.append(batch)
    return batches


class SerialExpansionBackend:
    """Deterministic single-process expansion (the fallback backend).

    Runs the exact same shard-queue draining and stealing schedule as the
    pooled backend, then enumerates successors inline.
    """

    name = "serial"

    def __init__(self, successors: Callable[[Any], Iterable]) -> None:
        self._successors = successors

    def expand(self, frontiers: ShardFrontiers, batch_size: int) -> dict:
        """Expand every queued state; returns ``{ref: [edges]}``."""
        successors = self._successors
        expansions: dict = {}
        for batch in _drain_batches(frontiers, batch_size):
            for ref, state in batch:
                expansions[ref] = list(successors(state))
        return expansions

    def close(self) -> None:
        """Nothing to release."""


def owned_expansion_backend(
    successors: Callable[[Any], Iterable],
    workers: int,
    shared_interning: bool | None = None,
):
    """An expansion backend its caller owns (and must ``close()``).

    Fork workers (``workers > 1`` where fork exists) are an auto-keyed
    lease on a private :class:`repro.runtime.WorkerPool`: closing or
    dropping the backend stops them and unlinks their shared store.
    Otherwise the deterministic :class:`SerialExpansionBackend`.
    """
    if workers > 1 and process_backend_available():
        from repro.runtime.pool import WorkerPool

        return WorkerPool(workers=workers).expansion_backend(
            successors, workers=workers, shared_interning=shared_interning
        )
    return SerialExpansionBackend(successors)


# -- partitions ---------------------------------------------------------------------


def _detached(partial: SearchResult) -> SearchResult:
    """A picklable copy of ``partial`` over a plain intern table.

    A :class:`SharedInternTable` is a view of a local shared-memory
    segment and cannot cross the wire; re-interning in discovery order
    preserves every dense local id, so parent links and depths keep
    their meaning verbatim.
    """
    table = InternTable()
    for state in partial.interning.states():
        table.intern(state)
    return replace(partial, interning=table)


class Partition:
    """One hash partition: the intern table and partial result of its states.

    The table is a :class:`SharedInternTable` over the backend's store
    when it has one, so frontier entries travel as shared ids.
    :func:`run_levels` reaches a partition only through :meth:`handle`,
    called directly in process or served as TCP frames by a node agent.
    ``metrics`` counts node-side work (renewed per exploration, its
    snapshot returned by collect and summarize); ``detach`` collects the
    partial over a plain intern table, for shipping to another host.
    """

    def __init__(
        self,
        backend,
        *,
        shards: int = 1,
        batch_size: int = DEFAULT_BATCH_SIZE,
        metrics=NULL_REGISTRY,
        detach: bool = False,
    ) -> None:
        self._backend = backend
        self._store = getattr(backend, "shared_store", None)
        self._shards = shards
        self._batch_size = batch_size
        self._detach = detach
        self._keep_parents = True
        self.metrics = metrics
        self.table: InternTable | None = None
        self.partial: SearchResult | None = None

    def handle(self, kind: str, data: dict) -> dict:
        """Serve one request of the level loop; returns the reply payload."""
        handler = self._HANDLERS.get(kind)
        if handler is None:
            raise SearchError(f"unknown partition request kind {kind!r}")
        return handler(self, data)

    def reset(self, data: dict) -> dict:
        """Start a fresh exploration: a new intern table and an empty partial."""
        self.table = SharedInternTable(self._store) if self._store is not None else InternTable()
        self._keep_parents = data["keep_parents"]
        if self.metrics.enabled:
            self.metrics = MetricsRegistry()
        self.partial = SearchResult(
            initial=data["initial"], retention=data["retention"], interning=self.table
        )
        return {}

    def init_root(self, data: dict) -> dict:
        """Intern the root (this partition owns it) at depth 0."""
        local_id, _, _ = self.table.intern(data["state"])
        self.partial.depths[local_id] = 0
        return {"local_id": local_id}

    def entry(self, ref: Any, local_id: int | None, state: Any = None) -> tuple[Any, tuple]:
        """``(state, batch entry)`` for an owned ``local_id`` or a stolen ``state``.

        The entry is ``(ref, state)``, or ``(ref, shared_id, inline)``
        over a shared store (``inline`` only for a state without an id).
        """
        if local_id is not None:
            state = self.table.state_of(local_id)
        if self._store is None:
            return state, (ref, state)
        shared_id = None if local_id is None else self.table.shared_id_of(local_id)
        return state, (ref, shared_id, state if shared_id is None else None)

    def expand(self, data: dict) -> dict:
        """Expand ``(ref, local_id, state)`` entries over local stealing queues."""
        frontiers = ShardFrontiers(self._shards)
        for ref, local_id, state in data["entries"]:
            state, entry = self.entry(ref, local_id, state)
            frontiers.push(shard_of(state, self._shards), entry)
        started = perf_counter()
        expansions = self._backend.expand(frontiers, self._batch_size)
        if self.metrics.enabled:
            self.metrics.histogram("node_expand_seconds").observe(perf_counter() - started)
            self.metrics.counter("node_edges_total").inc(
                sum(len(edges) for edges in expansions.values())
            )
        return {"results": list(expansions.items())}

    def probe(self, data: dict) -> dict:
        """Positions of ``targets`` that would intern a new state (commits nothing).

        Dedup is prefix-stable, so the later commit of a prefix of these
        candidates agrees with the probe on every position it keeps.
        """
        seen: set = set()
        news: list[int] = []
        for position, state in data["targets"]:
            if state not in self.table and state not in seen:
                seen.add(state)
                news.append(position)
        return {"news": news}

    def commit(self, data: dict) -> dict:
        """Apply one level's share; reply the ``(position, local_id)`` of new states.

        A parent link whose source another partition owns is marked
        ``-1``; :meth:`SearchResult.merge` repairs it.
        """
        partial = self.partial
        table = self.table
        partial.edge_count += data["edge_count"]
        if data["edges"]:
            partial.edges.extend(data["edges"])
        partial.truncated = partial.truncated or data["truncated"]
        news: list[tuple[int, int]] = []
        for position, edge in data["candidates"]:
            local_id, _, is_new = table.intern(edge.target)
            if not is_new:
                continue
            partial.depths[local_id] = data["depth"]
            if self._keep_parents:
                source_local = table.id_of(edge.source)
                partial.parents[local_id] = (-1 if source_local is None else source_local, edge)
            news.append((position, local_id))
        if news and self.metrics.enabled:
            self.metrics.counter("node_states_total").inc(len(news))
        return {"news": news}

    def collect(self, data: dict) -> dict:
        """The partial result and metrics snapshot, once the loop ended.

        ``depth_reached`` is the deepest owned state within the loop's
        last level: states committed by a stopping level were never
        visited.
        """
        partial = self.partial
        partial.depth_reached = max(
            (depth for depth in partial.depths.values() if depth <= data["depth_reached"]),
            default=0,
        )
        result = _detached(partial) if self._detach else partial
        return {"result": result, "metrics": self.metrics.snapshot()}

    def summarize(self, data: dict) -> dict:
        """The partition's state count and metrics snapshot; no state leaves it."""
        return {"states": len(self.table), "metrics": self.metrics.snapshot()}

    _HANDLERS = {
        "reset": reset,
        "init-root": init_root,
        "expand": expand,
        "probe": probe,
        "commit": commit,
        "collect": collect,
        "summarize": summarize,
    }


class InProcessTransport:
    """The level loop's transport over ``count`` partitions in this process.

    :meth:`broadcast` calls the partitions directly; :meth:`expand`
    queues the level on one :class:`ShardFrontiers` queue per partition
    and drains it, with stealing, through the engine's single backend.
    """

    def __init__(self, backend, count: int, batch_size: int, record=None) -> None:
        self.count = count
        self.partitions = [Partition(backend) for _ in range(count)]
        self._backend = backend
        self._batch_size = batch_size
        self._record = record

    def expand(self, level: list[tuple[int, int]]) -> dict:
        """Expand every ``(partition, local_id)`` ref; returns ``{ref: [edges]}``."""
        frontiers = ShardFrontiers(self.count)
        for ref in level:
            frontiers.push(ref[0], self.partitions[ref[0]].entry(ref, ref[1])[1])
        expansions = self._backend.expand(frontiers, self._batch_size)
        if self._record is not None and frontiers.steals:
            self._record.counter("sharded_steals_total").inc(frontiers.steals)
        return expansions

    def broadcast(self, kind: str, payload: Callable[[int], dict | None]) -> dict[int, dict]:
        """``{index: reply}`` of every partition whose payload is not ``None``."""
        replies = {}
        for index, partition in enumerate(self.partitions):
            data = payload(index)
            if data is not None:
                replies[index] = partition.handle(kind, data)
        return replies


# -- the level loop ------------------------------------------------------------------


@dataclass
class LevelRun:
    """Counters and outcome of one :func:`run_levels` call.

    ``hit`` is ``None``, ``(root, None)`` when the initial state
    satisfied the predicate, or ``(source_state, edge)`` for the first
    satisfying edge in single-shard BFS order.
    """

    states: int = 1
    edges: int = 0
    depth_reached: int = 0
    truncated: bool = False
    hit: tuple | None = None

    def witness(self, merged: SearchResult) -> list | None:
        """The path to the hit in ``merged`` (``[]`` for a root hit, ``None`` without one)."""
        if self.hit is None:
            return None
        source, edge = self.hit
        if edge is None:
            return []
        return merged.path_to(source) + [edge]


def run_levels(
    transport,
    initial: Any,
    options: ExplorationOptions,
    *,
    predicate: Callable[[Any], bool] | None = None,
    on_state: Callable[[Any, int], None] | None = None,
    record=None,
) -> LevelRun:
    """Level-synchronous BFS over ``transport``'s partitions (see module docs).

    ``options`` supplies the limits and the retention mode.  ``record``
    is the enabled metrics registry or ``None``; counters are flushed
    once per level, never per edge.  The explored states stay on the
    partitions (see :func:`collect_partials`).
    """
    retention = options.retention
    # Predicate search always keeps parent links (witnesses), as Engine.search does.
    keep_parents = retention != RETAIN_COUNTS or predicate is not None
    transport.broadcast(
        "reset",
        lambda index: {"retention": retention, "keep_parents": keep_parents, "initial": initial},
    )
    owner = shard_of(initial, transport.count)
    root = transport.broadcast("init-root", lambda index: {"state": initial} if index == owner else None)
    run = LevelRun()
    if record is not None:
        record.counter("engine_states_total", kind="interned").inc()
    if on_state is not None:
        on_state(initial, 0)
    if predicate is not None and predicate(initial):
        run.hit = (initial, None)
        return run
    level = [(owner, root[owner]["local_id"])]
    depth = 0
    while level:
        run.depth_reached = depth
        if depth >= options.max_depth:
            break
        if record is not None:
            record.counter("sharded_levels_total").inc()
            record.gauge("engine_frontier_states").high_water(len(level))
            started = perf_counter()
        with get_tracer().span("expand", depth=depth, frontier=len(level)):
            expansions = transport.expand(level)
        if record is not None:
            expanded = perf_counter()
            record.histogram("sharded_level_seconds", phase="expand").observe(expanded - started)
        level = _next_level(
            transport, level, expansions, depth, run, options, predicate, on_state,
            retention == RETAIN_FULL, record,
        )
        if record is not None:
            record.histogram("sharded_level_seconds", phase="replay").observe(
                perf_counter() - expanded
            )
        depth += 1
    return run


def _next_level(
    transport, level, expansions, depth, run, options, predicate, on_state, keep_edges, record
) -> list[tuple[int, int]]:
    """Walk, probe and commit one expanded level; ``[]`` when the run stops here."""
    count = transport.count
    potential = sum(len(expansions.get(ref, ())) for ref in level)
    # The walk position of the edge that reaches max_steps; single-shard
    # BFS checks the limit after counting an edge, so with max_steps=0
    # it still generates (and stops after) the first one.
    edge_cut = (
        max(0, options.max_steps - run.edges - 1)
        if run.edges + potential >= options.max_steps
        else None
    )
    # The walk ends at the earliest stop already known: single-shard BFS
    # never counts, keeps or interns an edge past a hit or the edge cut.
    walk: list[tuple[int, Any, int]] = []  # (source partition, edge, owner partition)
    hit = None
    for ref in level:
        for edge in expansions.get(ref, ()):
            walk.append((ref[0], edge, shard_of(edge.target, count)))
            if predicate is not None and predicate(edge.target):
                hit = len(walk) - 1
                break
            if len(walk) - 1 == edge_cut:
                break
        else:
            continue
        break

    cut = len(walk) - 1
    stop = None if hit is None else "hit"
    if run.states + len(walk) >= options.max_configurations:
        targets: list[list] = [[] for _ in range(count)]
        for position, (_, edge, owner) in enumerate(walk):
            if position != hit:
                targets[owner].append((position, edge.target))
        news_at: set[int] = set()
        for reply in transport.broadcast("probe", lambda index: {"targets": targets[index]}).values():
            news_at.update(reply["news"])
        states = run.states
        for position in range(len(walk)):
            if position == hit:
                break
            states += position in news_at
            if (
                states >= options.max_configurations
                or run.edges + position + 1 >= options.max_steps
            ):
                cut, stop = position, "truncated"
                break
    elif stop is None and walk and run.edges + len(walk) >= options.max_steps:
        stop = "truncated"

    shares = [
        {"depth": depth + 1, "candidates": [], "edge_count": 0, "truncated": False,
         "edges": [] if keep_edges else None}
        for _ in range(count)
    ]
    for position in range(cut + 1):
        source, edge, owner = walk[position]
        shares[source]["edge_count"] += 1
        if keep_edges:
            shares[source]["edges"].append(edge)
        if position != hit:
            shares[owner]["candidates"].append((position, edge))
    if stop == "truncated":
        shares[walk[cut][0]]["truncated"] = True
    replies = transport.broadcast("commit", shares.__getitem__)
    news = sorted(
        (position, (index, local_id))
        for index, reply in replies.items()
        for position, local_id in reply["news"]
    )
    run.edges += cut + 1
    run.states += len(news)
    if record is not None:
        record.counter("engine_states_total", kind="interned").inc(len(news))
        if cut + 1 > len(news):
            record.counter("engine_states_total", kind="duplicate").inc(cut + 1 - len(news))
        record.counter("engine_edges_total").inc(cut + 1)
    if on_state is not None:
        for position, _ in news:
            on_state(walk[position][1].target, depth + 1)
    if stop == "hit":
        edge = walk[hit][1]
        run.hit = (edge.source, edge)
    run.truncated = stop == "truncated"
    return [] if stop else [ref for _, ref in news]


def collect_partials(transport, run: LevelRun) -> list[SearchResult]:
    """Every partition's partial result after ``run``, in partition order."""
    replies = transport.broadcast("collect", lambda index: {"depth_reached": run.depth_reached})
    return [replies[index]["result"] for index in sorted(replies)]


def search_partitions(
    transport,
    initial: Any,
    options: ExplorationOptions,
    *,
    predicate: Callable[[Any], bool] | None = None,
    on_state: Callable[[Any, int], None] | None = None,
    record=None,
) -> tuple[list | None, SearchResult]:
    """:func:`run_levels`, then the merged partials: ``(witness, merged)``."""
    run = run_levels(
        transport, initial, options, predicate=predicate, on_state=on_state, record=record
    )
    merged = SearchResult.merge_all(collect_partials(transport, run))
    merged.initial = merged.interning.canonical(initial)
    return run.witness(merged), merged


# -- the sharded engine ------------------------------------------------------------


class ShardedEngine:
    """Level-synchronous sharded exploration (see module docs).

    Drop-in for :class:`~repro.search.engine.Engine` on the ``"bfs"``
    strategy: :meth:`explore` and :meth:`search` return results
    bit-identical to the single-shard engine's, while successor
    enumeration is batched across shard workers.

    Args:
        successors: deterministic successor function
            ``state -> iterable of edges`` (objects with
            ``.source``/``.target``).  Must be pure — the engine may
            enumerate successors speculatively past a limit.
        options: the :class:`~repro.search.options.ExplorationOptions`
            of every exploration: the limits, the retention mode, the
            strategy (must be ``"bfs"`` — sharding is level-synchronous)
            and the execution shape.  ``shards`` hash partitions hold the
            per-level frontiers; ``workers > 1`` expands on worker
            processes (``1`` selects the serial backend);
            ``shared_interning`` routes process-backed expansion traffic
            through a shared-memory state store
            (:mod:`repro.search.shm_interning`) so workers exchange
            intern ids instead of pickled states — ``None`` (auto) turns
            it on whenever expansion runs on worker processes and shared
            memory is available, ``False`` forces pickled traffic, and
            results are bit-identical either way.  With ``nodes > 1`` the
            exploration runs **two-level distributed**
            (:mod:`repro.distributed`): the same level loop runs over
            ``nodes`` node agents reached through ``transport``
            (``None``/``"tcp"`` forks a localhost TCP cluster owned by
            the engine; a :class:`repro.distributed.Coordinator` with
            already-accepted agents is borrowed and left connected on
            :meth:`close`), and ``shards``/``workers``/
            ``shared_interning`` become each node's *local* expansion
            configuration.
        batch_size: states per expansion task.
        pool: a :class:`repro.runtime.WorkerPool` to borrow warm
            expansion workers from.  Leased workers survive the engine
            (they stay warm in the pool); without a pool the engine owns
            its backend (:func:`owned_expansion_backend`), created once
            on first use and reused by every later exploration until
            :meth:`close`.  Ignored by distributed explorations (node
            agents own their expansion workers).
        pool_key: worker-pool context key identifying the successor
            function's semantics (defaults to the callable's identity).
            Engines sharing a key share the same warm workers.
        context: a picklable
            :class:`~repro.distributed.context.ExplorationContext`
            shipped to *external* node agents in their lease (the
            localhost launcher inherits the successor closure through
            fork and needs none).
        metrics: a :class:`repro.obs.MetricsRegistry`; ``None`` (the
            default) resolves to the process-wide registry per call —
            the no-op null registry unless one was installed, so the
            uninstrumented path costs nothing.  Per-level counters
            (interned vs duplicate states, edges, steals, expand/replay
            timings) are flushed at level barriers, never per edge.

    The expansion backend lives for the **engine's lifetime**: repeated
    :meth:`explore`/:meth:`search` calls reuse the same worker
    processes instead of forking fresh ones per call.  The engine is
    a context manager; ``close()`` releases a pool lease or shuts an
    owned backend down (a GC finalizer backstops forgotten engines).
    """

    __slots__ = (
        "_successors",
        "options",
        "_batch_size",
        "_pool",
        "_pool_key",
        "_backend_instance",
        "_context",
        "_distributed_instance",
        "_metrics",
    )

    def __init__(
        self,
        successors: Callable[[Any], Iterable],
        options: ExplorationOptions,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        pool=None,
        pool_key: Any = None,
        context: Any = None,
        metrics=None,
    ) -> None:
        if options.strategy != "bfs":
            raise SearchError(
                "sharded exploration is level-synchronous and supports only the 'bfs' "
                f"strategy (got {options.strategy!r})"
            )
        if batch_size < 1:
            raise SearchError("batch_size must be positive")
        self._successors = successors
        self.options = options
        self._batch_size = batch_size
        self._pool = pool
        self._pool_key = pool_key
        self._backend_instance = None
        self._context = context
        self._distributed_instance = None
        self._metrics = metrics

    @property
    def backend_name(self) -> str:
        """The expansion backend :meth:`explore` will use.

        ``"process"`` for engine-owned fork workers, ``"serial"`` for
        the in-process fallback, ``"pooled"``/``"pooled-serial"`` for a
        :class:`repro.runtime.WorkerPool` lease and ``"distributed"``
        for node agents.
        """
        workers = self.options.workers
        if self._distributed_active():
            return "distributed"
        if self._pool is None:
            if workers > 1 and process_backend_available():
                return "process"
            return SerialExpansionBackend.name
        if self._backend_instance is not None:
            return self._backend_instance.name
        return "pooled" if self._pool.uses_processes(workers) else "pooled-serial"

    @property
    def shared_interning(self) -> bool:
        """Whether expansion traffic is (or will be) id-only.

        Reports the *effective* state once a backend exists; before
        that, the auto policy's prediction: on for process-backed
        expansion with shared memory available, off otherwise.  For a
        distributed engine this is the per-*node* prediction (each node
        decides exactly as a node-local engine would).
        """
        requested, workers = self.options.shared_interning, self.options.workers
        if self._distributed_active():
            return (
                requested is not False
                and shared_memory_available()
                and workers > 1
                and process_backend_available()
            )
        backend = self._backend_instance
        if backend is not None:
            return getattr(backend, "shared_store", None) is not None
        if requested is False or not shared_memory_available():
            return False
        if self._pool is not None:
            return self._pool.uses_processes(workers)
        return workers > 1 and process_backend_available()

    def _backend(self):
        """The engine's expansion backend, created once and then reused.

        Hoisting the backend to engine lifetime is what keeps worker
        processes warm across successive explorations.
        """
        if self._backend_instance is None:
            workers, shared_interning = self.options.workers, self.options.shared_interning
            if self._pool is not None:
                self._backend_instance = self._pool.expansion_backend(
                    self._successors,
                    key=self._pool_key,
                    workers=workers,
                    shared_interning=shared_interning,
                )
            else:
                self._backend_instance = owned_expansion_backend(
                    self._successors, workers, shared_interning
                )
        return self._backend_instance

    def _distributed_active(self) -> bool:
        """Whether explorations actually run on node agents.

        ``nodes > 1`` with the default localhost transport needs the
        ``fork`` start method to launch agents; where it is unavailable
        (or inside a daemonic sweep worker, which may not have children)
        the engine silently falls back to the single-node path — the
        walk makes results bit-identical either way, exactly as for
        the serial expansion fallback.  An external coordinator's agents
        already exist, so that path never degrades.
        """
        if self.options.nodes <= 1:
            return False
        if self.options.transport not in (None, "tcp"):
            return True
        return process_backend_available()

    def _distributed(self):
        """The two-level distributed engine (created once, then reused).

        Like the expansion backend, it is engine-lifetime state: the
        localhost cluster (or the borrowed coordinator's lease) stays
        warm across successive explorations until :meth:`close`.
        """
        if self._distributed_instance is None:
            from repro.distributed.coordinator import DistributedEngine

            self._distributed_instance = DistributedEngine(
                self._successors,
                self.options,
                batch_size=self._batch_size,
                context=self._context,
                metrics=self._metrics,
            )
        return self._distributed_instance

    def close(self) -> None:
        """Release the expansion backend (idempotent).

        An owned backend's workers are shut down; a pool lease is
        released with its workers left warm; an owned distributed cluster
        is torn down (a borrowed coordinator stays connected).  The
        engine may be used again — the next exploration simply acquires
        a fresh backend or cluster.
        """
        backend, self._backend_instance = self._backend_instance, None
        if backend is not None:
            backend.close()
        distributed, self._distributed_instance = self._distributed_instance, None
        if distributed is not None:
            distributed.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- public entry points ---------------------------------------------------

    def explore(
        self,
        initial: Any,
        on_state: Callable[[Any, int], None] | None = None,
    ) -> SearchResult:
        """Explore every reachable state within the limits (merged result).

        ``on_state`` fires in global discovery order, exactly as under
        the single-shard engine.
        """
        return self._partitioned("explore", initial, None, on_state)[1]

    def explore_shards(self, initial: Any) -> list[SearchResult]:
        """The per-shard partial results of an exploration (one per shard).

        Each partial holds the states its shard owns, the parent links of
        those states (cross-shard parents marked ``-1``) and the edges
        generated from them.  Fold them with
        :meth:`SearchResult.merge_all` to recover the full exploration —
        this is exactly what :meth:`explore` returns.  Distributed
        engines keep their partials node-resident; use
        :meth:`explore` (merged) or the distributed engine's summary
        mode instead.
        """
        if self._distributed_active():
            raise SearchError(
                "explore_shards() is single-node only: distributed partials live on "
                "their node agents (use explore(), or DistributedEngine.explore_summary)"
            )
        transport = InProcessTransport(self._backend(), self.options.shards, self._batch_size)
        return collect_partials(transport, run_levels(transport, initial, self.options))

    def search(
        self,
        initial: Any,
        predicate: Callable[[Any], bool],
        on_state: Callable[[Any, int], None] | None = None,
    ) -> tuple[list | None, SearchResult]:
        """Search for a state satisfying ``predicate``.

        Same contract as :meth:`Engine.search`: returns
        ``(witness_path, merged_result)``; the parent map is maintained
        in every retention mode, and the breadth-first walk makes the
        witness minimal and identical to the single-shard one.
        ``on_state`` fires in global discovery order for each newly
        interned state, exactly as the single-shard engine fires it.
        """
        return self._partitioned("search", initial, predicate, on_state)

    def _partitioned(
        self,
        span: str,
        initial: Any,
        predicate: Callable[[Any], bool] | None,
        on_state: Callable[[Any, int], None] | None,
    ) -> tuple[list | None, SearchResult]:
        """:meth:`explore`/:meth:`search` on the node agents or in process."""
        if self._distributed_active():
            return self._distributed().search(initial, predicate, on_state=on_state)
        registry = resolve_metrics(self._metrics)
        record = registry if registry.enabled else None
        started = perf_counter()
        shards = self.options.shards
        with get_tracer().span(span, engine="sharded", shards=shards):
            transport = InProcessTransport(self._backend(), shards, self._batch_size, record)
            path, merged = search_partitions(
                transport, initial, self.options,
                predicate=predicate, on_state=on_state, record=record,
            )
        if record is not None:
            record.counter("engine_explorations_total", engine="sharded").inc()
            record.gauge("engine_depth_reached").high_water(merged.depth_reached)
            record.histogram("engine_explore_seconds", engine="sharded").observe(
                perf_counter() - started
            )
        return path, merged
