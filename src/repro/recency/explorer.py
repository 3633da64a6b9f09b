"""Bounded exploration of the b-bounded (canonical) configuration graph.

The symbolic alphabet is finite, so the canonical b-bounded graph is
finitely branching; this explorer materialises its fragment up to a depth
bound.  It is the one explorer: ``bound=None`` explores the unbounded
graph ``C_S`` (see :mod:`repro.recency.semantics`), so it serves every
reachability query, the recency-bounded model checker and the
convergence experiments (E9).

The explorer is a thin adapter over the unified engine
(:mod:`repro.search`): configurations are hash-consed, the frontier
strategy and edge-retention mode are pluggable, and predicate search
reconstructs minimal witnesses from the engine's parent map instead of
threading run prefixes through the frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.dms.system import DMS
from repro.recency.semantics import (
    RecencyBoundedRun,
    RecencyConfiguration,
    enumerate_b_bounded_successors,
    initial_recency_configuration,
)
from repro.search import (
    RETAIN_FULL,
    Engine,
    SearchLimits,
    SearchResult,
    ShardedEngine,
    iterate_paths,
)

__all__ = ["RecencyExplorationLimits", "RecencyExplorationResult", "RecencyExplorer", "iterate_b_bounded_runs"]


@dataclass(frozen=True)
class RecencyExplorationLimits:
    """Limits bounding an exploration of ``C_S^b``."""

    max_depth: int = 6
    max_configurations: int = 100_000
    max_steps: int = 500_000

    def as_search_limits(self) -> SearchLimits:
        """The engine-level form of these limits."""
        return SearchLimits(
            max_depth=self.max_depth,
            max_configurations=self.max_configurations,
            max_steps=self.max_steps,
        )


@dataclass
class RecencyExplorationResult:
    """The explored fragment of the canonical b-bounded configuration graph."""

    bound: int | None
    initial: RecencyConfiguration
    configurations: set = field(default_factory=set)
    edges: list = field(default_factory=list)
    depth_reached: int = 0
    truncated: bool = False
    edges_generated: int = 0
    retention: str = RETAIN_FULL

    @classmethod
    def from_search(cls, bound: int | None, search: SearchResult) -> "RecencyExplorationResult":
        """Project an engine :class:`~repro.search.SearchResult`."""
        return cls(
            bound=bound,
            initial=search.initial,
            configurations=set(search.states()),
            edges=search.edges,
            depth_reached=search.depth_reached,
            truncated=search.truncated,
            edges_generated=search.edge_count,
            retention=search.retention,
        )

    @property
    def configuration_count(self) -> int:
        """Number of distinct configurations discovered."""
        return len(self.configurations)

    @property
    def edge_count(self) -> int:
        """Number of edges generated (independent of retention)."""
        return max(self.edges_generated, len(self.edges))


class RecencyExplorer:
    """Bounded explorer of the canonical b-bounded graph.

    Args:
        system: the DMS to explore.
        bound: the recency bound ``b``; ``None`` explores the unbounded
            graph ``C_S``.
        limits: depth/state/edge limits.
        strategy: frontier strategy — ``"bfs"`` (default), ``"dfs"`` or
            ``"best-first"`` (requires ``heuristic``).
        heuristic: ``heuristic(configuration, depth) -> comparable`` for
            the best-first strategy.
        retention: edge-retention mode — ``"full"`` (default),
            ``"parents-only"`` or ``"counts-only"``.
        shards: hash partitions of the sharded engine; with ``shards`` or
            ``workers`` above 1 the exploration runs level-synchronously
            sharded (``"bfs"`` only) with results bit-identical to the
            single-shard engine (see :mod:`repro.search.sharded`).
        workers: successor-expansion processes (1 = in-process serial).
        pool: a :class:`repro.runtime.WorkerPool` to borrow warm
            expansion workers from.  The pool context is keyed by
            ``(system, bound)``, so explorer instances over the same
            case-study context share the same warm workers.
        shared_interning: ship intern ids instead of pickled
            configurations over the expansion pipes
            (:mod:`repro.search.shm_interning`).  Default ``None``
            (auto): on exactly when expansion runs on worker processes
            and shared memory is available; the in-process fallback is
            always off.  Results are bit-identical either way.
        nodes: with ``nodes > 1`` the exploration runs two-level
            distributed (:mod:`repro.distributed`): each node agent
            owns the intern table of its hash-partition and
            ``shards``/``workers`` become per-node local configuration.
            Results stay bit-identical; ``pool`` is ignored.
        transport: ``None``/``"tcp"`` fork a localhost TCP cluster;
            pass a :class:`repro.distributed.Coordinator` to use
            externally started agents (the explorer ships them a
            picklable ``(system, bound)`` context automatically).
        successors: advanced — replace the canonical successor function
            with a semantics-equivalent callable (the result store's
            recording/delta wrappers, :mod:`repro.store.capture`).
            Single-shard in-process explorations only.

    The underlying engine is created once per explorer, so successive
    explorations through one explorer reuse the same expansion backend
    (warm worker processes).  The explorer is a context manager;
    :meth:`close` releases the backend.
    """

    def __init__(
        self,
        system: DMS,
        bound: int | None,
        limits: RecencyExplorationLimits | None = None,
        *,
        strategy: str = "bfs",
        heuristic: Callable[[RecencyConfiguration, int], object] | None = None,
        retention: str = RETAIN_FULL,
        shards: int = 1,
        workers: int = 1,
        pool=None,
        shared_interning: bool | None = None,
        nodes: int = 1,
        transport=None,
        successors: Callable | None = None,
    ) -> None:
        if successors is not None and (shards > 1 or workers > 1 or nodes > 1):
            from repro.errors import SearchError

            raise SearchError(
                "a successors override applies to single-shard in-process "
                "explorations only (shards == workers == nodes == 1)"
            )
        self._successors_override = successors
        self._system = system
        self._bound = bound
        self._limits = limits or RecencyExplorationLimits()
        self._strategy = strategy
        self._heuristic = heuristic
        self._retention = retention
        self._shards = shards
        self._workers = workers
        self._pool = pool
        self._shared_interning = shared_interning
        self._nodes = nodes
        self._transport = transport
        self._engine_instance = None

    @property
    def system(self) -> DMS:
        """The explored system."""
        return self._system

    @property
    def bound(self) -> int | None:
        """The recency bound ``b`` (``None`` for the unbounded graph)."""
        return self._bound

    @property
    def limits(self) -> RecencyExplorationLimits:
        """The exploration limits."""
        return self._limits

    @property
    def strategy(self) -> str:
        """The frontier strategy in use."""
        return self._strategy

    @property
    def retention(self) -> str:
        """The edge-retention mode in use."""
        return self._retention

    @property
    def shards(self) -> int:
        """Number of hash partitions of the sharded engine."""
        return self._shards

    @property
    def workers(self) -> int:
        """Number of successor-expansion workers."""
        return self._workers

    @property
    def nodes(self) -> int:
        """Number of distributed node agents (1 = this process only)."""
        return self._nodes

    @property
    def backend_name(self) -> str:
        """The expansion backend explorations will use.

        ``"in-process"`` for the single-shard engine, ``"serial"`` or
        ``"process"`` for the sharded engine's fallback/multiprocessing
        backends, ``"distributed"`` across node agents.
        """
        return getattr(self._engine(), "backend_name", "in-process")

    @property
    def shared_interning(self) -> bool:
        """Whether explorations move ids instead of pickled states."""
        return getattr(self._engine(), "shared_interning", False)

    def _engine(self):
        if self._engine_instance is not None:
            return self._engine_instance
        system, bound = self._system, self._bound
        successors = lambda configuration: enumerate_b_bounded_successors(  # noqa: E731
            system, configuration, bound
        )
        if self._shards > 1 or self._workers > 1 or self._nodes > 1:
            context = None
            if self._nodes > 1:
                from repro.distributed.context import RecencyContext

                context = RecencyContext(system, bound)
            self._engine_instance = ShardedEngine(
                successors=successors,
                limits=self._limits.as_search_limits(),
                strategy=self._strategy,
                retention=self._retention,
                shards=self._shards,
                workers=self._workers,
                pool=self._pool if self._nodes == 1 else None,
                pool_key=("recency", id(system), bound) if self._pool is not None else None,
                shared_interning=self._shared_interning,
                nodes=self._nodes,
                transport=self._transport,
                context=context,
            )
        else:
            self._engine_instance = Engine(
                successors=self._successors_override or successors,
                limits=self._limits.as_search_limits(),
                strategy=self._strategy,
                heuristic=self._heuristic,
                retention=self._retention,
            )
        return self._engine_instance

    def close(self) -> None:
        """Release the engine's expansion backend (idempotent)."""
        engine, self._engine_instance = self._engine_instance, None
        if engine is not None and hasattr(engine, "close"):
            engine.close()

    def __enter__(self) -> "RecencyExplorer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def explore(
        self, on_configuration: Callable[[RecencyConfiguration, int], None] | None = None
    ) -> RecencyExplorationResult:
        """Exploration up to the configured limits."""
        search = self._engine().explore(
            initial_recency_configuration(self._system), on_state=on_configuration
        )
        return RecencyExplorationResult.from_search(self._bound, search)

    def find_configuration(
        self,
        predicate: Callable[[RecencyConfiguration], bool],
        on_configuration: Callable[[RecencyConfiguration, int], None] | None = None,
    ) -> tuple[RecencyBoundedRun | None, RecencyExplorationResult]:
        """Search for a configuration satisfying ``predicate``.

        Returns a witnessing b-bounded run prefix (or ``None``) plus
        exploration statistics.  Under the default breadth-first strategy
        the witness is minimal; it is reconstructed from the engine's
        parent map.  ``on_configuration`` fires with each newly
        discovered configuration and its depth, in discovery order.
        """
        path, search = self._engine().search(
            initial_recency_configuration(self._system), predicate, on_configuration
        )
        result = RecencyExplorationResult.from_search(self._bound, search)
        if path is None:
            return None, result
        return RecencyBoundedRun(self._bound, result.initial, path), result


def iterate_b_bounded_runs(
    system: DMS, bound: int | None, depth: int, max_runs: int | None = None
) -> Iterator[RecencyBoundedRun]:
    """Enumerate canonical b-bounded run prefixes of up to ``depth`` steps.

    A prefix is yielded when it reaches ``depth`` steps or ends in a
    configuration with no b-bounded successor (dead end); ``bound=None``
    enumerates the prefixes of the unbounded graph.  The traversal uses
    the engine's explicit stack, so depths well beyond the interpreter
    recursion limit (≥ 2000) are supported.
    """
    initial = initial_recency_configuration(system)
    for steps in iterate_paths(
        initial,
        lambda configuration: enumerate_b_bounded_successors(system, configuration, bound),
        depth,
        max_runs,
    ):
        yield RecencyBoundedRun(bound, initial, steps)
