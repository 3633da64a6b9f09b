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
from repro.errors import SearchError
from repro.recency.semantics import (
    RecencyBoundedRun,
    RecencyConfiguration,
    enumerate_b_bounded_successors,
    initial_recency_configuration,
)
from repro.search import (
    RETAIN_FULL,
    Engine,
    ExplorationOptions,
    SearchResult,
    ShardedEngine,
    iterate_paths,
)
from repro.store.canonical import system_hash

__all__ = ["RecencyExplorationResult", "RecencyExplorer", "iterate_b_bounded_runs"]


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
        options: the :class:`~repro.search.ExplorationOptions` of every
            exploration — limits, strategy, retention and execution
            shape.  With ``shards``, ``workers`` or ``nodes`` above 1 the
            exploration runs level-synchronously sharded (``"bfs"``
            only; two-level distributed with ``nodes > 1``) with results
            bit-identical to the single-shard engine (see
            :mod:`repro.search.sharded`); an external
            :class:`repro.distributed.Coordinator` as ``transport`` is
            shipped a picklable ``(system, bound)`` context
            automatically.
        pool: a :class:`repro.runtime.WorkerPool` to borrow warm
            expansion workers from (single-node sharded explorations
            only).  The pool context is keyed by the system's content
            hash and the bound, so explorers over equal systems — even
            distinct objects — share the same warm workers.
        successors: advanced — replace the canonical successor function
            with a semantics-equivalent callable: a bound sweep's
            labelled function, which serves each bound from one cache of
            steps labelled with their least recency bound
            (:mod:`repro.modelcheck.convergence`), and the result
            store's recording/delta wrappers around it or around the
            canonical function (:mod:`repro.store.capture`).
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
        options: ExplorationOptions,
        *,
        pool=None,
        successors: Callable | None = None,
    ) -> None:
        if successors is not None and not options.single_shard:
            raise SearchError(
                "a successors override applies to single-shard in-process "
                "explorations only (shards == workers == nodes == 1)"
            )
        self._successors_override = successors
        self._system = system
        self._bound = bound
        self.options = options
        self._pool = pool
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
        options = self.options
        if options.single_shard:
            self._engine_instance = Engine(self._successors_override or successors, options)
        else:
            # Workers forked for the sharded engine inherit the plans
            # compiled here instead of each compiling its own.
            system.compile_plans()
            context = None
            if options.nodes > 1:
                from repro.distributed.context import RecencyContext

                context = RecencyContext(system, bound)
            self._engine_instance = ShardedEngine(
                successors,
                options,
                pool=self._pool if options.nodes == 1 else None,
                pool_key=(
                    ("recency", system_hash(system), bound) if self._pool is not None else None
                ),
                context=context,
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
