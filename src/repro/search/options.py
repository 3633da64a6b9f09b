"""The one exploration configuration shared by every engine and entry point.

:class:`ExplorationOptions` gathers every knob that shapes an
exploration: limits, frontier strategy, edge retention, and the
sharding/worker/node execution shape.  The engines
(:class:`~repro.search.engine.Engine`,
:class:`~repro.search.sharded.ShardedEngine`,
:class:`~repro.distributed.DistributedEngine`), the explorer
(:class:`~repro.recency.explorer.RecencyExplorer`), the facade
(:func:`repro.api.run_reachability`, :class:`repro.api.Session`), the
convergence sweeps and the service all take one options value whole,
and its constructor is the only place the knobs are validated.

Execution-shape knobs (``shards``/``workers``/``shared_interning``/
``nodes``/``transport``) never change verdicts or witnesses — they are
excluded from store keys for exactly that reason — so two options values
differing only there describe the same query.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, ClassVar

from repro.errors import SearchError
from repro.search.engine import RETAIN_PARENTS, RETENTION_MODES

__all__ = ["STRATEGIES", "ExplorationOptions"]

#: The frontier strategies (see :mod:`repro.search.frontier`).
STRATEGIES = ("bfs", "dfs", "best-first")


@dataclass(frozen=True)
class ExplorationOptions:
    """Everything that shapes one exploration, as a frozen value object.

    Attributes:
        max_depth: maximum action applications along any explored path.
        max_configurations: stop after this many distinct configurations.
        max_steps: stop after this many generated edges.
        strategy: frontier strategy — ``"bfs"`` (default, minimal
            witnesses), ``"dfs"`` or ``"best-first"`` (needs ``heuristic``).
        heuristic: ``heuristic(configuration, depth) -> comparable`` for
            the best-first strategy; queries carrying one bypass the
            content-addressed store (callables have no content address).
        retention: edge-retention mode — ``"parents-only"`` (default: one
            spanning-tree edge per configuration), ``"full"`` or
            ``"counts-only"``.
        shards: hash partitions of the sharded engine (per node when
            ``nodes > 1``).
        workers: successor-expansion worker processes (per node when
            ``nodes > 1``).
        shared_interning: ship intern ids instead of pickled
            configurations over expansion pipes (``None`` = auto).
        nodes: node agents of the two-level distributed engine.
        transport: distributed transport (``None``/``"tcp"``/a
            :class:`repro.distributed.Coordinator`).

    Raises:
        SearchError: on an unknown retention mode or strategy, a
            best-first strategy without a heuristic, or a shard, worker
            or node count below 1.
    """

    #: The fields that determine an exploration's result; store keys and
    #: sweep memo keys name exactly these (see :meth:`result_fields`).
    RESULT_FIELDS: ClassVar[tuple[str, ...]] = (
        "max_depth",
        "max_configurations",
        "max_steps",
        "strategy",
        "retention",
    )

    max_depth: int = 6
    max_configurations: int = 100_000
    max_steps: int = 500_000
    strategy: str = "bfs"
    heuristic: Callable | None = None
    retention: str = RETAIN_PARENTS
    shards: int = 1
    workers: int = 1
    shared_interning: bool | None = None
    nodes: int = 1
    transport: object = None

    def __post_init__(self) -> None:
        if self.retention not in RETENTION_MODES:
            raise SearchError(
                f"unknown edge-retention mode {self.retention!r}; expected one of {RETENTION_MODES}"
            )
        if self.strategy not in STRATEGIES:
            raise SearchError(
                f"unknown frontier strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        if self.strategy == "best-first" and self.heuristic is None:
            raise SearchError("the best-first strategy requires a heuristic(state, depth)")
        if min(self.shards, self.workers, self.nodes) < 1:
            raise SearchError("shards, workers and nodes must all be positive")

    @property
    def single_shard(self) -> bool:
        """Whether explorations run on the single-shard in-process engine.

        This is the only execution shape where a successor override can
        reach the engine, so it gates the store's subgraph capture and
        delta verification.
        """
        return self.shards == 1 and self.workers == 1 and self.nodes == 1

    def replace(self, **changes) -> "ExplorationOptions":
        """A copy with ``changes`` applied (the dataclass is frozen)."""
        return dataclasses.replace(self, **changes)

    def result_fields(self) -> dict:
        """``{name: value}`` of the :attr:`RESULT_FIELDS`, in that order."""
        return {name: getattr(self, name) for name in self.RESULT_FIELDS}
