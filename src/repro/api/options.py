"""The one options surface shared by every exploration entry point.

:class:`ExplorationOptions` gathers the knobs that the explorers, the
reachability queries and the convergence sweeps used to re-declare
individually: limits, frontier strategy, edge retention, and the
sharding/worker/node execution shape.  The facade
(:func:`repro.api.run_reachability`, :class:`repro.api.Session`), the
convergence sweeps and the service layer pass one options value around
instead of a dozen keyword arguments.

Execution-shape knobs (``shards``/``workers``/``shared_interning``/
``nodes``/``transport``) never change verdicts or witnesses — they are
excluded from store keys for exactly that reason — so two options values
differing only there describe the same query.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.recency.explorer import RecencyExplorationLimits, RecencyExplorer
from repro.search import RETAIN_PARENTS

__all__ = ["ExplorationOptions"]


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
        retention: edge-retention mode — ``"parents-only"`` (default for
            queries: one spanning-tree edge per configuration), ``"full"``
            or ``"counts-only"``.
        shards: hash partitions of the sharded engine.
        workers: successor-expansion worker processes per exploration.
        shared_interning: ship intern ids instead of pickled
            configurations over expansion pipes (``None`` = auto).
        nodes: node agents of the two-level distributed engine.
        transport: distributed transport (``None``/``"tcp"``/a
            :class:`repro.distributed.Coordinator`).
    """

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

    def recency_limits(self) -> RecencyExplorationLimits:
        """These limits as exploration limits (any bound, ``None`` included)."""
        return RecencyExplorationLimits(
            max_depth=self.max_depth,
            max_configurations=self.max_configurations,
            max_steps=self.max_steps,
        )

    def explorer(self, system, bound: int | None, *, pool=None, successors=None) -> RecencyExplorer:
        """An explorer of ``system`` at ``bound`` shaped by these options.

        ``pool`` lends warm expansion workers to sharded explorations;
        ``successors`` overrides the successor function (the store's
        capture and delta paths).
        """
        return RecencyExplorer(
            system,
            bound,
            self.recency_limits(),
            strategy=self.strategy,
            heuristic=self.heuristic,
            retention=self.retention,
            shards=self.shards,
            workers=self.workers,
            pool=pool,
            shared_interning=self.shared_interning,
            nodes=self.nodes,
            transport=self.transport,
            successors=successors,
        )
