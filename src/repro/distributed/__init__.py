"""Two-level distributed exploration over TCP node agents.

This package lifts the exploration engine's single-machine memory
ceiling: it runs the sharded engine's one level loop
(:func:`repro.search.sharded.run_levels`) with every partition on its own
**node agent**, which owns the intern table, shared-memory state store
and partial :class:`~repro.search.engine.SearchResult` of its
hash-partition of the state space, while the coordinator keeps only
frontier *references* and counters.  Per-node partials are reconciled
through the associative :meth:`SearchResult.merge
<repro.search.engine.SearchResult.merge>`, which re-keys parent links
across node-local id spaces.

The moving parts:

* :mod:`~repro.distributed.transport` — length-prefixed pickle frames
  with strict torn-frame semantics;
* :class:`~repro.distributed.coordinator.Coordinator` — listener,
  ``hello``/``lease`` handshake, ping/pong heartbeats;
* :class:`~repro.distributed.agent.NodeAgent` — a frame loop around
  one :class:`~repro.search.sharded.Partition`;
* :class:`~repro.distributed.coordinator.TcpTransport` — the level
  loop's transport over the agents, with fetch-based stealing;
* :class:`~repro.distributed.coordinator.DistributedEngine` — cluster
  lifecycle and crash recovery around the level loop, whose results are
  **bit-identical** to single-node, single-shard BFS;
* :class:`~repro.distributed.launcher.LocalCluster` — forks localhost
  agents over real TCP so CI needs no cluster.

Most callers never touch this package directly: pass ``nodes=2`` (and
optionally ``transport=``) to :class:`~repro.search.sharded.ShardedEngine`,
:class:`~repro.recency.explorer.RecencyExplorer`, or through
:class:`~repro.api.ExplorationOptions` to
:func:`~repro.api.run_reachability` and the convergence sweeps — or use
the harness CLI.  See ``docs/distributed.md`` for
the wire format, the failure semantics and a deployment recipe.
"""

from repro.distributed.agent import NodeAgent, run_agent
from repro.distributed.context import (
    CallableContext,
    ExplorationContext,
    RecencyContext,
)
from repro.distributed.coordinator import (
    Coordinator,
    DistributedEngine,
    DistributedSummary,
    NodeHandle,
    TcpTransport,
)
from repro.distributed.launcher import LocalCluster
from repro.distributed.transport import Channel, PROTOCOL_VERSION
from repro.errors import DistributedError, NodeCrashError

__all__ = [
    "CallableContext",
    "Channel",
    "Coordinator",
    "DistributedEngine",
    "DistributedError",
    "DistributedSummary",
    "ExplorationContext",
    "LocalCluster",
    "NodeAgent",
    "NodeCrashError",
    "NodeHandle",
    "PROTOCOL_VERSION",
    "RecencyContext",
    "TcpTransport",
    "run_agent",
]
