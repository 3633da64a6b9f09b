"""Per-partition parity between the two transports of the level loop.

:func:`repro.search.sharded.run_levels` drives in-process partitions
(``ShardedEngine(shards=k).explore_shards``) and TCP node agents
(``DistributedEngine(nodes=k)``) alike, so partition ``i`` must end up
with the same states, parent links (``-1`` cross markers included), edge
count and truncation flag under either transport — with and without a
``max_configurations`` cut inside a level, which exercises the probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.distributed import DistributedEngine
from repro.search import RETAIN_PARENTS, SearchLimits, ShardedEngine, process_backend_available
from repro.search.sharded import collect_partials, run_levels


@dataclass(frozen=True)
class Node:
    key: int


@dataclass(frozen=True)
class Edge:
    source: Node
    target: Node


def lattice_successors(node: Node):
    """A deterministic graph with heavy target sharing across sources."""
    if node.key >= 150:
        return []
    return [
        Edge(node, Node(node.key * 2 + 1)),
        Edge(node, Node(node.key * 2 + 2)),
        Edge(node, Node((node.key + 7) % 160)),
    ]


def partition_view(partial) -> tuple:
    """A partial in state terms: comparable across intern tables."""
    table = partial.interning
    parents = {
        table.state_of(target): (
            -1 if parent == -1 else table.state_of(parent),
            edge.source,
            edge.target,
        )
        for target, (parent, edge) in partial.parents.items()
    }
    return set(partial.states()), parents, partial.edge_count, partial.truncated


@pytest.mark.skipif(not process_backend_available(), reason="requires the fork start method")
@pytest.mark.parametrize(
    "limits",
    (SearchLimits(max_depth=7), SearchLimits(max_depth=7, max_configurations=23)),
    ids=("unbounded", "mid-level-state-cut"),
)
def test_in_process_and_tcp_partitions_agree(limits):
    in_process = ShardedEngine(
        lattice_successors, limits=limits, shards=2, retention=RETAIN_PARENTS
    ).explore_shards(Node(0))
    with DistributedEngine(
        lattice_successors, nodes=2, limits=limits, retention=RETAIN_PARENTS
    ) as engine:
        over_tcp = engine._on_nodes(
            lambda transport, record: collect_partials(
                transport,
                run_levels(transport, Node(0), limits=limits, retention=RETAIN_PARENTS),
            )
        )
    assert len(in_process) == len(over_tcp) == 2
    for local, remote in zip(in_process, over_tcp):
        assert partition_view(local) == partition_view(remote)
    cross = [parent for partial in in_process for parent, _ in partial.parents.values()]
    assert -1 in cross  # the lattice has cross-partition discoveries
    truncated = any(partial.truncated for partial in in_process)
    assert truncated == (limits.max_configurations == 23)
