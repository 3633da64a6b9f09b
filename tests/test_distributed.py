"""Tests for the two-level distributed exploration (:mod:`repro.distributed`).

The central contract: a multi-node exploration over real localhost TCP —
per-node intern tables, frontier exchange at level barriers, straggler
stealing — produces results **bit-identical** to single-node,
single-shard BFS on states, depths, edge counts, truncation flags,
verdicts and witnesses, for every node count and retention mode, with
and without shared-memory interning inside the nodes.

Also covered here: the satellite reconciliation tests for
:meth:`SearchResult.merge` across *distinct* intern tables with
overlapping states (witness parity, counts-only associativity under
3-way node merges), the transport's torn-frame semantics, the lease
contexts' picklability and the crash-respawn mapping.
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import struct
import time
from dataclasses import dataclass

import pytest

from repro.api import ExplorationOptions, run_reachability
from repro.casestudies.booking import booking_agency_system
from repro.distributed import (
    Channel,
    Coordinator,
    DistributedEngine,
    NodeCrashError,
    RecencyContext,
)
from repro.errors import DistributedError, SearchError
from repro.recency.explorer import RecencyExplorationLimits, RecencyExplorer
from repro.recency.semantics import enumerate_b_bounded_successors, initial_recency_configuration
from repro.search import (
    RETAIN_COUNTS,
    RETAIN_FULL,
    RETAIN_PARENTS,
    RETENTION_MODES,
    Engine,
    SearchLimits,
    SearchResult,
    ShardedEngine,
    process_backend_available,
)

needs_fork = pytest.mark.skipif(
    not process_backend_available(), reason="requires the fork start method"
)


# -- synthetic graphs ----------------------------------------------------------


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


def depth_map(result: SearchResult) -> dict:
    """``{state: depth}`` — comparable across different id spaces."""
    return {result.interning.state_of(i): d for i, d in result.depths.items()}


def assert_bit_identical(distributed: SearchResult, reference: SearchResult) -> None:
    assert set(distributed.states()) == set(reference.states())
    assert distributed.state_count == reference.state_count
    assert distributed.edge_count == reference.edge_count
    assert distributed.depth_reached == reference.depth_reached
    assert distributed.truncated == reference.truncated
    assert depth_map(distributed) == depth_map(reference)


# -- bit-identity across nodes, retention modes and transports -----------------


@needs_fork
@pytest.mark.parametrize("nodes", (2, 3))
@pytest.mark.parametrize("retention", RETENTION_MODES)
def test_distributed_explore_bit_identical(nodes, retention):
    limits = SearchLimits(max_depth=7)
    reference = Engine(lattice_successors, limits=limits, retention=retention).explore(Node(0))
    with DistributedEngine(
        lattice_successors, nodes=nodes, limits=limits, retention=retention
    ) as engine:
        merged = engine.explore(Node(0))
    assert_bit_identical(merged, reference)
    if retention == RETAIN_FULL:
        key = lambda e: (e.source.key, e.target.key)  # noqa: E731
        assert sorted(map(key, merged.edges)) == sorted(map(key, reference.edges))


@needs_fork
def test_distributed_discovery_order_is_single_shard_order():
    limits = SearchLimits(max_depth=7)
    reference_order: list = []
    Engine(lattice_successors, limits=limits, retention=RETAIN_COUNTS).explore(
        Node(0), on_state=lambda state, depth: reference_order.append((state, depth))
    )
    distributed_order: list = []
    with DistributedEngine(
        lattice_successors, nodes=2, limits=limits, retention=RETAIN_COUNTS
    ) as engine:
        engine.explore(
            Node(0), on_state=lambda state, depth: distributed_order.append((state, depth))
        )
    assert distributed_order == reference_order


@needs_fork
@pytest.mark.parametrize(
    "limits",
    (
        SearchLimits(max_depth=7, max_configurations=23),
        SearchLimits(max_depth=7, max_steps=31),
        SearchLimits(max_depth=7, max_configurations=10**6, max_steps=10**6),
    ),
    ids=("state-limit", "edge-limit", "unbounded"),
)
def test_distributed_truncation_cuts_match(limits):
    reference = Engine(lattice_successors, limits=limits, retention=RETAIN_COUNTS).explore(Node(0))
    with DistributedEngine(
        lattice_successors, nodes=2, limits=limits, retention=RETAIN_COUNTS
    ) as engine:
        merged = engine.explore(Node(0))
    assert_bit_identical(merged, reference)


@needs_fork
def test_distributed_search_witness_parity():
    limits = SearchLimits(max_depth=7)
    target = lambda node: node.key == 83  # noqa: E731
    path, reference = Engine(lattice_successors, limits=limits).search(Node(0), target)
    with DistributedEngine(lattice_successors, nodes=2, limits=limits) as engine:
        distributed_path, merged = engine.search(Node(0), target)
    assert path is not None and distributed_path is not None
    assert [(e.source, e.target) for e in distributed_path] == [
        (e.source, e.target) for e in path
    ]
    assert merged.edge_count == reference.edge_count

    # Root hit and miss behave like the single-shard engine too.
    never = lambda node: node.key == -1  # noqa: E731
    _, exhaustive = Engine(lattice_successors, limits=limits).search(Node(0), never)
    with DistributedEngine(lattice_successors, nodes=2, limits=limits) as engine:
        root_path, _ = engine.search(Node(0), lambda node: node.key == 0)
        assert root_path == []
        missing_path, stats = engine.search(Node(0), never)
        assert missing_path is None
        assert stats.state_count == exhaustive.state_count
        assert stats.edge_count == exhaustive.edge_count


@needs_fork
def test_distributed_small_batches_exercise_stealing():
    # One-state chunks drain the balanced queues unevenly, so the idle
    # node robs the straggler's tail through the fetch path; the replay
    # keeps the result independent of who expanded what.
    limits = SearchLimits(max_depth=7)
    reference = Engine(lattice_successors, limits=limits, retention=RETAIN_PARENTS).explore(Node(0))
    with DistributedEngine(
        lattice_successors, nodes=2, limits=limits, retention=RETAIN_PARENTS, batch_size=1
    ) as engine:
        merged = engine.explore(Node(0))
    assert_bit_identical(merged, reference)


@needs_fork
def test_distributed_engine_is_reusable_across_explorations():
    limits = SearchLimits(max_depth=6)
    with DistributedEngine(
        lattice_successors, nodes=2, limits=limits, retention=RETAIN_COUNTS
    ) as engine:
        first = engine.explore(Node(0))
        second = engine.explore(Node(0))
    assert set(first.states()) == set(second.states())
    assert first.edge_count == second.edge_count


@needs_fork
def test_distributed_summary_keeps_states_node_resident():
    limits = SearchLimits(max_depth=7)
    reference = Engine(lattice_successors, limits=limits, retention=RETAIN_COUNTS).explore(Node(0))
    with DistributedEngine(
        lattice_successors, nodes=2, limits=limits, retention=RETAIN_COUNTS
    ) as engine:
        summary = engine.explore_summary(Node(0))
    assert summary.states == reference.state_count
    assert summary.edges == reference.edge_count
    assert summary.depth_reached == reference.depth_reached
    assert summary.truncated == reference.truncated
    assert sum(summary.node_states) == summary.states
    assert summary.coordinator_states == 1  # only the pinned root
    assert summary.max_node_states < reference.state_count  # the ceiling moved


@needs_fork
def test_crash_respawn_reruns_bit_identically():
    limits = SearchLimits(max_depth=6)
    engine = DistributedEngine(
        lattice_successors, nodes=2, limits=limits, retention=RETAIN_COUNTS, retries=2
    )
    try:
        first = engine.explore(Node(0))
        victim = engine._launcher.agent_pids()[0]
        os.kill(victim, signal.SIGKILL)
        time.sleep(0.1)
        second = engine.explore(Node(0))  # detected, respawned, re-run
        assert set(second.states()) == set(first.states())
        assert second.edge_count == first.edge_count
    finally:
        engine.close()


@needs_fork
def test_crash_without_retries_raises():
    engine = DistributedEngine(
        lattice_successors, nodes=2, limits=SearchLimits(max_depth=6), retries=0
    )
    try:
        engine.explore(Node(0))
        os.kill(engine._launcher.agent_pids()[0], signal.SIGKILL)
        time.sleep(0.1)
        with pytest.raises(NodeCrashError):
            engine.explore(Node(0))
    finally:
        engine.close()


# -- threading through engines and explorers -----------------------------------


@needs_fork
def test_sharded_engine_nodes_knob_matches_single_shard():
    limits = SearchLimits(max_depth=7)
    reference = Engine(lattice_successors, limits=limits, retention=RETAIN_PARENTS).explore(Node(0))
    with ShardedEngine(
        lattice_successors, limits=limits, retention=RETAIN_PARENTS, nodes=2, shards=2
    ) as engine:
        assert engine.backend_name == "distributed"
        assert engine.nodes == 2
        merged = engine.explore(Node(0))
    assert_bit_identical(merged, reference)


def test_sharded_engine_rejects_non_bfs_and_partials_with_nodes():
    with pytest.raises(SearchError):
        ShardedEngine(lattice_successors, nodes=2, strategy="dfs")
    if process_backend_available():
        engine = ShardedEngine(lattice_successors, nodes=2)
        with pytest.raises(SearchError):
            engine.explore_shards(Node(0))
        engine.close()


def test_nodes_degrade_to_single_node_without_fork(monkeypatch):
    import repro.search.sharded as sharded_module

    monkeypatch.setattr(sharded_module, "process_backend_available", lambda: False)
    limits = SearchLimits(max_depth=6)
    reference = Engine(lattice_successors, limits=limits, retention=RETAIN_COUNTS).explore(Node(0))
    with ShardedEngine(
        lattice_successors, limits=limits, retention=RETAIN_COUNTS, nodes=2
    ) as engine:
        assert engine.backend_name != "distributed"
        merged = engine.explore(Node(0))
    assert_bit_identical(merged, reference)


@needs_fork
def test_booking_reachability_verdict_and_witness_across_nodes():
    booking = booking_agency_system()
    from repro.fol.parser import parse_query

    condition = parse_query("exists o. OAvail(o)")
    options = ExplorationOptions(max_depth=4)
    serial = run_reachability(booking, condition, bound=2, options=options)
    distributed = run_reachability(booking, condition, bound=2, options=options.replace(nodes=2))
    assert distributed.reachable == serial.reachable
    assert distributed.witness.steps == serial.witness.steps
    assert distributed.configurations_explored == serial.configurations_explored
    assert distributed.edges_explored == serial.edges_explored


@needs_fork
def test_booking_explorer_nodes_with_and_without_shm(monkeypatch):
    booking = booking_agency_system()
    limits = RecencyExplorationLimits(max_depth=4)
    reference = RecencyExplorer(booking, 2, limits, retention=RETAIN_COUNTS).explore()
    for no_shm in (False, True):
        if no_shm:
            monkeypatch.setenv("REPRO_NO_SHM", "1")
        with RecencyExplorer(
            booking, 2, limits, retention=RETAIN_COUNTS, nodes=2, workers=2
        ) as explorer:
            result = explorer.explore()
        assert result.configurations == reference.configurations
        assert result.edge_count == reference.edge_count
        assert result.truncated == reference.truncated


@needs_fork
def test_external_coordinator_transport_with_context():
    # Agents started independently (no fork inheritance): the lease
    # ships a picklable RecencyContext and the system crosses the wire.
    import subprocess
    import sys

    booking = booking_agency_system()
    coordinator = Coordinator(("127.0.0.1", 0))
    host, port = coordinator.address
    environment = dict(os.environ, PYTHONPATH="src")
    agents = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.harness", "--agent", "--coordinator", f"{host}:{port}"],
            env=environment,
            stdout=subprocess.DEVNULL,
        )
        for _ in range(2)
    ]
    try:
        coordinator.accept_nodes(2, timeout=60)
        limits = RecencyExplorationLimits(max_depth=3)
        reference = RecencyExplorer(booking, 2, limits, retention=RETAIN_COUNTS).explore()
        with RecencyExplorer(
            booking, 2, limits, retention=RETAIN_COUNTS, nodes=2, transport=coordinator
        ) as explorer:
            result = explorer.explore()
        assert result.configurations == reference.configurations
        assert result.edge_count == reference.edge_count
    finally:
        coordinator.close()
        for agent in agents:
            agent.wait(timeout=10)


@needs_fork
def test_external_coordinator_releases_between_different_contexts():
    # One long-lived coordinator, two explorations with *different*
    # successor semantics (bounds 1 and 2): the second engine must
    # re-lease, or the agents would silently keep expanding with the
    # first bound's context and return wrong counts.
    import subprocess
    import sys

    booking = booking_agency_system()
    coordinator = Coordinator(("127.0.0.1", 0))
    host, port = coordinator.address
    environment = dict(os.environ, PYTHONPATH="src")
    agents = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.harness", "--agent", "--coordinator", f"{host}:{port}"],
            env=environment,
            stdout=subprocess.DEVNULL,
        )
        for _ in range(2)
    ]
    try:
        coordinator.accept_nodes(2, timeout=60)
        limits = RecencyExplorationLimits(max_depth=3)
        for bound in (1, 2):
            reference = RecencyExplorer(
                booking, bound, limits, retention=RETAIN_COUNTS
            ).explore()
            with RecencyExplorer(
                booking, bound, limits, retention=RETAIN_COUNTS, nodes=2,
                transport=coordinator,
            ) as explorer:
                result = explorer.explore()
            assert result.configurations == reference.configurations, bound
            assert result.edge_count == reference.edge_count, bound
    finally:
        coordinator.close()
        for agent in agents:
            agent.wait(timeout=10)


def test_lease_contexts_pickle_and_rebuild_successors():
    booking = booking_agency_system()
    context = pickle.loads(pickle.dumps(RecencyContext(booking, 2)))
    initial = initial_recency_configuration(context.system)
    rebuilt = list(context.successors()(initial))
    direct = list(enumerate_b_bounded_successors(booking, initial, 2))
    assert [edge.target for edge in rebuilt] == [edge.target for edge in direct]


# -- transport framing ---------------------------------------------------------


def channel_pair() -> tuple[Channel, Channel]:
    left, right = socket.socketpair()
    return Channel(left), Channel(right)


def test_channel_round_trips_frames_and_preserves_partial_reads():
    sender, receiver = channel_pair()
    sender.send("greeting", {"payload": list(range(1000))})
    sender.send("second", None)
    assert receiver.recv(timeout=5.0) == ("greeting", {"payload": list(range(1000))})
    assert receiver.try_recv(timeout=0.0) == ("second", None)
    assert receiver.try_recv(timeout=0.0) is None  # nothing buffered, no block
    sender.close()
    receiver.close()


def test_torn_frame_raises_node_crash():
    left, right = socket.socketpair()
    receiver = Channel(right)
    payload = pickle.dumps(("oops", None))
    left.sendall(struct.pack("<I", len(payload)) + payload[: len(payload) // 2])
    left.close()  # the rest of the frame never arrives
    with pytest.raises(NodeCrashError, match="torn frame"):
        receiver.recv(timeout=5.0)
    receiver.close()


def test_clean_close_raises_node_crash_without_torn_bytes():
    sender, receiver = channel_pair()
    sender.close()
    with pytest.raises(NodeCrashError, match="connection closed"):
        receiver.recv(timeout=5.0)
    receiver.close()


def test_corrupt_length_prefix_is_rejected_before_allocation():
    left, right = socket.socketpair()
    receiver = Channel(right)
    left.sendall(struct.pack("<I", (1 << 30) + 1) + b"x" * 8)
    with pytest.raises(DistributedError, match="corrupt"):
        receiver.recv(timeout=5.0)
    left.close()
    receiver.close()


# -- SearchResult.merge reconciliation across distinct intern tables -----------


def explore_partial(root: Node, retention: str = RETAIN_PARENTS) -> SearchResult:
    """An independent exploration with its own intern table."""
    return Engine(
        lattice_successors, limits=SearchLimits(max_depth=4), retention=retention
    ).explore(root)


def test_merge_distinct_tables_with_overlapping_states():
    # Two explorations from different roots share a large region of the
    # lattice; each carries its own id space and its own parent links.
    left = explore_partial(Node(0))
    right = explore_partial(Node(1))
    overlap = set(left.states()) & set(right.states())
    assert overlap, "the fixture must overlap for this test to mean anything"
    merged = left.merge(right)
    assert set(merged.states()) == set(left.states()) | set(right.states())
    assert merged.edge_count == left.edge_count + right.edge_count
    # Conflicting discoveries resolve to the smaller depth, deterministically.
    left_depths, right_depths = depth_map(left), depth_map(right)
    merged_depths = depth_map(merged)
    for state in overlap:
        assert merged_depths[state] == min(left_depths[state], right_depths[state])


def test_merge_witness_parity_across_distinct_tables():
    # A witness reconstructed from the merged parent map must be a valid
    # root-to-state path of the same length the owning exploration found.
    left = explore_partial(Node(0))
    right = explore_partial(Node(1))
    merged = left.merge(right)
    target = Node(0 * 2 + 1)  # discovered by `left` at depth 1
    path = merged.path_to(target)
    own_path = left.path_to(target)
    assert len(path) == len(own_path)
    assert path[-1].target == target
    assert path[0].source == merged.initial
    for first, second in zip(path, path[1:]):
        assert first.target == second.source


def test_merge_counts_only_three_way_associativity():
    partials = [
        explore_partial(Node(0), RETAIN_COUNTS),
        explore_partial(Node(1), RETAIN_COUNTS),
        explore_partial(Node(2), RETAIN_COUNTS),
    ]
    a, b, c = partials
    left_fold = a.merge(b).merge(c)
    right_fold = a.merge(b.merge(c))
    assert set(left_fold.states()) == set(right_fold.states())
    assert left_fold.state_count == right_fold.state_count
    assert left_fold.edge_count == right_fold.edge_count
    assert left_fold.depth_reached == right_fold.depth_reached
    assert left_fold.truncated == right_fold.truncated
    assert depth_map(left_fold) == depth_map(right_fold)
    assert SearchResult.merge_all(partials).state_count == left_fold.state_count
