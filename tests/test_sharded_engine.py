"""Tests for sharded work-stealing exploration (:mod:`repro.search.sharded`).

The central contract: the merged :class:`~repro.search.SearchResult` of a
k-shard exploration is bit-identical to the single-shard breadth-first
engine's on the visited set, edge counts, truncation flags, verdicts and
reconstructed witnesses — for every shard count, retention mode and
expansion backend.  Also covers the associativity and truncation
semantics of :meth:`SearchResult.merge`, the tail-half stealing policy
of :class:`ShardFrontiers`, and the multiprocessing backend (where the
platform supports fork).

Set ``REPRO_TEST_SHARDS`` to add a shard count to the determinism matrix
(used by the CI sharded matrix job).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExplorationOptions, run_reachability
from repro.casestudies.booking import booking_agency_system
from repro.dms.builder import DMSBuilder
from repro.errors import SearchError
from repro.modelcheck import Verdict
from repro.recency.explorer import RecencyExplorer
from repro.recency.semantics import (
    enumerate_b_bounded_successors,
    initial_recency_configuration,
)
from repro.search import (
    RETAIN_COUNTS,
    RETAIN_FULL,
    RETAIN_PARENTS,
    RETENTION_MODES,
    Engine,
    ExplorationOptions,
    SearchResult,
    ShardedEngine,
    ShardFrontiers,
    process_backend_available,
)
from repro.workloads.generators import RandomDMSParameters, random_dms

SHARD_COUNTS = (1, 2, 4)
_extra = os.environ.get("REPRO_TEST_SHARDS", "")
if _extra.isdigit() and int(_extra) not in SHARD_COUNTS:
    SHARD_COUNTS = SHARD_COUNTS + (int(_extra),)


# -- synthetic graphs ----------------------------------------------------------


@dataclass(frozen=True)
class Node:
    key: int


@dataclass(frozen=True)
class Edge:
    source: Node
    target: Node


def graph_successors(adjacency: dict):
    def successors(node: Node):
        return [Edge(node, Node(child)) for child in adjacency.get(node.key, ())]

    return successors


#         0
#       / | \
#      1  2  3
#      |  |  |
#      4  5  4   (4 reachable through 1 and 3)
DAG = {0: [1, 2, 3], 1: [4], 2: [5], 3: [4], 4: [6], 5: [6]}


def tiny_system():
    """A three-action DMS small enough for exhaustive comparisons."""
    builder = DMSBuilder("tiny-sharded")
    builder.relations(("R", 1), ("Q", 1), ("p", 0))
    builder.initially("p")
    builder.action("produce", fresh=("x",), guard="p", add=[("R", "x")])
    builder.action("promote", parameters=("x",), guard="R(x)", add=[("Q", "x")], delete=[("R", "x")])
    builder.action("stop", guard="p", delete=[("p",)])
    return builder.build()


def retain_full(**fields) -> ExplorationOptions:
    """Options that keep every generated edge (``retention="full"``)."""
    return ExplorationOptions(retention=RETAIN_FULL, **fields)


def _recency_successors(system, bound):
    return lambda configuration: enumerate_b_bounded_successors(system, configuration, bound)


def assert_results_identical(reference: SearchResult, merged: SearchResult, *, witnesses=True):
    """Bit-identical on visited set, counters, flags and witnesses."""
    assert set(merged.states()) == set(reference.states())
    assert merged.state_count == reference.state_count
    assert merged.edge_count == reference.edge_count
    assert merged.depth_reached == reference.depth_reached
    assert merged.truncated == reference.truncated
    assert len(merged.edges) == len(reference.edges)
    if witnesses and reference.parents:
        for state in reference.states():
            assert merged.path_to(state) == reference.path_to(state)


# -- determinism matrix: merged k-shard result == single-shard BFS -------------


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("retention", RETENTION_MODES)
def test_sharded_matches_single_shard_on_case_study(shards, retention):
    system = booking_agency_system()
    successors = _recency_successors(system, 2)
    initial = initial_recency_configuration(system)
    options = ExplorationOptions(max_depth=4, retention=retention)
    reference = Engine(successors, options).explore(initial)
    merged = ShardedEngine(successors, options.replace(shards=shards)).explore(initial)
    assert_results_identical(reference, merged)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_search_returns_identical_witness(shards):
    system = tiny_system()
    successors = _recency_successors(system, 2)
    initial = initial_recency_configuration(system)
    options = ExplorationOptions(max_depth=5, retention=RETAIN_PARENTS)

    def two_promoted(configuration):
        return len(configuration.instance.relation_rows("Q")) >= 2

    reference_path, reference = Engine(successors, options).search(initial, two_promoted)
    sharded_path, merged = ShardedEngine(successors, options.replace(shards=shards)).search(
        initial, two_promoted
    )
    assert reference_path is not None
    assert sharded_path == reference_path
    assert_results_identical(reference, merged, witnesses=False)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=40),
    shards=st.sampled_from([k for k in SHARD_COUNTS if k > 1]),
    retention=st.sampled_from(RETENTION_MODES),
)
def test_sharded_matches_single_shard_on_random_systems(seed, shards, retention):
    system = random_dms(seed, RandomDMSParameters(relations=2, max_arity=2, actions=3))
    successors = _recency_successors(system, 2)
    initial = initial_recency_configuration(system)
    options = ExplorationOptions(max_depth=3, retention=retention)
    reference = Engine(successors, options).explore(initial)
    merged = ShardedEngine(successors, options.replace(shards=shards)).explore(initial)
    assert_results_identical(reference, merged)


def test_sharded_truncation_is_bit_identical():
    system = booking_agency_system()
    successors = _recency_successors(system, 2)
    initial = initial_recency_configuration(system)
    options = ExplorationOptions(max_depth=6, max_configurations=90, retention=RETAIN_PARENTS)
    reference = Engine(successors, options).explore(initial)
    assert reference.truncated
    for shards in SHARD_COUNTS:
        merged = ShardedEngine(successors, options.replace(shards=shards)).explore(initial)
        assert_results_identical(reference, merged)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_zero_step_limit_stops_after_the_first_edge(shards):
    # The edge limit is checked after an edge is counted, so max_steps=0
    # still generates the root's first edge and stops there: the rest of
    # the root's level — here the search target — is never reached.
    options = retain_full(max_depth=5, max_steps=0)
    reference = Engine(graph_successors(DAG), options).explore(Node(0))
    assert reference.truncated
    assert (reference.state_count, reference.edge_count) == (2, 1)
    merged = ShardedEngine(graph_successors(DAG), options.replace(shards=shards)).explore(Node(0))
    assert_results_identical(reference, merged)

    def second_successor(node):
        return node.key == 2

    reference_path, reference = Engine(graph_successors(DAG), options).search(
        Node(0), second_successor
    )
    assert reference_path is None and reference.truncated
    sharded_path, merged = ShardedEngine(
        graph_successors(DAG), options.replace(shards=shards)
    ).search(Node(0), second_successor)
    assert sharded_path is None
    assert_results_identical(reference, merged)


def test_on_state_callback_fires_in_discovery_order():
    reference: list = []
    Engine(graph_successors(DAG), retain_full(max_depth=5)).explore(
        Node(0), on_state=lambda node, depth: reference.append((node.key, depth))
    )
    sharded: list = []
    ShardedEngine(graph_successors(DAG), retain_full(max_depth=5, shards=3)).explore(
        Node(0), on_state=lambda node, depth: sharded.append((node.key, depth))
    )
    assert sharded == reference


# -- per-shard partials and merge ----------------------------------------------


def test_explore_shards_partition_states_and_merge_back():
    engine = ShardedEngine(graph_successors(DAG), retain_full(max_depth=5, shards=3))
    partials = engine.explore_shards(Node(0))
    assert len(partials) == 3
    keys = [frozenset(node.key for node in partial.states()) for partial in partials]
    all_keys = [key for shard_keys in keys for key in shard_keys]
    assert len(all_keys) == len(set(all_keys))  # ownership is a partition
    assert set(all_keys) == set(range(7))
    merged = SearchResult.merge_all(partials)
    reference = Engine(graph_successors(DAG), retain_full(max_depth=5)).explore(Node(0))
    assert_results_identical(reference, merged)


def test_pairwise_merge_never_invents_visited_states():
    # Merging two of three partials must union exactly their own states —
    # a cross-shard parent source owned by the third shard stays a -1
    # marker instead of being interned into the visited set.
    engine = ShardedEngine(graph_successors(DAG), retain_full(max_depth=5, shards=3))
    a, b, c = engine.explore_shards(Node(0))
    partial_union = a.merge(b)
    assert set(partial_union.states()) == set(a.states()) | set(b.states())
    full = partial_union.merge(c)
    reference = Engine(graph_successors(DAG), retain_full(max_depth=5)).explore(Node(0))
    assert_results_identical(reference, full)
    # After the full fold no cross-shard marker survives.
    assert all(parent_id >= 0 for parent_id, _ in full.parents.values())


def test_merge_is_associative_over_shard_partials():
    engine = ShardedEngine(graph_successors(DAG), retain_full(max_depth=5, shards=3))
    a, b, c = engine.explore_shards(Node(0))
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert set(left.states()) == set(right.states())
    assert left.edge_count == right.edge_count
    assert left.depth_reached == right.depth_reached
    assert left.truncated == right.truncated
    for state in left.states():
        if state != left.initial:
            assert left.path_to(state) == right.path_to(state)


def test_merge_with_empty_partial_is_identity_on_content():
    # A shard that owned no states contributes an empty partial; merging
    # it in (either side) must not change the content of the result.
    engine = ShardedEngine(graph_successors(DAG), retain_full(max_depth=5, shards=2))
    full = engine.explore(Node(0))
    empty = SearchResult(initial=Node(0), retention=full.retention)
    for merged in (full.merge(empty), empty.merge(full)):
        assert set(merged.states()) == set(full.states())
        assert merged.state_count == full.state_count
        assert merged.edge_count == full.edge_count
        assert merged.depth_reached == full.depth_reached
        assert merged.truncated == full.truncated
        for state in full.states():
            if state != full.initial:
                assert merged.path_to(state) == full.path_to(state)
    both_empty = empty.merge(SearchResult(initial=Node(0)))
    assert both_empty.state_count == 0 and both_empty.edge_count == 0


def test_merge_results_with_disjoint_intern_tables():
    # Two explorations of disjoint graphs: the merged table re-keys both
    # id ranges (each partial numbers its states 0..n-1 locally).
    left_adjacency = {0: [1, 2]}
    right_adjacency = {10: [11], 11: [12]}
    left = Engine(graph_successors(left_adjacency), retain_full(max_depth=3)).explore(Node(0))
    right = Engine(graph_successors(right_adjacency), retain_full(max_depth=3)).explore(Node(10))
    assert not set(left.states()) & set(right.states())
    merged = left.merge(right)
    assert set(merged.states()) == set(left.states()) | set(right.states())
    assert merged.state_count == left.state_count + right.state_count
    assert merged.edge_count == left.edge_count + right.edge_count
    assert merged.depth_reached == max(left.depth_reached, right.depth_reached)
    # Parent links survived the re-keying on both sides of the union.
    assert merged.path_to(Node(2)) == left.path_to(Node(2))
    merged.initial = Node(10)  # address the right-hand component's root
    assert merged.path_to(Node(12)) == right.path_to(Node(12))


def test_merge_is_associative_under_counts_only_retention():
    # counts-only partials carry no parent links; the fold must still be
    # associative on states, counters and flags.
    counts = ExplorationOptions(max_depth=5, retention=RETAIN_COUNTS)
    engine = ShardedEngine(graph_successors(DAG), counts.replace(shards=3))
    a, b, c = engine.explore_shards(Node(0))
    assert not a.parents and not b.parents and not c.parents
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert set(left.states()) == set(right.states())
    assert left.state_count == right.state_count
    assert left.edge_count == right.edge_count
    assert left.depth_reached == right.depth_reached
    assert left.truncated == right.truncated
    assert left.parents == {} and right.parents == {}
    reference = Engine(graph_successors(DAG), counts).explore(Node(0))
    assert set(left.states()) == set(reference.states())
    assert left.edge_count == reference.edge_count


def test_merge_ors_truncation_flags():
    base = SearchResult(initial=Node(0), retention=RETAIN_PARENTS)
    base.interning.intern(Node(0))
    base.depths[0] = 0
    truncated = SearchResult(initial=Node(0), retention=RETAIN_PARENTS, truncated=True)
    truncated.interning.intern(Node(0))
    truncated.depths[0] = 0
    assert not base.merge(base).truncated
    assert base.merge(truncated).truncated  # any-shard truncation wins
    assert truncated.merge(base).truncated


def test_merge_rejects_mismatched_retention():
    full = SearchResult(initial=Node(0), retention=RETAIN_FULL)
    counts = SearchResult(initial=Node(0), retention=RETAIN_COUNTS)
    with pytest.raises(SearchError):
        full.merge(counts)
    with pytest.raises(SearchError):
        SearchResult.merge_all([])


def test_partial_results_refuse_cross_shard_witnesses():
    engine = ShardedEngine(graph_successors(DAG), retain_full(max_depth=5, shards=3))
    partials = engine.explore_shards(Node(0))
    cross = [
        (partial, state_id)
        for partial in partials
        for state_id, (parent_id, _) in partial.parents.items()
        if parent_id == -1
    ]
    assert cross, "expected at least one cross-shard parent link in the DAG partition"
    partial, state_id = cross[0]
    with pytest.raises(SearchError):
        partial.path_to_id(state_id)


# -- reachability verdicts through the sharded path ----------------------------


@pytest.mark.parametrize("shards", [k for k in SHARD_COUNTS if k > 1])
def test_sharded_reachability_verdicts_match(shards):
    system = tiny_system()
    options = ExplorationOptions(max_depth=3)
    reference = run_reachability(system, "p", bound=2, options=options)
    sharded = run_reachability(system, "p", bound=2, options=options.replace(shards=shards))
    assert sharded.reachable == reference.reachable == Verdict.HOLDS
    assert sharded.configurations_explored == reference.configurations_explored


def test_sharded_truncation_reports_unknown_never_fails():
    system = booking_agency_system()
    options = ExplorationOptions(max_depth=5, max_configurations=40)
    from repro.fol.parser import parse_query

    condition = parse_query("exists x. BFinalized(x)")
    reference = run_reachability(system, condition, bound=2, options=options)
    sharded = run_reachability(system, condition, bound=2, options=options.replace(shards=4))
    assert reference.reachable is Verdict.UNKNOWN
    assert sharded.reachable is Verdict.UNKNOWN


# -- shard frontiers and work stealing -----------------------------------------


def test_shard_frontiers_steal_tail_half_of_fullest_queue():
    frontiers = ShardFrontiers(3)
    for item in range(8):
        frontiers.push(0, item)  # one hot shard
    frontiers.push(1, "x")
    assert len(frontiers) == 9
    # Shard 2 drained: it steals the tail half (4 items) of shard 0.
    batch = frontiers.take_batch(2, size=2)
    assert batch == [4, 5]  # tail half [4..7], served in original order
    assert frontiers.take_batch(2, size=2) == [6, 7]
    # The victim keeps its head intact.
    assert frontiers.take_batch(0, size=4) == [0, 1, 2, 3]
    assert frontiers.take_batch(1, size=4) == ["x"]
    assert frontiers.take_batch(1, size=4) == []  # everything drained
    assert not frontiers


def test_shard_frontiers_steal_at_least_one_entry():
    frontiers = ShardFrontiers(2)
    frontiers.push(0, "only")
    assert frontiers.take_batch(1, size=3) == ["only"]
    assert len(frontiers) == 0


# -- backends ------------------------------------------------------------------


def test_sharded_engine_rejects_non_bfs_and_bad_parameters():
    successors = graph_successors(DAG)
    with pytest.raises(SearchError):
        ShardedEngine(successors, ExplorationOptions(strategy="dfs", shards=2))
    with pytest.raises(SearchError):
        ExplorationOptions(shards=0)
    with pytest.raises(SearchError):
        ExplorationOptions(workers=0)
    with pytest.raises(SearchError):
        ExplorationOptions(nodes=0)
    with pytest.raises(SearchError):
        ShardedEngine(successors, ExplorationOptions(), batch_size=0)
    with pytest.raises(SearchError):
        ExplorationOptions(retention="sometimes")


@pytest.mark.skipif(not process_backend_available(), reason="fork start method unavailable")
def test_engine_reuses_worker_pids_across_explorations():
    # Regression for the per-call overhead bug: the process pool used to
    # be created and destroyed inside every explore() call.  Backend
    # lifetime is now the engine's lifetime, so two successive
    # explorations must be served by the *same* worker processes.
    engine = ShardedEngine(graph_successors(DAG), retain_full(max_depth=5, shards=2, workers=2))
    try:
        first = engine.explore(Node(0))
        pids_first = engine._backend().worker_pids()
        second = engine.explore(Node(0))
        pids_second = engine._backend().worker_pids()
        assert pids_first == pids_second and len(pids_first) == 2
        assert set(first.states()) == set(second.states())
        assert first.edge_count == second.edge_count
    finally:
        engine.close()
    # close() releases the backend; the next exploration builds a fresh one.
    third = engine.explore(Node(0))
    assert set(third.states()) == set(first.states())
    engine.close()


@pytest.mark.skipif(not process_backend_available(), reason="fork start method unavailable")
def test_engine_context_manager_closes_backend():
    with ShardedEngine(
        graph_successors(DAG), retain_full(max_depth=5, shards=2, workers=2)
    ) as engine:
        engine.explore(Node(0))
        assert engine._backend_instance is not None
    assert engine._backend_instance is None


@pytest.mark.skipif(not process_backend_available(), reason="fork start method unavailable")
def test_process_backend_matches_serial_backend():
    system = tiny_system()
    initial = initial_recency_configuration(system)
    options = ExplorationOptions(max_depth=4, retention=RETAIN_PARENTS)
    explorer = RecencyExplorer(system, 2, options)
    reference = Engine(_recency_successors(system, 2), options).explore(initial)
    parallel = ShardedEngine(
        _recency_successors(system, 2), options.replace(shards=2, workers=2), batch_size=4
    )
    assert parallel.backend_name == "process"
    merged = parallel.explore(initial)
    assert_results_identical(reference, merged)
    assert explorer.explore().configuration_count == merged.state_count


@pytest.mark.parametrize("shards,workers", [(2, 1), (3, 1)])
def test_explorer_adapters_route_through_sharded_engine(shards, workers):
    system = tiny_system()
    options = retain_full(max_depth=4)
    baseline = RecencyExplorer(system, 2, options)
    sharded = RecencyExplorer(system, 2, options.replace(shards=shards, workers=workers))
    assert isinstance(sharded._engine(), ShardedEngine)
    reference = baseline.explore()
    merged = sharded.explore()
    assert merged.configurations == reference.configurations
    assert merged.edge_count == reference.edge_count
    assert merged.truncated == reference.truncated
