"""Tests for the unified exploration engine (:mod:`repro.search`).

Covers the visit-order contracts of the pluggable frontiers, the
hash-consing guarantees of the intern table, the equivalence of the
memory modes on witness reconstruction, differential equality against
the frozen seed explorer (:mod:`repro.search.baseline`), and the
explicit-stack path enumeration at depths far beyond the interpreter
recursion limit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import pytest

from repro.casestudies.booking import booking_agency_system
from repro.dms.builder import DMSBuilder
from repro.errors import SearchError
from repro.recency.explorer import RecencyExplorer, iterate_b_bounded_runs
from repro.search import (
    RETAIN_COUNTS,
    RETAIN_FULL,
    RETAIN_PARENTS,
    Engine,
    ExplorationOptions,
    InternTable,
    iterate_paths,
)
from repro.search.baseline import (
    SeedExplorationLimits,
    SeedRecencyExplorer,
    seed_iterate_b_bounded_runs,
)


# -- synthetic graphs ----------------------------------------------------------


@dataclass(frozen=True)
class Node:
    """A structurally-equal state: distinct instances compare equal by key."""

    key: int


@dataclass(frozen=True)
class Edge:
    source: Node
    target: Node


def graph_successors(adjacency: dict):
    """Successor function over ``{key: [key, ...]}``, creating fresh objects."""

    def successors(node: Node):
        return [Edge(node, Node(child)) for child in adjacency.get(node.key, ())]

    return successors


#        0
#       / \
#      1   2
#      |   |
#      3   4
DIAMOND_FREE = {0: [1, 2], 1: [3], 2: [4]}


def retain_full(**fields) -> ExplorationOptions:
    """Options that keep every generated edge (``retention="full"``)."""
    return ExplorationOptions(retention=RETAIN_FULL, **fields)


def expansion_order(adjacency: dict, **fields) -> list[int]:
    """The order in which the engine expands states (calls successors)."""
    expanded: list[int] = []
    base = graph_successors(adjacency)

    def logging_successors(node: Node):
        expanded.append(node.key)
        return base(node)

    engine = Engine(logging_successors, retain_full(max_depth=10, **fields))
    engine.explore(Node(0))
    return expanded


# -- frontier visit-order contracts --------------------------------------------


def test_bfs_expands_in_level_order():
    assert expansion_order(DIAMOND_FREE, strategy="bfs") == [0, 1, 2, 3, 4]


def test_dfs_expands_most_recent_first():
    assert expansion_order(DIAMOND_FREE, strategy="dfs") == [0, 2, 4, 1, 3]


def test_best_first_follows_heuristic():
    ascending = expansion_order(
        DIAMOND_FREE, strategy="best-first", heuristic=lambda node, depth: node.key
    )
    assert ascending == [0, 1, 2, 3, 4]
    descending = expansion_order(
        DIAMOND_FREE, strategy="best-first", heuristic=lambda node, depth: -node.key
    )
    assert descending == [0, 2, 4, 1, 3]


def test_best_first_breaks_ties_in_discovery_order():
    constant = expansion_order(
        DIAMOND_FREE, strategy="best-first", heuristic=lambda node, depth: 0
    )
    assert constant == expansion_order(DIAMOND_FREE, strategy="bfs")


def test_unknown_strategy_and_missing_heuristic_rejected():
    with pytest.raises(SearchError):
        ExplorationOptions(strategy="wavefront")
    with pytest.raises(SearchError):
        ExplorationOptions(strategy="best-first")
    with pytest.raises(SearchError):
        ExplorationOptions(retention="sometimes")


def test_discovery_callback_reports_depths():
    discovered = []
    engine = Engine(graph_successors(DIAMOND_FREE), retain_full(max_depth=10))
    engine.explore(Node(0), on_state=lambda node, depth: discovered.append((node.key, depth)))
    assert discovered == [(0, 0), (1, 1), (2, 1), (3, 2), (4, 2)]


def test_depth_bounded_dfs_reopens_states_reached_shallower():
    # 0→{1,2}, 2→3, 3→4, 1→4, 4→5: DFS first reaches 4 at depth 3 (via
    # 2-3), which is the horizon for max_depth=3 — it must be re-opened
    # when re-reached at depth 2 (via 1) or 5 is never discovered.
    adjacency = {0: [1, 2], 2: [3], 3: [4], 1: [4], 4: [5]}
    for strategy, heuristic in (
        ("dfs", None),
        ("best-first", lambda node, depth: -node.key),
    ):
        options = retain_full(max_depth=3, strategy=strategy, heuristic=heuristic)
        result = Engine(graph_successors(adjacency), options).explore(Node(0))
        assert {node.key for node in result.states()} == {0, 1, 2, 3, 4, 5}
        assert not result.truncated
        path, search_result = Engine(graph_successors(adjacency), options).search(
            Node(0), lambda node: node.key == 5
        )
        assert path is not None
        assert [edge.target.key for edge in path] == [1, 4, 5]


def test_strategies_agree_on_untruncated_state_sets():
    adjacency = {0: [1, 2], 1: [3, 4], 2: [4, 5], 4: [6], 5: [6, 0]}
    expected = None
    for strategy, heuristic in (
        ("bfs", None),
        ("dfs", None),
        ("best-first", lambda node, depth: node.key),
        ("best-first", lambda node, depth: -node.key),
    ):
        for max_depth in (1, 2, 3, 10):
            engine = Engine(
                graph_successors(adjacency),
                retain_full(max_depth=max_depth, strategy=strategy, heuristic=heuristic),
            )
            states = frozenset(node.key for node in engine.explore(Node(0)).states())
            key = max_depth
            if expected is None or key not in expected:
                expected = expected or {}
                expected[key] = states
            assert states == expected[key], (strategy, max_depth)


# -- interning -----------------------------------------------------------------


def test_intern_table_returns_identical_objects_for_equal_states():
    table = InternTable()
    first = Node(7)
    duplicate = Node(7)
    assert first is not duplicate and first == duplicate
    first_id, canonical, is_new = table.intern(first)
    assert is_new and canonical is first
    second_id, canonical, is_new = table.intern(duplicate)
    assert not is_new
    assert second_id == first_id
    assert canonical is first
    assert table.canonical(Node(7)) is first
    assert table.state_of(first_id) is first
    assert len(table) == 1 and duplicate in table


def test_engine_interns_rediscovered_states():
    # 3 is reachable through both 1 and 2; successor calls build fresh
    # Node objects every time, but the engine keeps a single canonical one.
    diamond = {0: [1, 2], 1: [3], 2: [3]}
    engine = Engine(graph_successors(diamond), retain_full(max_depth=10))
    result = engine.explore(Node(0))
    states = list(result.states())
    assert [node.key for node in states] == [0, 1, 2, 3]
    assert result.state_count == 4
    assert result.edge_count == 4  # the duplicate discovery of 3 still counts as an edge
    assert len(result.parents) == 3  # one spanning-tree link per non-root state


# -- retention modes and witness reconstruction --------------------------------


def test_retention_modes_control_edge_storage():
    adjacency = {0: [1, 2], 1: [3], 2: [3]}
    for retention, retained in ((RETAIN_FULL, 4), (RETAIN_PARENTS, 0), (RETAIN_COUNTS, 0)):
        engine = Engine(
            graph_successors(adjacency), ExplorationOptions(max_depth=10, retention=retention)
        )
        result = engine.explore(Node(0))
        assert len(result.edges) == retained
        assert result.edge_count == 4
        assert result.state_count == 4
    counts = Engine(
        graph_successors(adjacency), ExplorationOptions(max_depth=10, retention=RETAIN_COUNTS)
    ).explore(Node(0))
    assert counts.parents == {}
    with pytest.raises(SearchError):
        counts.path_to(Node(3))


def test_parents_only_search_reconstructs_the_bfs_minimal_witness():
    # Two routes to 5: 0-1-5 (length 2) and 0-2-3-4-5 (length 4).
    adjacency = {0: [2, 1], 1: [5], 2: [3], 3: [4], 4: [5]}
    witnesses = {}
    for retention in (RETAIN_FULL, RETAIN_PARENTS):
        engine = Engine(
            graph_successors(adjacency), ExplorationOptions(max_depth=10, retention=retention)
        )
        path, result = engine.search(Node(0), lambda node: node.key == 5)
        assert path is not None and not result.truncated
        witnesses[retention] = [(edge.source.key, edge.target.key) for edge in path]
    assert witnesses[RETAIN_FULL] == witnesses[RETAIN_PARENTS] == [(0, 1), (1, 5)]


def test_search_initial_state_yields_empty_path():
    engine = Engine(graph_successors(DIAMOND_FREE), retain_full())
    path, result = engine.search(Node(0), lambda node: node.key == 0)
    assert path == []
    assert result.state_count == 1


# -- differential equality against the frozen seed explorer --------------------


@pytest.fixture(scope="module")
def booking():
    return booking_agency_system()


def test_engine_explore_matches_seed_explorer(example31):
    seed = SeedRecencyExplorer(example31, 2, SeedExplorationLimits(max_depth=4))
    engine = RecencyExplorer(example31, 2, retain_full(max_depth=4))
    seed_result = seed.explore()
    engine_result = engine.explore()
    assert engine_result.configurations == seed_result.configurations
    assert engine_result.configuration_count == seed_result.configuration_count
    assert engine_result.edge_count == seed_result.edge_count
    assert engine_result.depth_reached == seed_result.depth_reached
    assert engine_result.truncated == seed_result.truncated


def test_engine_truncation_matches_seed_explorer(example31):
    for max_configurations in (2, 5, 10):
        seed = SeedRecencyExplorer(
            example31,
            2,
            SeedExplorationLimits(max_depth=4, max_configurations=max_configurations),
        )
        engine = RecencyExplorer(
            example31, 2, retain_full(max_depth=4, max_configurations=max_configurations)
        )
        seed_result = seed.explore()
        engine_result = engine.explore()
        assert engine_result.truncated == seed_result.truncated
        assert engine_result.configuration_count == seed_result.configuration_count
        assert engine_result.edge_count == seed_result.edge_count


def test_engine_witness_matches_seed_explorer(booking):
    def has_offer(configuration) -> bool:
        return bool(configuration.instance.relation_rows("OAvail"))

    seed = SeedRecencyExplorer(booking, 2, SeedExplorationLimits(max_depth=5))
    seed_witness, seed_stats = seed.find_configuration(has_offer)
    for retention in (RETAIN_FULL, RETAIN_PARENTS):
        engine = RecencyExplorer(
            booking, 2, ExplorationOptions(max_depth=5, retention=retention)
        )
        witness, stats = engine.find_configuration(has_offer)
        assert witness is not None and seed_witness is not None
        assert witness.labels() == seed_witness.labels()
        assert stats.configuration_count == seed_stats.configuration_count
        assert stats.edge_count == seed_stats.edge_count


def test_engine_run_enumeration_matches_seed(example31):
    seed_runs = [run.labels() for run in seed_iterate_b_bounded_runs(example31, 2, 3)]
    engine_runs = [run.labels() for run in iterate_b_bounded_runs(example31, 2, 3)]
    assert engine_runs == seed_runs
    seed_truncated = [run.labels() for run in seed_iterate_b_bounded_runs(example31, 2, 3, max_runs=5)]
    engine_truncated = [run.labels() for run in iterate_b_bounded_runs(example31, 2, 3, max_runs=5)]
    assert engine_truncated == seed_truncated == seed_runs[:5]


# -- deep path enumeration (the recursion-limit fix) ---------------------------


@pytest.fixture(scope="module")
def chain_system():
    """A single-successor system: one token is consumed and re-created forever."""
    builder = DMSBuilder("chain")
    builder.relations(("Token", 1))
    builder.action("boot", fresh=("v",), guard="!(exists u. Token(u))", add=[("Token", "v")])
    builder.action(
        "tick",
        parameters=("u",),
        fresh=("v",),
        guard="Token(u)",
        delete=[("Token", "u")],
        add=[("Token", "v")],
    )
    return builder.build()


def test_deep_run_enumeration_beyond_recursion_limit(chain_system):
    depth = 2000
    assert depth > sys.getrecursionlimit() // 2
    runs = list(iterate_b_bounded_runs(chain_system, 1, depth))
    assert len(runs) == 1
    (run,) = runs
    assert len(run) == depth
    actions = {step.action.name for step in run.steps}
    assert actions == {"boot", "tick"}
    # The seed recursive enumeration cannot survive this depth.
    with pytest.raises(RecursionError):
        list(seed_iterate_b_bounded_runs(chain_system, 1, depth))


def test_deep_synthetic_paths():
    line = {key: [key + 1] for key in range(5000)}
    paths = list(iterate_paths(Node(0), graph_successors(line), 5000))
    assert len(paths) == 1
    assert len(paths[0]) == 5000


def test_iterate_paths_respects_max_paths():
    wide = {0: [1, 2, 3], 1: [], 2: [], 3: []}
    paths = list(iterate_paths(Node(0), graph_successors(wide), 1, max_paths=2))
    assert [[edge.target.key for edge in path] for path in paths] == [[1], [2]]
    assert list(iterate_paths(Node(0), graph_successors(wide), 1, max_paths=0)) == []
