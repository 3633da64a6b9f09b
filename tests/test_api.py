"""Tests for the unified facade (:mod:`repro.api`).

Covers the facade's three contracts:

* **One surface, same verdicts** — :func:`repro.api.run_reachability`
  and a warm session's inline path return bit-identical results for
  every combination of bounded/unbounded semantics and
  proposition/query conditions, and the facade's bounded answer
  matches a search run straight on the recency explorer;
* **Options** — :class:`ExplorationOptions` round-trips exploration
  limits and its execution-shape knobs never change verdicts;
* **Sessions** — a warm :class:`Session` serves inline and isolated
  queries with identical verdicts, enforces isolated timeouts by
  killing the worker while staying healthy, and serves ≥8 concurrent
  isolated queries over shared pooled engines.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import ExplorationOptions, Session, run_reachability
from repro.casestudies.booking import booking_agency_system
from repro.casestudies.warehouse import warehouse_system
from repro.errors import ModelCheckingError, QueryTimeoutError, SessionError
from repro.fol.evaluator import evaluate_sentence
from repro.fol.parser import parse_query
from repro.modelcheck.result import Verdict
from repro.recency.explorer import RecencyExplorer
from repro.search import process_backend_available

needs_fork = pytest.mark.skipif(
    not process_backend_available(), reason="fork start method unavailable"
)

SUBMITTED = "Exists x. BSubmitted(x)"


@pytest.fixture(scope="module")
def booking():
    return booking_agency_system()


@pytest.fixture(scope="module")
def warehouse():
    return warehouse_system()


def summary(result):
    """The verdict-relevant fields of a result, witness included."""
    return (
        result.reachable,
        result.configurations_explored,
        result.edges_explored,
        result.depth,
        result.bound,
        None if result.witness is None else len(result.witness),
    )


# -- facade ----------------------------------------------------------------------


def test_facade_matches_query_reachable_bounded(booking):
    # Query reachability in the b = 2 semantics, searched for straight on
    # the recency explorer: the facade reports the same counts, and turns
    # a search cut at the depth limit into UNKNOWN, never FAILS.
    condition = parse_query(SUBMITTED)
    explorer = RecencyExplorer(booking, 2, ExplorationOptions(max_depth=4, retention="full"))
    witness, stats = explorer.find_configuration(
        lambda configuration: evaluate_sentence(condition, configuration.instance)
    )
    facade = run_reachability(
        booking, condition, bound=2, options=ExplorationOptions(max_depth=4), store=False
    )
    assert witness is None and stats.depth_reached == 4
    assert facade.reachable is Verdict.UNKNOWN
    assert facade.witness is None
    assert facade.configurations_explored == stats.configuration_count
    assert facade.edges_explored == stats.edge_count
    assert (facade.bound, facade.depth) == (2, 4)


def test_on_state_streams_discovery_order(booking):
    seen: list[tuple[int, int]] = []
    result = run_reachability(
        booking,
        parse_query(SUBMITTED),
        bound=2,
        options=ExplorationOptions(max_depth=4),
        store=False,
        on_state=lambda configuration, depth: seen.append((len(seen), depth)),
    )
    assert result.configurations_explored > 0
    assert seen[0][1] == 0  # the root fires first, at depth zero
    depths = [depth for _, depth in seen]
    assert depths == sorted(depths)  # BFS discovery order is by depth
    assert len(seen) >= result.configurations_explored


# -- options -------------------------------------------------------------------


def test_options_from_limits_round_trips():
    # Options rebuilt from their result fields — as isolated workers
    # rebuild them — give the same limits, strategy and retention back.
    for fields in (
        {"max_depth": 3, "max_configurations": 10, "max_steps": 20},
        {"max_depth": 5, "max_configurations": 7, "max_steps": 9, "strategy": "dfs"},
        {"max_depth": 2, "max_steps": 0, "retention": "counts-only"},
    ):
        options = ExplorationOptions(**fields)
        assert ExplorationOptions(**options.result_fields()) == options
        assert options.result_fields().items() >= fields.items()
    assert ExplorationOptions().result_fields() == {
        "max_depth": 6,
        "max_configurations": 100_000,
        "max_steps": 500_000,
        "strategy": "bfs",
        "retention": "parents-only",
    }
    assert tuple(ExplorationOptions().result_fields()) == ExplorationOptions.RESULT_FIELDS


def test_options_replace_and_single_shard():
    options = ExplorationOptions(max_depth=4)
    assert options.single_shard
    sharded = options.replace(shards=2, workers=2)
    assert not sharded.single_shard
    assert sharded.max_depth == 4
    assert options.shards == 1  # frozen: the original is untouched


def test_execution_shape_does_not_change_verdicts(booking):
    condition = parse_query(SUBMITTED)
    single = run_reachability(
        booking, condition, bound=2, options=ExplorationOptions(max_depth=4), store=False
    )
    sharded = run_reachability(
        booking,
        condition,
        bound=2,
        options=ExplorationOptions(max_depth=4, shards=2, workers=2),
        store=False,
    )
    assert summary(sharded) == summary(single)


def test_non_sentence_condition_is_rejected(booking):
    with pytest.raises(ModelCheckingError):
        run_reachability(booking, parse_query("BSubmitted(x)"), store=False)


# -- sessions ------------------------------------------------------------------


@pytest.fixture(scope="module")
def session():
    with Session(store=False) as warm:
        yield warm


def test_session_inline_matches_facade(booking, session):
    condition = parse_query(SUBMITTED)
    direct = run_reachability(
        booking, condition, bound=2, options=ExplorationOptions(max_depth=4), store=False
    )
    inline = session.run_reachability(
        booking, condition, bound=2, options=ExplorationOptions(max_depth=4)
    )
    assert summary(inline) == summary(direct)


# The query at b = 2 is the case above; these are the rest of the
# bound x condition matrix.
@pytest.mark.parametrize(
    ("condition", "bound", "depth"),
    [
        pytest.param(parse_query(SUBMITTED), None, 4, id="query-unbounded"),
        pytest.param(parse_query(SUBMITTED), 1, 4, id="query-b1"),
        pytest.param("open", None, 2, id="proposition-unbounded"),
        pytest.param("open", 1, 2, id="proposition-b1"),
        pytest.param("open", 2, 2, id="proposition-b2"),
    ],
)
def test_session_inline_matches_facade_across_semantics(
    booking, session, condition, bound, depth
):
    options = ExplorationOptions(max_depth=depth)
    direct = run_reachability(booking, condition, bound=bound, options=options, store=False)
    inline = session.run_reachability(booking, condition, bound=bound, options=options)
    assert summary(inline) == summary(direct)


@needs_fork
def test_session_isolated_matches_inline(booking, session):
    condition = parse_query(SUBMITTED)
    options = ExplorationOptions(max_depth=4)
    inline = session.run_reachability(booking, condition, bound=2, options=options)
    isolated = session.run_reachability_isolated(booking, condition, bound=2, options=options)
    assert summary(isolated) == summary(inline)
    assert any(key[0] == "api-query" for key in session.warm_context_keys())


@needs_fork
def test_isolated_timeout_kills_worker_but_session_stays_healthy(booking, session):
    deep = ExplorationOptions(max_depth=9, max_configurations=10**9, max_steps=10**9)
    condition = parse_query("Exists x. BAccepted(x)")
    with pytest.raises(QueryTimeoutError):
        session.run_reachability_isolated(booking, condition, options=deep, timeout=0.5)
    # The worker was killed; the very next isolated query respawns it
    # and still matches the inline verdict bit for bit.
    small = ExplorationOptions(max_depth=3)
    after = session.run_reachability_isolated(booking, condition, bound=1, options=small)
    inline = session.run_reachability(booking, condition, bound=1, options=small)
    assert summary(after) == summary(inline)


@needs_fork
def test_eight_concurrent_isolated_queries_share_warm_engines(booking, warehouse, session):
    condition = parse_query(SUBMITTED)
    options = ExplorationOptions(max_depth=3)
    expected = {
        "booking": summary(session.run_reachability(booking, condition, bound=1, options=options)),
        "warehouse": summary(session.run_reachability(warehouse, "open", bound=1, options=options)),
    }
    results: dict[int, tuple] = {}
    errors: list[Exception] = []

    def query(index: int) -> None:
        try:
            if index % 2 == 0:
                result = session.run_reachability_isolated(
                    booking, condition, bound=1, options=options
                )
                results[index] = ("booking", summary(result))
            else:
                result = session.run_reachability_isolated(
                    warehouse, "open", bound=1, options=options
                )
                results[index] = ("warehouse", summary(result))
        except Exception as error:  # noqa: BLE001 - surfaced by the assertion below
            errors.append(error)

    threads = [threading.Thread(target=query, args=(index,)) for index in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not errors
    assert len(results) == 8
    for name, got in results.values():
        assert got == expected[name]
    # Two systems, one graph each: all eight queries were served by the
    # two matching warm contexts (other tests of this module may have
    # warmed further contexts on the shared session).
    from repro.store.canonical import system_hash

    contexts = set(session.warm_context_keys())
    assert ("api-query", system_hash(booking), "recency:1") in contexts
    assert ("api-query", system_hash(warehouse), "recency:1") in contexts


def test_isolated_rejects_heuristics(booking, session):
    options = ExplorationOptions(
        strategy="best-first", heuristic=lambda configuration, depth: depth
    )
    with pytest.raises(ModelCheckingError):
        session.run_reachability_isolated(booking, "open", options=options)


def test_isolated_validates_condition_coordinator_side(warehouse, session):
    with pytest.raises(Exception) as caught:
        session.run_reachability_isolated(warehouse, "no-such-proposition")
    assert "no-such-proposition" in str(caught.value)


def test_closed_session_refuses_queries(booking):
    session = Session(store=False)
    session.close()
    session.close()  # idempotent
    with pytest.raises(SessionError):
        session.run_reachability(booking, "open")


def test_session_convergence_delegates(booking, session):
    condition = parse_query(SUBMITTED)
    options = ExplorationOptions(max_depth=4)
    rows = session.reachability_bound_sweep(booking, condition, (0, 1, 2), options=options)
    assert [entry.bound for entry in rows] == [0, 1, 2]
    reference = session.run_reachability(booking, condition, options=options)
    converged = next(
        (entry.bound for entry in rows if entry.verdict == reference.reachable), None
    )
    assert converged is not None
