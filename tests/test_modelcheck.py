"""Tests for reachability analysis and the recency-bounded model checker."""

import sys

import pytest

from repro.api import ExplorationOptions, run_reachability
from repro.casestudies.booking import booking_agency_system
from repro.casestudies.students import students_progression_property, students_system
from repro.errors import ModelCheckingError, SchedulerError
from repro.fol.parser import parse_query
from repro.modelcheck.checker import RecencyBoundedModelChecker, check_recency_bounded
from repro.modelcheck.convergence import (
    convergence_bound,
    reachability_bound_sweep,
    state_space_bound_sweep,
)
from repro.modelcheck.result import Verdict
from repro.msofo.foltl import Eventually, StateQuery
from repro.msofo.patterns import proposition_reachability_formula, safety_formula
from repro.dms.builder import DMSBuilder
from repro.recency import semantics
from repro.recency.explorer import RecencyExplorer
from repro.search import RETAIN_COUNTS
from repro.store import ResultStore, service
from repro.workloads import drop_action_variant


@pytest.fixture
def flag_system():
    """A system where the proposition `goal` becomes reachable only after two steps."""
    builder = DMSBuilder("flag")
    builder.relations(("start", 0), ("mid", 0), ("goal", 0), ("item", 1))
    builder.initially("start")
    builder.action("step1", fresh=("v",), guard="start", delete=[("start",)], add=[("mid",), ("item", "v")])
    builder.action(
        "step2", parameters=("u",), guard="mid & item(u)", delete=[("mid",)], add=[("goal",)]
    )
    return builder.build()


def test_proposition_reachable(flag_system):
    result = run_reachability(flag_system, "goal", options=ExplorationOptions(max_depth=4))
    assert result.found
    assert result.reachable is Verdict.HOLDS
    assert len(result.witness.steps) == 2


def test_proposition_unreachable_exhaustive(flag_system):
    builder = DMSBuilder("dead")
    builder.relations(("a", 0), ("b", 0))
    builder.initially("a")
    builder.action("noop", guard="a", delete=[("a",)])
    system = builder.build()
    result = run_reachability(system, "b", options=ExplorationOptions(max_depth=5))
    assert result.reachable is Verdict.FAILS
    assert result.witness is None


def test_reachability_unknown_when_truncated(example31):
    # "p gets re-established after being consumed" requires depth ≥ 3; with depth 1 it is unknown.
    result = run_reachability(example31, "p", options=ExplorationOptions(max_depth=0))
    assert result.reachable in (Verdict.HOLDS, Verdict.UNKNOWN)


def test_query_reachable_with_formula(flag_system):
    result = run_reachability(
        flag_system, parse_query("exists u. item(u)"), options=ExplorationOptions(max_depth=3)
    )
    assert result.found
    with pytest.raises(ModelCheckingError):
        run_reachability(
            flag_system, parse_query("item(u)"), options=ExplorationOptions(max_depth=2)
        )


def test_bounded_reachability_needs_large_enough_bound(flag_system):
    options = ExplorationOptions(max_depth=4)
    assert run_reachability(flag_system, "goal", bound=1, options=options).found
    assert not run_reachability(flag_system, "goal", bound=0, options=options).found


def test_bounded_vs_unbounded_on_example31(example31):
    bounded = run_reachability(example31, "p", bound=2, options=ExplorationOptions(max_depth=4))
    assert bounded.found
    sweep = reachability_bound_sweep(example31, "p", bounds=(0, 1, 2), max_depth=4)
    assert [entry.bound for entry in sweep] == [0, 1, 2]
    assert all(entry.verdict is Verdict.HOLDS for entry in sweep)


def test_state_space_grows_with_bound(example31):
    sweep = state_space_bound_sweep(example31, bounds=(0, 1, 2), max_depth=3)
    configurations = [entry.configurations for entry in sweep]
    assert configurations[0] <= configurations[1] <= configurations[2]
    assert configurations[2] > configurations[0]


def test_convergence_bound(flag_system):
    assert convergence_bound(flag_system, "goal", max_bound=4, max_depth=4) == 1


def test_model_checker_safety_holds(example31):
    checker = RecencyBoundedModelChecker(example31, bound=2, depth=3)
    result = checker.check(safety_formula(parse_query("exists u. R(u) & Q(u)")))
    assert result.verdict in (Verdict.HOLDS, Verdict.UNKNOWN)
    assert not result.fails
    assert result.runs_checked > 0


def test_model_checker_finds_counterexample():
    system = students_system(allow_dropout=True)
    checker = RecencyBoundedModelChecker(system, bound=2, depth=3)
    result = checker.check(students_progression_property())
    assert result.fails
    assert result.counterexample is not None
    actions = [step.action.name for step in result.counterexample.steps]
    assert "enrol" in actions


def test_model_checker_holds_without_dropout():
    system = students_system(allow_dropout=False)
    checker = RecencyBoundedModelChecker(system, bound=1, depth=2)
    # Students may still be enrolled at the horizon, so the liveness property can fail
    # on prefixes; the safety property "nobody is dropped" holds.
    result = checker.check_safety(parse_query("exists u. Dropped(u)"))
    assert not result.fails


def test_model_checker_cross_validation_enabled(example31):
    checker = RecencyBoundedModelChecker(
        example31, bound=2, depth=2, cross_validate_encoding=True
    )
    result = checker.check(proposition_reachability_formula("p"))
    assert result.runs_checked > 0


def test_model_checker_accepts_foltl(example31):
    checker = RecencyBoundedModelChecker(example31, bound=2, depth=2)
    result = checker.check(Eventually(StateQuery(parse_query("exists u. R(u)"))))
    assert result.verdict in (Verdict.HOLDS, Verdict.UNKNOWN, Verdict.FAILS)


def test_model_checker_rejects_open_formula(example31):
    from repro.msofo.syntax import QueryAt
    from repro.fol.syntax import Atom

    checker = RecencyBoundedModelChecker(example31, bound=2, depth=2)
    with pytest.raises(ModelCheckingError):
        checker.check(QueryAt(Atom("p", ()), "x"))
    with pytest.raises(ModelCheckingError):
        RecencyBoundedModelChecker(example31, bound=-1)


def test_check_recency_bounded_function(flag_system):
    result = check_recency_bounded(
        flag_system, proposition_reachability_formula("start"), bound=1, depth=2
    )
    assert result.verdict is not None


# -- bound sweeps: edge cases and rows equal to direct exploration ------------------

ACCEPTED = parse_query("Exists x. BAccepted(x)")


def _direct_rows(system, condition, bounds, depth):
    """Each bound explored on its own through :func:`run_reachability`."""
    rows = []
    for bound in bounds:
        result = run_reachability(
            system, condition, bound=bound, options=ExplorationOptions(max_depth=depth),
            store=False,
        )
        rows.append(
            (bound, result.reachable.value, result.configurations_explored, result.edges_explored)
        )
    return rows


def _direct_sizes(system, bounds, depth):
    """Each bound's state space explored on its own."""
    rows = []
    for bound in bounds:
        explored = RecencyExplorer(
            system, bound, ExplorationOptions(max_depth=depth, retention=RETAIN_COUNTS)
        ).explore()
        rows.append((bound, "unknown", explored.configuration_count, explored.edge_count))
    return rows


@pytest.mark.parametrize("bounds", [(-1,), (1, -1)])
def test_sweeps_reject_a_negative_bound(bounds, tmp_path):
    booking = booking_agency_system()
    message = "recency bound must be non-negative, got -1"
    for store in (False, ResultStore(tmp_path / "store")):
        with pytest.raises(SchedulerError, match=message):
            reachability_bound_sweep(booking, ACCEPTED, bounds, 3, store=store)
        with pytest.raises(SchedulerError, match=message):
            state_space_bound_sweep(booking, bounds, 3, store=store)


def test_sweeps_over_no_bounds_return_no_rows():
    booking = booking_agency_system()
    assert reachability_bound_sweep(booking, ACCEPTED, (), 3, store=False) == ()
    assert state_space_bound_sweep(booking, (), 3, store=False) == ()


def test_unsorted_and_repeated_bounds_give_rows_in_order_equal_to_direct_exploration():
    booking = booking_agency_system()
    bounds = (3, 0, 2, 2, 1, 3)
    rows = reachability_bound_sweep(booking, ACCEPTED, bounds, 5, store=False)
    assert [entry.as_row() for entry in rows] == _direct_rows(booking, ACCEPTED, bounds, 5)
    rows = state_space_bound_sweep(booking, bounds, 4, store=False)
    assert [entry.as_row() for entry in rows] == _direct_sizes(booking, bounds, 4)


def test_sharded_and_parallel_sweeps_give_the_sequential_rows(flag_system):
    booking = booking_agency_system()
    bounds = (0, 1, 2, 3)
    sequential = reachability_bound_sweep(booking, ACCEPTED, bounds, 5, store=False)
    assert [entry.as_row() for entry in sequential] == _direct_rows(booking, ACCEPTED, bounds, 5)
    sharded = ExplorationOptions(shards=2)
    assert reachability_bound_sweep(
        booking, ACCEPTED, bounds, 5, options=sharded, store=False
    ) == sequential
    assert reachability_bound_sweep(
        booking, ACCEPTED, bounds, 5, store=False, parallel=2
    ) == sequential
    sizes = state_space_bound_sweep(booking, bounds, 4, store=False)
    assert state_space_bound_sweep(
        booking, bounds, 4, options=sharded.replace(retention=RETAIN_COUNTS), store=False
    ) == sizes
    assert state_space_bound_sweep(booking, bounds, 4, store=False, parallel=2) == sizes
    assert convergence_bound(flag_system, "goal", 4, 4, options=sharded, store=False) == 1


def test_delta_seeded_sweeps_give_the_rows_of_direct_exploration(monkeypatch, tmp_path):
    """Capture and delta wrap a sweep's labelled successors: its rows stay the direct ones.

    The stored base lacks ``regCustomer``, so every point is seeded from
    it and asks the labels for that action alone on every state.
    """
    booking = booking_agency_system()
    store = ResultStore(tmp_path / "store")
    without = drop_action_variant(booking, "regCustomer")
    reachability_bound_sweep(without, ACCEPTED, (0, 1, 2), 5, store=store)
    seeded = []

    class Recording(service.DeltaSuccessors):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seeded.append(self)

    monkeypatch.setattr(service, "DeltaSuccessors", Recording)
    rows = reachability_bound_sweep(booking, ACCEPTED, (0, 1, 2), 5, store=store)
    assert [entry.as_row() for entry in rows] == _direct_rows(booking, ACCEPTED, (0, 1, 2), 5)
    assert len(seeded) == 3
    assert all(delta.fresh_states and delta.reused_states for delta in seeded)


# -- one expansion per bound sweep: a count gate ------------------------------------


def _expansions(monkeypatch) -> list:
    """From now on, the configuration of every successor enumeration, in call order.

    Every loaded ``repro`` module that binds
    :func:`~repro.recency.semantics.enumerate_b_bounded_successors` gets
    the counting wrapper.
    """
    original = semantics.enumerate_b_bounded_successors
    expanded = []

    def counted(system, configuration, *args, **kwargs):
        expanded.append(configuration)
        return original(system, configuration, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        held = getattr(module, "enumerate_b_bounded_successors", None)
        if name.startswith("repro") and held is original:
            monkeypatch.setattr(module, "enumerate_b_bounded_successors", counted)
    return expanded


@pytest.mark.parametrize(
    "condition,depth,expected",
    # Exploring each bound on its own makes 1,746 and 2,310 calls.
    [("Exists x. BAccepted(x)", 6, 570), ("Exists x. BDrafting(x)", 7, 1101)],
)
def test_bound_sweeps_expand_each_configuration_once(monkeypatch, condition, depth, expected):
    """A sequential sweep enumerates successors once per distinct expanded configuration."""
    booking = booking_agency_system()
    query = parse_query(condition)
    direct = _direct_rows(booking, query, (0, 1, 2, 3), depth)
    expanded = _expansions(monkeypatch)
    rows = reachability_bound_sweep(booking, query, (0, 1, 2, 3), depth, store=False)
    assert [entry.as_row() for entry in rows] == direct
    assert (len(expanded), len(set(expanded))) == (expected, expected)


def test_state_space_sweeps_and_convergence_scans_expand_each_configuration_once(monkeypatch):
    booking = booking_agency_system()
    expanded = _expansions(monkeypatch)
    state_space_bound_sweep(booking, (0, 1, 2, 3), 5, store=False)
    assert (len(expanded), len(set(expanded))) == (151, 151)  # 530 calls bound by bound
    expanded.clear()
    drafting = parse_query("Exists x. BDrafting(x)")
    assert convergence_bound(booking, drafting, 4, 6, store=False) == 2
    assert (len(expanded), len(set(expanded))) == (372, 372)  # 852 calls bound by bound


def test_warm_bound_sweeps_expand_nothing(monkeypatch, tmp_path):
    booking = booking_agency_system()
    store = ResultStore(tmp_path / "store")
    cold = reachability_bound_sweep(booking, ACCEPTED, (0, 1, 2, 3), 6, store=store)
    expanded = _expansions(monkeypatch)
    assert reachability_bound_sweep(booking, ACCEPTED, (0, 1, 2, 3), 6, store=store) == cold
    assert expanded == []
