"""Tests for reachability analysis and the recency-bounded model checker."""

import pytest

from repro.api import ExplorationOptions, run_reachability
from repro.casestudies.students import students_progression_property, students_system
from repro.errors import ModelCheckingError
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
