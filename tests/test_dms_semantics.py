"""Tests for the execution semantics of DMSs (paper, Section 3)."""

import pytest

from repro.casestudies.simple import figure_1_expected_instances
from repro.database.instance import DatabaseInstance, Fact
from repro.database.schema import Schema
from repro.dms.action import Action
from repro.dms.semantics import (
    apply_action,
    enumerate_guard_answers,
    enumerate_successors,
    execute_labels,
    initial_configuration,
    is_instantiating_substitution,
    successor_configuration,
)
from repro.dms.system import DMS
from repro.errors import ExecutionError
from repro.fol.parser import parse_query
from repro.recency.explorer import RecencyExplorer, iterate_b_bounded_runs
from repro.recency.semantics import enumerate_b_bounded_successors, initial_recency_configuration
from repro.search import ExplorationOptions


def test_initial_configuration(example31):
    configuration = initial_configuration(example31)
    assert configuration.history == frozenset()
    assert configuration.instance.holds_proposition("p")
    assert configuration.is_consistent()


def test_instantiating_substitution_conditions(example31):
    configuration = initial_configuration(example31)
    alpha = example31.action("alpha")
    sigma = {"v1": "e1", "v2": "e2", "v3": "e3"}
    assert is_instantiating_substitution(alpha, configuration, sigma)
    # Fresh variables must be pairwise distinct.
    assert not is_instantiating_substitution(
        alpha, configuration, {"v1": "e1", "v2": "e1", "v3": "e3"}
    )
    after = apply_action(alpha, configuration, sigma)
    beta = example31.action("beta")
    # Action parameters must come from the active domain.
    assert not is_instantiating_substitution(
        beta, after, {"u": "e99", "v1": "e4", "v2": "e5"}
    )
    # Fresh values must be history-fresh.
    assert not is_instantiating_substitution(
        beta, after, {"u": "e1", "v1": "e1", "v2": "e5"}
    )
    assert is_instantiating_substitution(beta, after, {"u": "e1", "v1": "e4", "v2": "e5"})


def test_apply_action_checks(example31):
    configuration = initial_configuration(example31)
    beta = example31.action("beta")
    with pytest.raises(ExecutionError):
        apply_action(beta, configuration, {"u": "e1", "v1": "e2", "v2": "e3"})


def test_successor_configuration_returns_none_when_blocked(example31):
    configuration = initial_configuration(example31)
    beta = example31.action("beta")
    assert successor_configuration(beta, configuration, {"u": "e1", "v1": "e2", "v2": "e3"}) is None


def test_figure1_run_reproduced(example31, figure1_labels):
    run = execute_labels(example31, figure1_labels)
    expected = figure_1_expected_instances()
    assert len(run.configurations()) == len(expected)
    for configuration, expectation in zip(run.configurations(), expected):
        instance = configuration.instance
        assert instance.holds_proposition("p") == expectation["p"]
        assert {row[0] for row in instance.relation_rows("R")} == expectation["R"]
        assert {row[0] for row in instance.relation_rows("Q")} == expectation["Q"]


def test_history_grows_monotonically(example31, figure1_labels):
    run = execute_labels(example31, figure1_labels)
    histories = [conf.history for conf in run.configurations()]
    for previous, current in zip(histories, histories[1:]):
        assert previous <= current
    assert len(histories[-1]) == 11


def test_deleted_elements_never_return(example31, figure1_labels):
    """The history-fresh policy: once deleted, an element never re-enters adom."""
    run = execute_labels(example31, figure1_labels)
    seen_then_gone: set = set()
    for configuration in run.configurations():
        adom = configuration.instance.active_domain()
        assert not (seen_then_gone & adom)
        seen_then_gone |= configuration.history - adom
    assert "e2" in seen_then_gone


def test_enumerate_guard_answers(example31, figure1_labels):
    run = execute_labels(example31, figure1_labels)
    instance_after_alpha = run.configurations()[1].instance
    beta = example31.action("beta")
    answers = list(enumerate_guard_answers(beta, instance_after_alpha))
    assert {answer["u"] for answer in answers} == {"e1", "e2"}


def test_enumerate_successors_canonical_fresh_values(example31):
    configuration = initial_configuration(example31)
    steps = list(enumerate_successors(example31, configuration))
    assert len(steps) == 1
    step = steps[0]
    assert step.action.name == "alpha"
    assert step.fresh_values() == ("e1", "e2", "e3")


def test_execute_labels_invalid_sequence_raises(example31):
    with pytest.raises(ExecutionError):
        execute_labels(example31, [("beta", {"u": "e1", "v1": "e2", "v2": "e3"})])


def test_explorer_bounded_exploration(example31):
    explorer = RecencyExplorer(
        example31, None, ExplorationOptions(max_depth=2, retention="full")
    )
    result = explorer.explore()
    assert result.configuration_count > 1
    assert result.depth_reached <= 2
    assert result.edge_count >= result.configuration_count - 1


def test_explorer_find_configuration(toy_counter_system):
    explorer = RecencyExplorer(
        toy_counter_system, None, ExplorationOptions(max_depth=3, retention="full")
    )
    witness, stats = explorer.find_configuration(
        lambda conf: len(conf.instance.relation_rows("token")) >= 2
    )
    assert witness is not None
    assert len(witness.steps) == 2


def test_iterate_runs_enumeration(toy_counter_system):
    runs = list(iterate_b_bounded_runs(toy_counter_system, None, depth=2))
    assert runs
    assert all(len(run.steps) <= 2 for run in runs)
    labels = {tuple(step.action.name for step in run.steps) for run in runs}
    assert ("produce", "consume") in labels


def test_non_strict_parameter_outside_the_guard_is_bound_over_the_domain():
    # ``relaxed`` has a parameter its guard never mentions: it is still
    # bound, over adom(I) in the reference and over Recent_b otherwise.
    schema = Schema.of(("p", 0), ("R", 1))
    mk = Action.create("mk", schema, fresh=("v",), add=[Fact.of("R", "v"), Fact.of("p")])
    relaxed = Action.create(
        "relaxed", schema, parameters=("u",), guard=parse_query("p"), strict=False
    )
    system = DMS.create(schema, DatabaseInstance.of(schema), [mk, relaxed])
    expected = [("mk", {"v": "e2"}), ("relaxed", {"u": "e1"})]

    after_mk = next(iter(enumerate_successors(system, initial_configuration(system)))).target
    steps = enumerate_successors(system, after_mk)
    assert [(step.action.name, dict(step.substitution)) for step in steps] == expected

    root = initial_recency_configuration(system)
    after_mk = next(iter(enumerate_b_bounded_successors(system, root, 1))).target
    for bound in (1, None):
        steps = enumerate_b_bounded_successors(system, after_mk, bound)
        assert [(step.action.name, dict(step.substitution)) for step in steps] == expected
    # With an empty recency window the parameter has nothing to bind.
    assert [step.action.name for step in enumerate_b_bounded_successors(system, after_mk, 0)] == [
        "mk"
    ]


def test_run_projection_and_gadom(example31, figure1_labels):
    extended = execute_labels(example31, figure1_labels)
    run = extended.to_run()
    assert len(run) == 9
    assert run.global_active_domain() == frozenset(f"e{i}" for i in range(1, 12))
    assert extended.labels()[0][0] == "alpha"
