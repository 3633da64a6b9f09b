"""Tests for DMS actions and systems (well-formedness of the model)."""

import pytest

from repro.database.constraints import ConstraintSet
from repro.database.instance import DatabaseInstance, Fact
from repro.database.schema import Schema
from repro.dms.action import Action
from repro.dms.builder import DMSBuilder
from repro.dms.system import DMS
from repro.errors import ActionError, SystemError_
from repro.fol.parser import parse_query


@pytest.fixture
def schema():
    return Schema.of(("p", 0), ("R", 1), ("Q", 1))


def test_action_create_and_accessors(schema):
    action = Action.create(
        "beta",
        schema,
        parameters=("u",),
        fresh=("v1", "v2"),
        guard=parse_query("p & R(u)"),
        delete=[Fact.of("p"), Fact.of("R", "u")],
        add=[Fact.of("Q", "v1"), Fact.of("Q", "v2")],
    )
    assert action.free == ("u",)
    assert action.new == ("v1", "v2")
    assert action.arity == (1, 2)
    assert action.all_variables == ("u", "v1", "v2")
    assert action.data_variable_count() == 1


def test_action_guard_free_vars_must_equal_parameters(schema):
    with pytest.raises(ActionError):
        Action.create("bad", schema, parameters=("u",), guard=parse_query("p"))
    with pytest.raises(ActionError):
        Action.create("bad", schema, parameters=(), guard=parse_query("R(u)"))


def test_action_del_only_parameters(schema):
    with pytest.raises(ActionError):
        Action.create(
            "bad",
            schema,
            parameters=("u",),
            guard=parse_query("R(u)"),
            delete=[Fact.of("R", "w")],
        )


def test_action_fresh_must_appear_in_add(schema):
    with pytest.raises(ActionError):
        Action.create(
            "bad", schema, parameters=(), fresh=("v",), guard=parse_query("true"), add=[]
        )


def test_action_disjoint_parameters_and_fresh(schema):
    with pytest.raises(ActionError):
        Action.create(
            "bad",
            schema,
            parameters=("u",),
            fresh=("u",),
            guard=parse_query("R(u)"),
            add=[Fact.of("Q", "u")],
        )


def test_action_rename_variables(schema):
    action = Action.create(
        "a",
        schema,
        parameters=("u",),
        guard=parse_query("R(u)"),
        delete=[Fact.of("R", "u")],
    )
    renamed = action.rename_variables({"u": "x"})
    assert renamed.parameters == ("x",)
    assert renamed.guard.free_variables() == frozenset({"x"})


def test_non_strict_action_allows_relaxed_shape(schema):
    action = Action.create(
        "relaxed", schema, parameters=("u",), guard=parse_query("p"), strict=False
    )
    assert action.parameters == ("u",)


def test_non_strict_guard_variables_must_be_parameters(schema):
    # Successors bind only the parameters, so a stray guard variable
    # could never be evaluated: reject it when the action is built.
    with pytest.raises(ActionError, match="not action parameters"):
        Action.create(
            "stray", schema, parameters=("u",), guard=parse_query("R(u) & Q(y)"), strict=False
        )


def test_dms_requires_empty_initial_adom(schema):
    bad_initial = DatabaseInstance.of(schema, Fact.of("R", "e1"))
    with pytest.raises(SystemError_):
        DMS.create(schema, bad_initial, [])
    relaxed = DMS.create(schema, bad_initial, [], require_empty_initial_adom=False)
    assert relaxed.initial_instance.holds("R", "e1")


def test_dms_rejects_duplicate_action_names(schema):
    initial = DatabaseInstance.of(schema, Fact.of("p"))
    action = Action.create("a", schema, guard=parse_query("true"))
    with pytest.raises(SystemError_):
        DMS.create(schema, initial, [action, action.rename_variables({})])


def test_dms_lookup_and_parameters(example31):
    assert example31.action("alpha").fresh == ("v1", "v2", "v3")
    with pytest.raises(SystemError_):
        example31.action("nope")
    assert example31.max_fresh == 3
    assert example31.max_parameters == 2
    parameters = example31.size_parameters()
    assert parameters["relations"] == 3
    assert parameters["actions"] == 4
    assert parameters["max_arity"] == 1


def test_dms_builder_constraint(schema):
    builder = DMSBuilder("constrained")
    builder.relations(("p", 0), ("R", 1))
    builder.initially("p")
    builder.action("mk", fresh=("v",), guard="p", add=[("R", "v")])
    builder.constraint("!exists u, v. R(u) & R(v) & u != v")
    system = builder.build()
    assert len(system.constraints) == 1


def test_constraint_set_behaviour(schema):
    constraints = ConstraintSet([parse_query("exists u. R(u)")])
    good = DatabaseInstance.of(schema, Fact.of("R", "e1"))
    bad = DatabaseInstance.empty(schema)
    assert constraints.satisfied_by(good)
    assert not constraints.satisfied_by(bad)
    assert len(constraints.violated_by(bad)) == 1
    with pytest.raises(Exception):
        ConstraintSet([parse_query("R(u)")])


def test_with_actions_and_with_constraints(example31):
    smaller = example31.with_actions([example31.action("alpha")], name="only-alpha")
    assert smaller.action_names() == ("alpha",)
    constrained = example31.with_constraints(ConstraintSet([parse_query("true")]))
    assert len(constrained.constraints) == 1
