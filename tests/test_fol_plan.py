"""Join plans (:mod:`repro.fol.plan`) against the interpreter they replace.

* a hypothesis differential test: plan answers equal ``iter_answers``
  in order, and sentence plans equal ``evaluate_sentence``, over random
  queries and instances covering ∀, ⇒, ⇔, equality, repeated variables
  in one atom, nullary atoms, an always-empty relation, shadowed names,
  parameters absent from the guard and a domain smaller than adom(I);
* schema errors: a guard, condition or constraint that does not fit the
  schema raises before any state is explored, and never yields a
  verdict;
* a count gate: exploring booking calls neither the interpreter nor
  ``DatabaseInstance.holds``;
* plans never travel in a pickle, and an unpickled system explores the
  same graph.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExplorationOptions, run_reachability
from repro.casestudies.booking import booking_agency_system
from repro.casestudies.simple import example_31_system
from repro.database import DatabaseInstance, Fact, Schema
from repro.database.constraints import ConstraintSet
from repro.dms.builder import DMSBuilder
from repro.errors import ArityError, SubstitutionError, UnknownRelationError
from repro.fol import evaluator
from repro.fol.evaluator import evaluate_sentence, iter_answers
from repro.fol.parser import parse_query
from repro.fol.plan import compile_query
from repro.fol.syntax import (
    And,
    Atom,
    Equals,
    Exists,
    FalseQuery,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    TrueQuery,
)

# ``E`` is declared but never holds a row.
SCHEMA = Schema.of(("p", 0), ("q", 0), ("R", 1), ("S", 2), ("T", 3), ("E", 1))
PARAMETERS = ("u", "v", "w")
# Quantifiers reuse "u" and "v", so they shadow parameters and each other.
QUANTIFIED = ("x", "y", "u", "v")
VALUES = ("e1", "e2", "e3", "e4")


def _leaf(draw, scope: tuple[str, ...]):
    shapes = ["true", "false", "nullary"]
    if scope:
        shapes += ["atom", "atom", "atom", "eq"]
    shape = draw(st.sampled_from(shapes))
    if shape == "true":
        return TrueQuery()
    if shape == "false":
        return FalseQuery()
    if shape == "nullary":
        return Atom(draw(st.sampled_from(("p", "q"))), ())
    if shape == "eq":
        return Equals(draw(st.sampled_from(scope)), draw(st.sampled_from(scope)))
    relation = draw(st.sampled_from(("R", "S", "T", "E")))
    arity = SCHEMA.arity_of(relation)
    # Drawing with replacement repeats variables within one atom.
    return Atom(relation, tuple(draw(st.sampled_from(scope)) for _ in range(arity)))


@st.composite
def queries(draw, scope: tuple[str, ...], depth: int = 3):
    """A query whose free variables lie in ``scope``."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return _leaf(draw, scope)
    shape = draw(
        st.sampled_from(("not", "and", "and", "or", "implies", "iff", "exists", "exists", "forall"))
    )
    if shape in ("exists", "forall"):
        variable = draw(st.sampled_from(QUANTIFIED))
        inner = tuple(dict.fromkeys(scope + (variable,)))
        body = draw(queries(inner, depth - 1))
        return (Exists if shape == "exists" else Forall)(variable, body)
    if shape == "not":
        return Not(draw(queries(scope, depth - 1)))
    node = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[shape]
    return node(draw(queries(scope, depth - 1)), draw(queries(scope, depth - 1)))


@st.composite
def instances(draw):
    facts = [Fact("p")] if draw(st.booleans()) else []
    if draw(st.booleans()):
        facts.append(Fact("q"))
    for relation in ("R", "S", "T"):
        arity = SCHEMA.arity_of(relation)
        rows = draw(
            st.lists(st.tuples(*[st.sampled_from(VALUES)] * arity), max_size=5)
        )
        facts.extend(Fact(relation, row) for row in rows)
    return DatabaseInstance(SCHEMA, facts)


@st.composite
def guard_cases(draw):
    """``(guard, parameters, instance, domain)`` with ``Free-Vars ⊆ parameters``."""
    parameters = tuple(
        draw(st.lists(st.sampled_from(PARAMETERS), min_size=1, max_size=3, unique=True))
    )
    guard = draw(queries(parameters))
    instance = draw(instances())
    adom = sorted(instance.active_domain())
    # A domain smaller than adom(I), as Recent_b is; sometimes with a
    # value outside adom(I), which the interpreter also accepts.
    domain = set(draw(st.lists(st.sampled_from(adom), unique=True))) if adom else set()
    if draw(st.booleans()):
        domain.add("e9")
    return guard, parameters, instance, frozenset(domain)


def _interpreted(guard, parameters, instance, domain) -> list[tuple]:
    return [
        tuple(answer[name] for name in parameters)
        for answer in iter_answers(guard, instance, parameters, domain)
    ]


@settings(max_examples=400, deadline=None)
@given(guard_cases())
def test_plan_answers_equal_iter_answers_in_order(case):
    guard, parameters, instance, domain = case
    plan = compile_query(guard, SCHEMA, parameters)
    assert plan.answers(instance, domain) == _interpreted(guard, parameters, instance, domain)


@settings(max_examples=200, deadline=None)
@given(queries(()), instances())
def test_sentence_plans_equal_evaluate_sentence(sentence, instance):
    plan = compile_query(sentence, SCHEMA)
    assert plan.holds(instance) == evaluate_sentence(sentence, instance)
    assert plan.answers(instance) == ([()] if evaluate_sentence(sentence, instance) else [])


INSTANCE = DatabaseInstance(
    SCHEMA,
    [
        Fact("p"),
        Fact("R", ("e1",)),
        Fact("R", ("e2",)),
        Fact("S", ("e1", "e1")),
        Fact("S", ("e1", "e2")),
        Fact("S", ("e3", "e2")),
        Fact("T", ("e2", "e3", "e2")),
    ],
)


@pytest.mark.parametrize(
    "text,parameters",
    [
        ("forall x. (R(x) -> exists y. S(x, y))", ("u",)),  # ∀, ⇒, parameter absent
        ("R(u) <-> exists x. S(u, x)", ("u",)),  # ⇔
        ("S(u, v) & u = v", ("u", "v")),  # equality
        ("exists x. (S(x, u) & x != u)", ("u",)),
        ("S(u, u) | T(u, v, u)", ("u", "v")),  # a variable repeated in one atom
        ("p & !q & R(u)", ("u",)),  # nullary atoms
        ("E(u) | !E(u)", ("u",)),  # the always-empty relation
        ("R(u) & exists u. S(u, u)", ("u",)),  # a quantifier shadowing a parameter
        ("exists x. (S(x, u) & forall x. (R(x) -> S(x, x)))", ("u",)),  # nested shadowing
        ("true", ("u", "v")),  # no parameter in the guard
        ("exists x, y. (S(x, y) & T(y, u, y))", ("u", "v", "w")),
    ],
)
@pytest.mark.parametrize("domain", [None, frozenset({"e2", "e3"}), frozenset()])
def test_plan_shapes_against_the_interpreter(text, parameters, domain):
    guard = parse_query(text)
    plan = compile_query(guard, SCHEMA, parameters)
    effective = INSTANCE.active_domain() if domain is None else domain
    assert plan.answers(INSTANCE, domain) == _interpreted(guard, parameters, INSTANCE, effective)


def test_answers_follow_the_given_variable_order():
    guard = parse_query("S(u, v)")
    plan = compile_query(guard, SCHEMA, ("v", "u"))
    assert plan.variables == ("v", "u")
    # Ordered by u first (variables by name), tuples aligned with (v, u).
    assert plan.answers(INSTANCE) == [("e1", "e1"), ("e2", "e1"), ("e2", "e3")]


# -- schema errors ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,error",
    [("exists x. Nope(x)", UnknownRelationError), ("exists x. S(x)", ArityError)],
)
def test_compiling_checks_every_atom_against_the_schema(text, error):
    # The atom sits where the interpreter would never reach it.
    guarded = Implies(FalseQuery(), parse_query(text))
    with pytest.raises(error):
        compile_query(guarded, SCHEMA)


def test_free_variables_must_be_answer_variables():
    with pytest.raises(SubstitutionError):
        compile_query(parse_query("S(u, v)"), SCHEMA, ("u",))


def _system_with_guard(guard: str, constraint: str | None = None):
    builder = DMSBuilder("malformed")
    builder.relations(("p", 0), ("R", 1))
    builder.initially("p")
    builder.action("make", fresh=("v",), guard="p", add=[("R", "v")])
    builder.action("use", parameters=("u",), guard=guard, delete=[("R", "u")])
    if constraint is not None:
        builder.constraint(constraint)
    return builder.build()


SCHEMA_ERRORS = [
    ("guard", _system_with_guard("R(u) & Nope(u)"), "p", UnknownRelationError),
    ("guard", _system_with_guard("R(u) & R(u, u)"), "p", ArityError),
    ("condition", example_31_system(), parse_query("exists x. Nope(x)"), UnknownRelationError),
    ("condition", example_31_system(), parse_query("exists x. Q(x, x)"), ArityError),
    ("constraint", _system_with_guard("R(u)", "!Nope"), "p", UnknownRelationError),
]


@pytest.mark.parametrize("where,system,condition,error", SCHEMA_ERRORS)
@pytest.mark.parametrize("bound", [None, 2])
def test_schema_errors_raise_before_any_state_is_explored(where, system, condition, error, bound):
    seen = []
    with pytest.raises(error):
        run_reachability(
            system, condition, bound=bound, options=ExplorationOptions(max_depth=4),
            store=False, on_state=lambda configuration, depth: seen.append(depth),
        )
    assert seen == []


# -- the count gate --------------------------------------------------------------------


def test_booking_exploration_calls_no_interpreter_and_no_holds(monkeypatch):
    calls = {"_eval": 0, "holds": 0}
    interpret, holds = evaluator._eval, DatabaseInstance.holds

    def counted_eval(*args):
        calls["_eval"] += 1
        return interpret(*args)

    def counted_holds(self, *args):
        calls["holds"] += 1
        return holds(self, *args)

    monkeypatch.setattr(evaluator, "_eval", counted_eval)
    monkeypatch.setattr(DatabaseInstance, "holds", counted_holds)
    result = run_reachability(
        booking_agency_system(), parse_query("Exists x. BAccepted(x)"), bound=2,
        options=ExplorationOptions(max_depth=5), store=False,
    )
    assert result.configurations_explored == 448
    assert calls == {"_eval": 0, "holds": 0}


# -- pickling --------------------------------------------------------------------------


def _outcome(system, condition, bound):
    result = run_reachability(
        system, condition, bound=bound, options=ExplorationOptions(max_depth=6), store=False
    )
    labels = result.witness.labels() if result.witness is not None else None
    return result.reachable, result.configurations_explored, result.edges_explored, labels


def test_compiled_system_pickles_and_explores_the_same_graph():
    system = booking_agency_system().compile_plans()
    assert all("_guard_plan" in action.__dict__ for action in system.actions)
    assert all("_update_plan" in action.__dict__ for action in system.actions)
    clone = pickle.loads(pickle.dumps(system))
    assert clone == system
    assert clone.actions == system.actions
    assert not any("_guard_plan" in action.__dict__ for action in clone.actions)
    assert not any("_update_plan" in action.__dict__ for action in clone.actions)
    condition = parse_query("Exists x. BDrafting(x)")
    for bound in (2, None):
        assert _outcome(clone, condition, bound) == _outcome(system, condition, bound)


def test_constraint_sets_compare_by_their_sentences():
    assert booking_agency_system() == booking_agency_system()
    assert hash(booking_agency_system()) == hash(booking_agency_system())
    constraints = ConstraintSet([parse_query("forall x. (Q(x) -> !R(x))")])
    same = ConstraintSet([parse_query("forall x. (Q(x) -> !R(x))")])
    system = example_31_system().with_constraints(constraints).compile_plans()
    assert constraints == same and hash(constraints) == hash(same)
    clone = pickle.loads(pickle.dumps(system))
    assert clone == system and hash(clone) == hash(system)
    assert clone.constraints == constraints
    other = ConstraintSet([parse_query("forall x. (R(x) -> !Q(x))")])
    assert constraints != other
    assert system != example_31_system().with_constraints(other)
    assert constraints != ConstraintSet.empty()


def test_plans_skip_a_relation_without_rows():
    plan = compile_query(parse_query("exists x. (E(x) & S(x, u)) & R(u)"), SCHEMA, ("u",))
    assert plan.required == frozenset({"E", "R", "S"})
    assert not plan.can_answer(INSTANCE)
    assert plan.answers(INSTANCE) == []
    negated = compile_query(parse_query("!E(u) & R(u)"), SCHEMA, ("u",))
    assert negated.required == frozenset({"R"})
    assert negated.answers(INSTANCE) == [("e1",), ("e2",)]
    assert not compile_query(parse_query("exists x. E(x)"), SCHEMA).holds(INSTANCE)


def test_constraint_plans_never_pickle():
    constraints = ConstraintSet([parse_query("forall x. (Q(x) -> !R(x))")])
    system = example_31_system().with_constraints(constraints).compile_plans()
    clone = pickle.loads(pickle.dumps(system))
    assert clone.constraints.constraints == constraints.constraints
    instance = DatabaseInstance(system.schema, [Fact("Q", ("e1",)), Fact("R", ("e1",))])
    assert not clone.constraints.satisfied_by(instance)
    assert clone.constraints.violated_by(instance) == constraints.constraints
    assert _outcome(clone, "p", 2) == _outcome(system, "p", 2)
