"""Tests for active-domain evaluation of FOL(R) queries."""

import pytest

from repro.database.instance import DatabaseInstance, Fact
from repro.database.substitution import Substitution
from repro.errors import QueryError, SubstitutionError
from repro.fol.evaluator import (
    QueryEvaluator,
    answers,
    evaluate_sentence,
    iter_answers,
    satisfies,
)
from repro.fol.parser import parse_query
from repro.fol.syntax import Atom, Equals, Not


@pytest.fixture
def instance(simple_schema):
    return DatabaseInstance.of(
        simple_schema,
        Fact.of("p"),
        Fact.of("R", "e1"),
        Fact.of("R", "e2"),
        Fact.of("Q", "e2"),
        Fact.of("S", "e1", "e2"),
    )


def test_atom_satisfaction(instance):
    assert satisfies(instance, Atom("R", ("u",)), {"u": "e1"})
    assert not satisfies(instance, Atom("R", ("u",)), {"u": "e9"})
    assert satisfies(instance, Atom("p", ()))


def test_missing_binding_raises(instance):
    with pytest.raises(SubstitutionError):
        satisfies(instance, Atom("R", ("u",)), {})


def test_equality_and_negation(instance):
    assert satisfies(instance, Equals("u", "v"), {"u": "e1", "v": "e1"})
    assert satisfies(instance, Not(Equals("u", "v")), {"u": "e1", "v": "e2"})


def test_quantifiers_range_over_active_domain(instance):
    assert evaluate_sentence(parse_query("exists u. R(u) & Q(u)"), instance)
    assert not evaluate_sentence(parse_query("forall u. Q(u)"), instance)
    # Every active element is in R, so the universal statement holds.
    assert evaluate_sentence(parse_query("forall u. R(u)"), instance)
    # Values outside the active domain are not quantified over.
    assert evaluate_sentence(parse_query("forall u. Q(u) -> R(u)"), instance)


def test_nested_quantifiers(instance):
    assert evaluate_sentence(parse_query("exists u, v. S(u, v)"), instance)
    assert not evaluate_sentence(parse_query("exists u. S(u, u)"), instance)


def test_evaluate_sentence_requires_sentence(instance):
    with pytest.raises(QueryError):
        evaluate_sentence(parse_query("R(u)"), instance)


def test_answers_enumerate_active_domain(instance):
    result = answers(parse_query("R(u)"), instance)
    assert result == frozenset({Substitution({"u": "e1"}), Substitution({"u": "e2"})})


def test_answers_boolean_query(instance):
    assert answers(parse_query("p"), instance) == frozenset({Substitution.empty()})
    assert answers(parse_query("!p"), instance) == frozenset()


def test_answers_multiple_free_variables(instance):
    result = answers(parse_query("S(u, v)"), instance)
    assert result == frozenset({Substitution({"u": "e1", "v": "e2"})})


def test_answers_negative_query_active_domain_semantics(instance):
    # ¬Q(u) is answered only over adom(I).
    result = {sigma["u"] for sigma in answers(parse_query("!Q(u)"), instance)}
    assert result == {"e1"}


def test_iter_answers_binds_the_given_variables_over_the_given_domain(instance):
    # A variable the query does not mention still ranges over the domain,
    # and the domain may be narrower than adom(I) (Recent_b for successors).
    bindings = iter_answers(parse_query("p & R(u)"), instance, ("w", "u"), {"e2", "e1"})
    assert [dict(sigma) for sigma in bindings] == [
        {"u": "e1", "w": "e1"},
        {"u": "e1", "w": "e2"},
        {"u": "e2", "w": "e1"},
        {"u": "e2", "w": "e2"},
    ]
    narrowed = iter_answers(parse_query("R(u)"), instance, ("u",), {"e2"})
    assert [dict(sigma) for sigma in narrowed] == [{"u": "e2"}]
    with pytest.raises(SubstitutionError):
        list(iter_answers(parse_query("S(u, v)"), instance, ("u",)))


def test_query_evaluator_facade(instance):
    evaluator = QueryEvaluator(instance)
    assert evaluator.holds(parse_query("p"))
    assert evaluator.satisfies(parse_query("R(u)"), {"u": "e1"})
    assert len(evaluator.answers(parse_query("R(u)"))) == 2
    assert evaluator.instance is instance


def test_implication_and_iff(instance):
    assert evaluate_sentence(parse_query("p -> exists u. R(u)"), instance)
    assert evaluate_sentence(parse_query("p <-> exists u. R(u)"), instance)
    assert not evaluate_sentence(parse_query("p <-> exists u. S(u, u)"), instance)


def test_empty_instance_quantification(simple_schema):
    empty = DatabaseInstance.empty(simple_schema)
    assert not evaluate_sentence(parse_query("exists u. R(u)"), empty)
    assert evaluate_sentence(parse_query("forall u. R(u)"), empty)
