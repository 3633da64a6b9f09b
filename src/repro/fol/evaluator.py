"""Active-domain evaluation of FOL(R) queries.

Implements the semantics of Appendix A of the paper: ``I, σ ⊨ Q``, the
answer set ``ans(Q, I)`` and boolean-query evaluation.  Quantifiers range
over ``adom(I)`` (active-domain semantics), which also matches the
execution-semantics rule that action parameters are substituted with
values from the current active domain.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.database.domain import Value
from repro.database.instance import DatabaseInstance
from repro.database.substitution import Substitution
from repro.errors import QueryError, SubstitutionError
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
    Query,
    TrueQuery,
)

__all__ = ["satisfies", "answers", "iter_answers", "evaluate_sentence", "QueryEvaluator"]


def satisfies(
    instance: DatabaseInstance, query: Query, sigma: Mapping[str, Value] | None = None
) -> bool:
    """``I, σ ⊨ Q``.

    Args:
        instance: the database instance ``I``.
        query: the FOL(R) query ``Q``.
        sigma: a substitution binding at least ``Free-Vars(Q)``; may be
            omitted for sentences.

    Raises:
        SubstitutionError: if a free variable of ``Q`` is not bound.
    """
    bindings = dict(sigma) if sigma is not None else {}
    missing = query.free_variables() - set(bindings)
    if missing:
        raise SubstitutionError(
            f"free variables {sorted(missing)} of {query} are not bound by {bindings!r}"
        )
    return _eval(query, instance, bindings)


def evaluate_sentence(query: Query, instance: DatabaseInstance) -> bool:
    """Evaluate a boolean query (``I ⊨ Q``)."""
    if not query.is_sentence():
        raise QueryError(f"{query} is not a sentence; use satisfies() with a substitution")
    return _eval(query, instance, {})


def iter_answers(
    query: Query,
    instance: DatabaseInstance,
    variables: Iterable[str] | None = None,
    domain: Iterable[Value] | None = None,
) -> Iterator[Substitution]:
    """Iterate over the assignments of ``variables`` into ``domain`` satisfying ``Q``.

    The defaults, ``Free-Vars(Q)`` over ``adom(I)``, give ``ans(Q, I)``;
    for a boolean query the iterator then yields the empty substitution
    exactly when the query holds (mirroring ``ans(Q, I) = {ε}`` in the
    paper).  Action successors bind the action parameters instead, over
    ``Recent_b``.  ``variables`` must cover ``Free-Vars(Q)``: evaluating
    an unbound variable raises :class:`~repro.errors.SubstitutionError`.

    Answers come in lexicographic order, variables by name and values by
    ``repr``.
    """
    names = sorted(query.free_variables() if variables is None else variables)
    if not names:
        if _eval(query, instance, {}):
            yield Substitution.empty()
        return
    values = sorted(instance.active_domain() if domain is None else domain, key=repr)
    yield from _iter_assignments(query, instance, names, values, {})


def answers(query: Query, instance: DatabaseInstance) -> frozenset:
    """``ans(Q, I)`` as a frozen set of :class:`Substitution`."""
    return frozenset(iter_answers(query, instance))


def _iter_assignments(
    query: Query,
    instance: DatabaseInstance,
    free: list[str],
    domain: list[Value],
    partial: dict[str, Value],
) -> Iterator[Substitution]:
    if len(partial) == len(free):
        if _eval(query, instance, partial):
            yield Substitution(partial)
        return
    variable = free[len(partial)]
    for value in domain:
        partial[variable] = value
        yield from _iter_assignments(query, instance, free, domain, partial)
    partial.pop(variable, None)


def _eval(query: Query, instance: DatabaseInstance, bindings: dict[str, Value]) -> bool:
    """Recursive evaluation under a (mutable) binding environment."""
    if isinstance(query, TrueQuery):
        return True
    if isinstance(query, FalseQuery):
        return False
    if isinstance(query, Atom):
        values = tuple(_lookup(bindings, arg) for arg in query.arguments)
        return instance.holds(query.relation, *values)
    if isinstance(query, Equals):
        return _lookup(bindings, query.left) == _lookup(bindings, query.right)
    if isinstance(query, Not):
        return not _eval(query.operand, instance, bindings)
    if isinstance(query, And):
        return _eval(query.left, instance, bindings) and _eval(query.right, instance, bindings)
    if isinstance(query, Or):
        return _eval(query.left, instance, bindings) or _eval(query.right, instance, bindings)
    if isinstance(query, Implies):
        return (not _eval(query.left, instance, bindings)) or _eval(
            query.right, instance, bindings
        )
    if isinstance(query, Iff):
        return _eval(query.left, instance, bindings) == _eval(query.right, instance, bindings)
    if isinstance(query, Exists):
        return _eval_exists(query, instance, bindings)
    if isinstance(query, Forall):
        return not _eval_exists(Exists(query.variable, Not(query.body)), instance, bindings)
    raise QueryError(f"unsupported query node {type(query).__name__}")


def _eval_exists(query: Exists, instance: DatabaseInstance, bindings: dict[str, Value]) -> bool:
    saved_present = query.variable in bindings
    saved_value = bindings.get(query.variable)
    try:
        for value in instance.active_domain():
            bindings[query.variable] = value
            if _eval(query.body, instance, bindings):
                return True
        return False
    finally:
        if saved_present:
            bindings[query.variable] = saved_value
        else:
            bindings.pop(query.variable, None)


def _lookup(bindings: Mapping[str, Value], variable: str) -> Value:
    try:
        return bindings[variable]
    except KeyError:
        raise SubstitutionError(f"variable {variable!r} is not bound") from None


class QueryEvaluator:
    """A small façade bundling evaluation entry points for one instance.

    Convenient when many queries are evaluated against the same database
    instance (e.g. when enumerating action successors).
    """

    __slots__ = ("_instance",)

    def __init__(self, instance: DatabaseInstance) -> None:
        self._instance = instance

    @property
    def instance(self) -> DatabaseInstance:
        """The database instance queries are evaluated against."""
        return self._instance

    def satisfies(self, query: Query, sigma: Mapping[str, Value] | None = None) -> bool:
        """``I, σ ⊨ Q`` for the wrapped instance."""
        return satisfies(self._instance, query, sigma)

    def answers(self, query: Query) -> frozenset:
        """``ans(Q, I)`` for the wrapped instance."""
        return answers(query, self._instance)

    def iter_answers(self, query: Query) -> Iterable[Substitution]:
        """Iterator form of :meth:`answers`."""
        return iter_answers(query, self._instance)

    def holds(self, query: Query) -> bool:
        """Evaluate a sentence against the wrapped instance."""
        return evaluate_sentence(query, self._instance)
