"""Query normalisation helpers.

Provides negation normal form (NNF), elimination of derived connectives,
classification of query fragments (UCQ — union of conjunctive queries, as
used by the Appendix D reductions), and bound-variable standardisation.
"""

from __future__ import annotations

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

__all__ = [
    "eliminate_derived",
    "to_nnf",
    "standardize_apart",
    "is_positive_existential",
    "is_union_of_conjunctive_queries",
    "quantifier_depth",
    "count_data_variables",
]


def eliminate_derived(query: Query) -> Query:
    """Rewrite ``⇒``, ``⇔``, ``∀`` and ``false`` in terms of the core grammar.

    The result uses only ``true``, atoms, ``=``, ``¬``, ``∧``, ``∨`` and ``∃``
    (``∨`` is kept because it is a harmless abbreviation).
    """
    if isinstance(query, (TrueQuery, Atom, Equals)):
        return query
    if isinstance(query, FalseQuery):
        return Not(TrueQuery())
    if isinstance(query, Not):
        return Not(eliminate_derived(query.operand))
    if isinstance(query, And):
        return And(eliminate_derived(query.left), eliminate_derived(query.right))
    if isinstance(query, Or):
        return Or(eliminate_derived(query.left), eliminate_derived(query.right))
    if isinstance(query, Implies):
        return Or(Not(eliminate_derived(query.left)), eliminate_derived(query.right))
    if isinstance(query, Iff):
        left = eliminate_derived(query.left)
        right = eliminate_derived(query.right)
        return And(Or(Not(left), right), Or(Not(right), left))
    if isinstance(query, Exists):
        return Exists(query.variable, eliminate_derived(query.body))
    if isinstance(query, Forall):
        return Not(Exists(query.variable, Not(eliminate_derived(query.body))))
    raise TypeError(f"unsupported query node {type(query).__name__}")


def to_nnf(query: Query) -> Query:
    """Negation normal form: negations pushed down to atoms.

    Derived connectives are eliminated first; ``∀`` may appear in the
    result (dual of ``∃``).
    """
    return _nnf(eliminate_derived(query), negated=False)


def _nnf(query: Query, negated: bool) -> Query:
    if isinstance(query, TrueQuery):
        return FalseQuery() if negated else query
    if isinstance(query, FalseQuery):
        return TrueQuery() if negated else query
    if isinstance(query, (Atom, Equals)):
        return Not(query) if negated else query
    if isinstance(query, Not):
        return _nnf(query.operand, not negated)
    if isinstance(query, And):
        left = _nnf(query.left, negated)
        right = _nnf(query.right, negated)
        return Or(left, right) if negated else And(left, right)
    if isinstance(query, Or):
        left = _nnf(query.left, negated)
        right = _nnf(query.right, negated)
        return And(left, right) if negated else Or(left, right)
    if isinstance(query, Exists):
        body = _nnf(query.body, negated)
        return Forall(query.variable, body) if negated else Exists(query.variable, body)
    if isinstance(query, Forall):
        body = _nnf(query.body, negated)
        return Exists(query.variable, body) if negated else Forall(query.variable, body)
    raise TypeError(f"unsupported query node {type(query).__name__}")


def standardize_apart(query: Query, avoid: frozenset | set = frozenset()) -> Query:
    """Rename bound variables so that each quantifier binds a distinct name
    that clashes neither with free variables nor with ``avoid``.
    """
    taken = set(avoid) | set(query.variables())
    counter = [0]

    def fresh() -> str:
        while True:
            counter[0] += 1
            candidate = f"z{counter[0]}"
            if candidate not in taken:
                taken.add(candidate)
                return candidate

    def rebuild(node: Query, renaming: dict[str, str]) -> Query:
        if isinstance(node, (TrueQuery, FalseQuery)):
            return node
        if isinstance(node, Atom):
            return Atom(node.relation, tuple(renaming.get(a, a) for a in node.arguments))
        if isinstance(node, Equals):
            return Equals(renaming.get(node.left, node.left), renaming.get(node.right, node.right))
        if isinstance(node, Not):
            return Not(rebuild(node.operand, renaming))
        if isinstance(node, (And, Or, Implies, Iff)):
            return type(node)(rebuild(node.left, renaming), rebuild(node.right, renaming))
        if isinstance(node, (Exists, Forall)):
            new_name = fresh()
            inner = dict(renaming)
            inner[node.variable] = new_name
            return type(node)(new_name, rebuild(node.body, inner))
        raise TypeError(f"unsupported query node {type(node).__name__}")

    return rebuild(query, {})


def is_positive_existential(query: Query) -> bool:
    """True when the query uses only atoms, ``=``, ``∧``, ``∨``, ``∃``, ``true``."""
    if isinstance(query, (TrueQuery, Atom, Equals)):
        return True
    if isinstance(query, (And, Or)):
        return is_positive_existential(query.left) and is_positive_existential(query.right)
    if isinstance(query, Exists):
        return is_positive_existential(query.body)
    return False


def is_union_of_conjunctive_queries(query: Query) -> bool:
    """True when the query is a union of conjunctive queries (UCQ).

    A UCQ is a disjunction of conjunctive queries; a conjunctive query is
    built from atoms, equalities, ``∧`` and ``∃``.  This is the guard
    fragment used by the binary-relation undecidability reduction of
    Appendix D.
    """

    def is_cq(node: Query) -> bool:
        if isinstance(node, (TrueQuery, Atom, Equals)):
            return True
        if isinstance(node, And):
            return is_cq(node.left) and is_cq(node.right)
        if isinstance(node, Exists):
            return is_cq(node.body)
        return False

    def strip_unions(node: Query) -> list[Query]:
        if isinstance(node, Or):
            return strip_unions(node.left) + strip_unions(node.right)
        return [node]

    return all(is_cq(part) for part in strip_unions(query))


def quantifier_depth(query: Query) -> int:
    """Maximum nesting depth of quantifiers."""
    if isinstance(query, (Exists, Forall)):
        return 1 + quantifier_depth(query.body)
    children = query.children()
    if not children:
        return 0
    return max(quantifier_depth(child) for child in children)


def count_data_variables(query: Query) -> int:
    """Number of distinct data variables (the ``n`` of the §6.6 complexity bound)."""
    return len(query.variables())
