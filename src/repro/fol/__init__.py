"""FOL(R) queries: syntax, parsing, normalisation and active-domain evaluation.

This is the query language of the paper's Section 2, used both as action
guards (Section 3) and as the atomic formulae ``Q@x`` of MSO-FO (Section 4).
Explorations answer guards, reachability conditions and constraints
through join plans (:mod:`repro.fol.plan`); the tree-walking interpreter
(:mod:`repro.fol.evaluator`) is their reference.
"""

from repro.fol.active import active_query, fresh_variable_names
from repro.fol.builder import QueryBuilder
from repro.fol.evaluator import (
    QueryEvaluator,
    answers,
    evaluate_sentence,
    iter_answers,
    satisfies,
)
from repro.fol.normalize import (
    count_data_variables,
    eliminate_derived,
    is_positive_existential,
    is_union_of_conjunctive_queries,
    quantifier_depth,
    standardize_apart,
    to_nnf,
)
from repro.fol.parser import parse_query
from repro.fol.plan import QueryPlan, compile_query
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
    atom,
    conjunction,
    disjunction,
    exists,
    forall,
)

__all__ = [
    "And",
    "Atom",
    "Equals",
    "Exists",
    "FalseQuery",
    "Forall",
    "Iff",
    "Implies",
    "Not",
    "Or",
    "Query",
    "QueryBuilder",
    "QueryEvaluator",
    "QueryPlan",
    "TrueQuery",
    "active_query",
    "answers",
    "atom",
    "compile_query",
    "conjunction",
    "count_data_variables",
    "disjunction",
    "eliminate_derived",
    "evaluate_sentence",
    "exists",
    "forall",
    "fresh_variable_names",
    "is_positive_existential",
    "is_union_of_conjunctive_queries",
    "iter_answers",
    "parse_query",
    "quantifier_depth",
    "satisfies",
    "standardize_apart",
    "to_nnf",
]
