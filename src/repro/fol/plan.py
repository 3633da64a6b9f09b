"""Join plans: FOL(R) queries compiled once and answered by joins.

The interpreter of :mod:`repro.fol.evaluator` walks the query tree once
per candidate binding and lets every ``∃`` range over the whole active
domain.  :func:`compile_query` compiles a query once into a
:class:`QueryPlan` instead:

* the conjunction is flattened, and ``∃``-chains are folded into it;
* positive atoms are scanned most-bound first, binding their variables
  from the relation's rows; a scan binds an answer variable only to a
  value of the caller's domain (``Recent_b`` for an action guard);
* negations, equalities, other connectives and fully bound atoms are
  checked as soon as their variables are bound;
* once every answer variable is bound, the rest of the join only has to
  succeed once, so it stops at its first solution;
* a variable that no positive atom binds ranges over the domain if it is
  an answer variable, or over ``adom(I)`` if it is quantified;
* a plan records the relations of the positive atoms of its top
  conjunction (∃ folded in), and answers nothing without building its
  environment when one of them has no rows.

``∀x.Q`` is ``¬∃x.¬Q``, with the negation pushed through ``¬``, ``⇒``
and ``∨`` so that the body's atoms stay scannable.  Every quantifier
gets its own slot, so a quantifier that reuses an outer name shadows it
without touching the outer binding.  Every atom is checked against the
schema when compiling: an undeclared relation raises
:class:`~repro.errors.UnknownRelationError`, a wrong arity
:class:`~repro.errors.ArityError`.

Answers come in the order of :func:`repro.fol.evaluator.iter_answers`
(variables by name, values by ``repr``), which stays the reference the
tests compare plans against.  A plan holds closures, so it never
pickles: owners leave it out of their pickled state and compile again.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable

from repro.database.instance import DatabaseInstance
from repro.database.schema import Schema
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

__all__ = ["QueryPlan", "compile_query"]

# A plan runs over one list: its first cells hold the instance's rows,
# adom(I), the answer domain and the answer sink; variable slots follow.
_ROWS, _ADOM, _DOMAIN, _OUT = range(4)
_FIRST_SLOT = 4
_NO_ROWS: frozenset = frozenset()

#: A compiled step: ``step(env)`` returns True to stop the enumeration.
Step = Callable[[list], bool]

# Lowered nodes are tuples ``(kind, free slots, ...)``.
_TRUE = ("true", frozenset())
_FALSE = ("false", frozenset())
_CONNECTIVES = {Or: "or", Implies: "implies", Iff: "iff"}


class QueryPlan:
    """A query compiled into a join plan (see the module docs).

    Attributes:
        query: the compiled query.
        variables: the answer variables, in the order answer tuples use.
        required: the relations the top conjunction scans; the query has
            no answer while one of them has no rows.
    """

    __slots__ = ("query", "variables", "required", "_run", "_size", "_order")

    def __init__(
        self,
        query: Query,
        variables: tuple[str, ...],
        run: Step,
        size: int,
        required: frozenset,
    ) -> None:
        self.query = query
        self.variables = variables
        self.required = required
        self._run = run
        self._size = size
        self._order = tuple(sorted(range(len(variables)), key=variables.__getitem__))

    def can_answer(self, instance: DatabaseInstance) -> bool:
        """False when a relation in :attr:`required` has no rows in ``instance``."""
        return instance.rows_by_relation().keys() >= self.required

    def _env(self, instance: DatabaseInstance) -> list:
        env = [None] * self._size
        env[_ROWS] = instance.rows_by_relation()
        env[_ADOM] = instance.active_domain()
        return env

    def answers(
        self, instance: DatabaseInstance, domain: Iterable | None = None
    ) -> list[tuple]:
        """The assignments of :attr:`variables` into ``domain`` that satisfy the query.

        ``domain`` defaults to ``adom(I)``.  Each answer is a tuple of
        values aligned with :attr:`variables`; the list is in the order
        :func:`~repro.fol.evaluator.iter_answers` yields the same answers.
        """
        if not self.can_answer(instance):
            return []
        env = self._env(instance)
        if domain is None:
            domain = env[_ADOM]
        elif not isinstance(domain, (set, frozenset)):
            domain = frozenset(domain)
        env[_DOMAIN] = domain
        found = env[_OUT] = set()
        if not self.variables:
            return [()] if self._run(env) else []
        self._run(env)
        if len(found) < 2:
            return list(found)
        rank = {value: index for index, value in enumerate(sorted(domain, key=repr))}
        order = self._order
        return sorted(found, key=lambda answer: [rank[answer[index]] for index in order])

    def holds(self, instance: DatabaseInstance) -> bool:
        """``I ⊨ Q`` for a plan compiled without answer variables."""
        if self.variables:
            raise QueryError(f"{self.query} has answer variables; use answers()")
        return self.can_answer(instance) and self._run(self._env(instance))

    def __repr__(self) -> str:
        return f"QueryPlan({self.query}, variables={list(self.variables)})"


def compile_query(query: Query, schema: Schema, variables: Iterable[str] = ()) -> QueryPlan:
    """Compile ``query`` over ``schema`` into a plan answering for ``variables``.

    ``variables`` must cover ``Free-Vars(Q)``.  Without variables the
    query must be a sentence, and :meth:`QueryPlan.holds` evaluates it.

    Raises:
        UnknownRelationError: an atom names an undeclared relation.
        ArityError: an atom has the wrong number of arguments.
        SubstitutionError: a free variable is not among ``variables``.
    """
    names = tuple(dict.fromkeys(variables))
    scope = {name: _FIRST_SLOT + index for index, name in enumerate(names)}
    compiler = _Compiler(schema, scope)
    root = compiler.lower(query, scope)
    targets = tuple(scope.values())
    if targets:
        run = compiler.join(root, frozenset(), targets, _recorder(targets))
    else:
        run = compiler.check(root, frozenset())
    parts, _ = _flatten(root)
    required = frozenset(part[2] for part in parts if part[0] == "atom")
    return QueryPlan(query, names, run, compiler.size, required)


class _Compiler:
    """Lowers a query onto slots and orders its joins."""

    def __init__(self, schema: Schema, scope: dict[str, int]) -> None:
        self.schema = schema
        self.size = _FIRST_SLOT + len(scope)
        # The cell each slot ranges over when nothing else binds it.
        self.ranges = dict.fromkeys(scope.values(), _DOMAIN)

    # -- lowering -------------------------------------------------------------

    def lower(self, query: Query, scope: dict[str, int]) -> tuple:
        if isinstance(query, Atom):
            self.schema.check_atom(query.relation, query.arguments)
            slots = _slots(scope, query.arguments)
            return ("atom", frozenset(slots), query.relation, slots)
        if isinstance(query, Equals):
            left, right = _slots(scope, (query.left, query.right))
            return ("eq", frozenset((left, right)), left, right)
        if isinstance(query, TrueQuery):
            return _TRUE
        if isinstance(query, FalseQuery):
            return _FALSE
        if isinstance(query, Not):
            return _negate(self.lower(query.operand, scope))
        if isinstance(query, And):
            return _and(self.lower(query.left, scope), self.lower(query.right, scope))
        if type(query) in _CONNECTIVES:
            left, right = self.lower(query.left, scope), self.lower(query.right, scope)
            return (_CONNECTIVES[type(query)], left[1] | right[1], left, right)
        if isinstance(query, (Exists, Forall)):
            slot = self.size
            self.size += 1
            self.ranges[slot] = _ADOM
            body = self.lower(query.body, {**scope, query.variable: slot})
            if isinstance(query, Forall):
                return _negate(_exists(slot, _negate(body)))
            return _exists(slot, body)
        raise QueryError(f"unsupported query node {type(query).__name__}")

    # -- compiling ------------------------------------------------------------

    def check(self, node: tuple, bound: frozenset) -> Step:
        """A test of ``node`` once every one of its free slots is bound."""
        kind = node[0]
        if kind == "atom":
            return _member(node[2], node[3])
        if kind == "eq":
            left, right = node[2], node[3]
            return lambda env: env[left] == env[right]
        if kind == "not":
            inner = self.check(node[2], bound)
            return lambda env: not inner(env)
        if kind in ("and", "exists"):
            return self.join(node, bound, (), _found)
        if kind == "true":
            return _found
        if kind == "false":
            return _never
        left, right = self.check(node[2], bound), self.check(node[3], bound)
        if kind == "or":
            return lambda env: left(env) or right(env)
        if kind == "implies":
            return lambda env: not left(env) or right(env)
        return lambda env: left(env) == right(env)

    def join(self, node: tuple, bound: frozenset, targets: tuple, final: Step) -> Step:
        """Enumerate the bindings of ``targets`` (and of the ∃-slots folded in).

        ``final`` runs once per solution; after the last target is bound
        the remaining steps only have to succeed once.
        """
        parts, quantified = _flatten(node)
        open_targets = [slot for slot in targets if slot not in bound]
        return self._rest(parts, bound, open_targets, quantified, final)

    def _rest(self, parts: list, known: frozenset, targets: list, quantified: list, final: Step) -> Step:
        """The steps answering ``parts`` once the ``known`` slots are bound.

        Ready parts are checked first; then one binder binds more slots
        and hands each binding to the steps compiled for the remainder.
        """
        if not targets and final is not _found:
            # Every target is bound: the rest only has to succeed once.
            tail = self._rest(parts, known, targets, quantified, _found)
            return lambda env: final(env) if tail(env) else False
        ready = [part for part in parts if part[1] <= known]
        waiting = [part for part in parts if not part[1] <= known]
        if targets or quantified:
            binder, used, new = self._binder(waiting, known, targets or quantified)
            run = binder(
                self._rest(
                    [part for part in waiting if part is not used],
                    known | new,
                    [slot for slot in targets if slot not in new],
                    [slot for slot in quantified if slot not in new],
                    final,
                )
            )
        else:
            run = final
        for part in reversed(ready):
            run = _test(self.check(part, known), run)
        return run

    def _binder(self, parts: list, known: frozenset, wanted: list):
        """The next binder, the part it answers, and the slots it binds.

        An equality with one bound side binds the other; otherwise the
        most-bound atom over a wanted slot is scanned; otherwise the
        first wanted slot ranges over its domain.  The binder is returned
        unbuilt: it takes the step its bindings continue with.
        """
        for part in parts:
            if part[0] == "eq" and (part[2] in known) != (part[3] in known):
                source, slot = (part[2], part[3]) if part[2] in known else (part[3], part[2])
                within = self.ranges[slot]
                return (lambda after: _assign(slot, source, within, after)), part, {slot}
        best, best_rank = None, None
        for part in parts:
            if part[0] == "atom" and not part[1].isdisjoint(wanted):
                rank = (len(part[1] & known), -len(part[1]))
                if best is None or rank > best_rank:
                    best, best_rank = part, rank
        if best is not None:
            relation, slots, ranges = best[2], best[3], self.ranges
            return (lambda after: _scan(relation, slots, known, ranges, after)), best, best[1] - known
        slot = wanted[0]
        within = self.ranges[slot]
        return (lambda after: _enumerate(slot, within, after)), None, {slot}


# -- lowering helpers -----------------------------------------------------------


def _slots(scope: dict[str, int], names: tuple[str, ...]) -> tuple[int, ...]:
    try:
        return tuple([scope[name] for name in names])
    except KeyError as missing:
        raise SubstitutionError(f"variable {missing.args[0]!r} is not bound") from None


def _and(*parts: tuple) -> tuple:
    flat: list[tuple] = []
    for part in parts:
        if part[0] == "and":
            flat.extend(part[2])
        elif part[0] != "true":
            flat.append(part)
    if not flat:
        return _TRUE
    return ("and", frozenset().union(*(part[1] for part in flat)), tuple(flat))


def _negate(node: tuple) -> tuple:
    kind = node[0]
    if kind == "not":
        return node[2]
    if kind == "true":
        return _FALSE
    if kind == "false":
        return _TRUE
    if kind == "implies":
        return _and(node[2], _negate(node[3]))
    if kind == "or":
        return _and(_negate(node[2]), _negate(node[3]))
    return ("not", node[1], node)


def _exists(slot: int, body: tuple) -> tuple:
    free = body[1] - {slot}
    if body[0] == "exists":
        return ("exists", free, (slot,) + body[2], body[3])
    return ("exists", free, (slot,), body)


def _flatten(node: tuple) -> tuple[list[tuple], list[int]]:
    """The conjuncts of ``node`` with its ∃-chains folded in, and their slots."""
    parts: list[tuple] = []
    quantified: list[int] = []

    def visit(part: tuple) -> None:
        if part[0] == "and":
            for child in part[2]:
                visit(child)
        elif part[0] == "exists":
            quantified.extend(part[2])
            visit(part[3])
        elif part[0] != "true":
            parts.append(part)

    visit(node)
    return parts, quantified


# -- runtime steps --------------------------------------------------------------


def _found(env: list) -> bool:
    return True


def _never(env: list) -> bool:
    return False


def _recorder(slots: tuple[int, ...]) -> Step:
    if len(slots) == 1:
        (slot,) = slots

        def record(env: list) -> bool:
            env[_OUT].add((env[slot],))
            return False

        return record
    key = itemgetter(*slots)

    def record_many(env: list) -> bool:
        env[_OUT].add(key(env))
        return False

    return record_many


def _member(relation: str, slots: tuple[int, ...]) -> Step:
    """A fully bound atom: one set lookup in the relation's rows."""
    if not slots:
        return lambda env: () in env[_ROWS].get(relation, _NO_ROWS)
    if len(slots) == 1:
        (slot,) = slots
        return lambda env: (env[slot],) in env[_ROWS].get(relation, _NO_ROWS)
    key = itemgetter(*slots)
    return lambda env: key(env) in env[_ROWS].get(relation, _NO_ROWS)


def _test(check: Step, after: Step) -> Step:
    return lambda env: after(env) if check(env) else False


def _assign(slot: int, source: int, within: int, after: Step) -> Step:
    """Bind ``slot`` to the value of ``source`` when it lies in its range."""

    def assign(env: list) -> bool:
        value = env[source]
        if value not in env[within]:
            return False
        env[slot] = value
        return after(env)

    return assign


def _enumerate(slot: int, within: int, after: Step) -> Step:
    """Bind ``slot`` to every value of its range in turn."""

    def enumerate_range(env: list) -> bool:
        for value in env[within]:
            env[slot] = value
            if after(env):
                return True
        return False

    return enumerate_range


def _scan(relation: str, slots: tuple[int, ...], known: frozenset, ranges: dict, after: Step) -> Step:
    """Bind the open slots of ``relation(slots)`` from the rows that match the bound ones."""
    filter_positions: list[int] = []
    filter_slots: list[int] = []
    binds: list[tuple[int, int, bool]] = []
    repeats: list[tuple[int, int]] = []
    first: dict[int, int] = {}
    for position, slot in enumerate(slots):
        if slot in known:
            filter_positions.append(position)
            filter_slots.append(slot)
        elif slot in first:
            repeats.append((position, first[slot]))
        else:
            first[slot] = position
            binds.append((slot, position, ranges[slot] == _DOMAIN))
    if not filter_slots and not repeats and len(binds) == 1:
        (slot, position, in_domain), = binds

        def scan_one(env: list) -> bool:
            domain = env[_DOMAIN]
            for row in env[_ROWS].get(relation, _NO_ROWS):
                value = row[position]
                if in_domain and value not in domain:
                    continue
                env[slot] = value
                if after(env):
                    return True
            return False

        return scan_one
    # One itemgetter each side: a scalar for one filter, a tuple for more.
    wanted = itemgetter(*filter_slots) if filter_slots else None
    found = itemgetter(*filter_positions) if filter_positions else None

    def scan(env: list) -> bool:
        domain = env[_DOMAIN]
        key = wanted(env) if wanted is not None else None
        for row in env[_ROWS].get(relation, _NO_ROWS):
            if found is not None and found(row) != key:
                continue
            if repeats and any(row[position] != row[other] for position, other in repeats):
                continue
            for slot, position, in_domain in binds:
                value = row[position]
                if in_domain and value not in domain:
                    break
                env[slot] = value
            else:
                if after(env):
                    return True
        return False

    return scan
