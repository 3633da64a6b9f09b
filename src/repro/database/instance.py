"""Database instances.

A database instance over a schema ``R`` and domain ``∆`` (paper, Section 2)
is a finite set of facts ``R_i(e_1, ..., e_a)``.  Instances are immutable
and hashable so they can serve as states of (explored) transition systems.

The paper's ``I1 + I2`` and ``I1 − I2`` are relation-wise union and
difference; they are exposed here as ``+`` and ``-`` on
:class:`DatabaseInstance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping

from repro.database.domain import Value
from repro.database.schema import Schema
from repro.errors import SchemaError

__all__ = ["Fact", "DatabaseInstance"]

_NO_ROWS: frozenset = frozenset()


@dataclass(frozen=True, order=True)
class Fact:
    """A single fact ``relation(arguments)``.

    Nullary facts (``arity == 0``) represent true propositions.
    """

    relation: str
    arguments: tuple[Value, ...] = ()

    @classmethod
    def of(cls, relation: str, *arguments: Value) -> "Fact":
        """Convenience constructor: ``Fact.of("R", "e1", "e2")``."""
        return cls(relation, tuple(arguments))

    @property
    def arity(self) -> int:
        """Number of arguments of the fact."""
        return len(self.arguments)

    @property
    def values(self) -> frozenset:
        """The set of data values occurring in the fact."""
        return frozenset(self.arguments)

    def rename(self, mapping: Mapping[Value, Value]) -> "Fact":
        """Replace every argument ``v`` by ``mapping.get(v, v)``."""
        return Fact(self.relation, tuple(mapping.get(arg, arg) for arg in self.arguments))

    def __str__(self) -> str:
        if not self.arguments:
            return self.relation
        args = ", ".join(str(arg) for arg in self.arguments)
        return f"{self.relation}({args})"


class DatabaseInstance:
    """An immutable database instance: a finite set of facts over a schema.

    Example:
        >>> schema = Schema.of(("p", 0), ("R", 1))
        >>> instance = DatabaseInstance.of(schema, Fact.of("p"), Fact.of("R", "e1"))
        >>> instance.holds_proposition("p")
        True
        >>> sorted(instance.active_domain())
        ['e1']
    """

    __slots__ = ("_schema", "_facts", "_by_relation", "_adom", "_hash")

    def __init__(self, schema: Schema, facts: Iterable[Fact] = ()) -> None:
        validated: set[Fact] = set()
        for fact in facts:
            schema.check_atom(fact.relation, fact.arguments)
            validated.add(fact)
        self._schema = schema
        self._facts = frozenset(validated)
        by_relation: dict[str, set[tuple[Value, ...]]] = {}
        adom: set[Value] = set()
        for fact in self._facts:
            by_relation.setdefault(fact.relation, set()).add(fact.arguments)
            adom.update(fact.arguments)
        self._by_relation = {name: frozenset(rows) for name, rows in by_relation.items()}
        self._adom = frozenset(adom)
        self._hash = hash((self._schema, self._facts))

    # The cached hash is salted by this interpreter's hash randomisation
    # and must never travel in a pickle; rebuilding through __init__ also
    # re-derives the per-relation and active-domain indexes.
    def __getstate__(self) -> tuple:
        return (self._schema, self._facts)

    def __setstate__(self, state: tuple) -> None:
        self.__init__(state[0], state[1])

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls, schema: Schema) -> "DatabaseInstance":
        """The empty instance over ``schema``."""
        return cls(schema, ())

    @classmethod
    def of(cls, schema: Schema, *facts: Fact) -> "DatabaseInstance":
        """Build an instance from explicit facts."""
        return cls(schema, facts)

    @classmethod
    def from_dict(
        cls, schema: Schema, contents: Mapping[str, Iterable[tuple[Value, ...] | Value]]
    ) -> "DatabaseInstance":
        """Build an instance from ``{relation: rows}``.

        A row may be a tuple of values, or a single value for unary
        relations.  Propositions map to a boolean.

        Example:
            >>> schema = Schema.of(("p", 0), ("R", 1), ("S", 2))
            >>> inst = DatabaseInstance.from_dict(
            ...     schema, {"p": True, "R": ["e1", "e2"], "S": [("e1", "e2")]})
            >>> len(inst)
            4
        """
        facts: list[Fact] = []
        for name, rows in contents.items():
            rel = schema.relation(name)
            if rel.is_proposition:
                if isinstance(rows, bool):
                    if rows:
                        facts.append(Fact(name))
                    continue
                raise SchemaError(
                    f"proposition {name!r} must map to a boolean, got {rows!r}"
                )
            for row in rows:
                if isinstance(row, tuple):
                    facts.append(Fact(name, row))
                elif rel.arity == 1:
                    facts.append(Fact(name, (row,)))
                else:
                    raise SchemaError(
                        f"row {row!r} for relation {rel} must be a tuple of arity {rel.arity}"
                    )
        return cls(schema, facts)

    # -- basic accessors --------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The schema the instance is defined over."""
        return self._schema

    @property
    def facts(self) -> frozenset:
        """The set of facts of the instance."""
        return self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __contains__(self, fact: object) -> bool:
        return fact in self._facts

    def relation_rows(self, name: str) -> frozenset:
        """All tuples currently stored in relation ``name`` (may be empty)."""
        self._schema.relation(name)
        return self._by_relation.get(name, frozenset())

    def rows_by_relation(self) -> Mapping[str, frozenset]:
        """The ``{relation: rows}`` index, for join plans (:mod:`repro.fol.plan`).

        Relations without rows are absent.  Unlike :meth:`relation_rows`
        and :meth:`holds`, a lookup does no schema check: plans check
        their atoms when they are compiled.  Callers must not mutate it.
        """
        return self._by_relation

    def holds(self, relation: str, *arguments: Value) -> bool:
        """True when the fact ``relation(arguments)`` is in the instance."""
        self._schema.check_atom(relation, tuple(arguments))
        return tuple(arguments) in self._by_relation.get(relation, frozenset())

    def holds_proposition(self, name: str) -> bool:
        """True when the nullary relation ``name`` is instantiated (``p ∈ I``)."""
        rel = self._schema.relation(name)
        if not rel.is_proposition:
            raise SchemaError(f"{rel} is not a proposition")
        return bool(self._by_relation.get(name))

    def active_domain(self) -> frozenset:
        """``adom(I)``: the values occurring in some fact of the instance."""
        return self._adom

    @property
    def adom(self) -> frozenset:
        """Alias for :meth:`active_domain`."""
        return self._adom

    def true_propositions(self) -> frozenset:
        """The names of propositions that hold in the instance."""
        return frozenset(
            rel.name for rel in self._schema.propositions if self._by_relation.get(rel.name)
        )

    # -- algebra (paper: I1 + I2 and I1 − I2) -----------------------------

    def __add__(self, other: "DatabaseInstance") -> "DatabaseInstance":
        """Relation-wise union (``I1 + I2 = I1 ∪ I2``)."""
        self._require_same_schema(other)
        return DatabaseInstance(self._schema, self._facts | other._facts)

    def __sub__(self, other: "DatabaseInstance") -> "DatabaseInstance":
        """Relation-wise difference (``I1 − I2 = I1 \\ I2``)."""
        self._require_same_schema(other)
        return DatabaseInstance(self._schema, self._facts - other._facts)

    def add_facts(self, facts: Iterable[Fact]) -> "DatabaseInstance":
        """Return a new instance with ``facts`` added."""
        return DatabaseInstance(self._schema, self._facts | set(facts))

    def remove_facts(self, facts: Iterable[Fact]) -> "DatabaseInstance":
        """Return a new instance with ``facts`` removed (missing facts ignored)."""
        return DatabaseInstance(self._schema, self._facts - set(facts))

    def apply_update(
        self, deletions: Iterable[Fact], additions: Iterable[Fact]
    ) -> "DatabaseInstance":
        """Apply ``(I − Del) + Add``; additions win over deletions."""
        return DatabaseInstance(self._schema, (self._facts - set(deletions)) | set(additions))

    def _updated(self, changes: list[tuple[str, list, list]]) -> "DatabaseInstance":
        """``(I − Del) + Add`` from rows already checked against the schema.

        The trusted twin of :meth:`apply_update`, for successors built
        from a compiled action update
        (:meth:`repro.dms.action.Action.updated_instance`).  ``changes``
        holds one ``(relation, deleted rows, added rows)`` triple per
        relation the update touches; additions win over deletions.  No
        fact is checked again, the surviving facts keep the hashes their
        set already holds, only the touched relations get new rows, and
        ``adom`` comes from the rows.
        """
        by_relation = dict(self._by_relation)
        deleted_facts: list[Fact] = []
        added_facts: list[Fact] = []
        for relation, deleted, added in changes:
            rows = by_relation.get(relation, _NO_ROWS).difference(deleted).union(added)
            if rows:
                by_relation[relation] = rows
            else:
                by_relation.pop(relation, None)
            deleted_facts += [Fact(relation, row) for row in deleted]
            added_facts += [Fact(relation, row) for row in added]
        instance = object.__new__(DatabaseInstance)
        instance._schema = self._schema
        instance._facts = self._facts.difference(deleted_facts).union(added_facts)
        instance._by_relation = by_relation
        instance._adom = frozenset(chain.from_iterable(chain.from_iterable(by_relation.values())))
        instance._hash = hash((self._schema, instance._facts))
        return instance

    def _require_same_schema(self, other: "DatabaseInstance") -> None:
        if self._schema != other._schema:
            raise SchemaError("database algebra requires both instances over the same schema")

    # -- transformations --------------------------------------------------

    def rename_values(self, mapping: Mapping[Value, Value]) -> "DatabaseInstance":
        """Apply a value renaming to every fact."""
        return DatabaseInstance(self._schema, (fact.rename(mapping) for fact in self._facts))

    def map_facts(self, function: Callable[[Fact], Fact]) -> "DatabaseInstance":
        """Apply an arbitrary fact-to-fact transformation."""
        return DatabaseInstance(self._schema, (function(fact) for fact in self._facts))

    def with_schema(self, schema: Schema) -> "DatabaseInstance":
        """Reinterpret the same facts over an extended schema."""
        return DatabaseInstance(schema, self._facts)

    def restrict_to_relations(self, names: Iterable[str]) -> "DatabaseInstance":
        """Keep only the facts of the given relations (same schema)."""
        wanted = set(names)
        return DatabaseInstance(
            self._schema, (fact for fact in self._facts if fact.relation in wanted)
        )

    def facts_containing(self, value: Value) -> frozenset:
        """All facts in which ``value`` occurs."""
        return frozenset(fact for fact in self._facts if value in fact.arguments)

    def is_isomorphic_to(
        self, other: "DatabaseInstance", mapping: Mapping[Value, Value]
    ) -> bool:
        """Check that ``mapping`` is an isomorphism from this instance onto ``other``.

        The mapping must be defined on the whole active domain of this
        instance and be injective on it.
        """
        if self._schema != other._schema:
            return False
        adom = self._adom
        if not all(value in mapping for value in adom):
            return False
        images = [mapping[value] for value in adom]
        if len(set(images)) != len(images):
            return False
        return self.rename_values(dict(mapping)).facts == other.facts

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseInstance):
            return NotImplemented
        return self._schema == other._schema and self._facts == other._facts

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        shown = ", ".join(sorted(str(fact) for fact in self._facts))
        return f"DatabaseInstance({{{shown}}})"

    def pretty(self) -> str:
        """A human-readable multi-line rendering, grouped by relation."""
        lines: list[str] = []
        for rel in self._schema.relations:
            rows = self._by_relation.get(rel.name)
            if not rows:
                continue
            if rel.is_proposition:
                lines.append(rel.name)
            else:
                rendered = ", ".join(
                    "(" + ", ".join(str(v) for v in row) + ")" for row in sorted(rows, key=str)
                )
                lines.append(f"{rel.name}: {rendered}")
        return "{" + "; ".join(lines) + "}"
