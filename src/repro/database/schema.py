"""Relational schemas.

A relational schema (paper, Section 2) is a finite set of relation names
``R_i/a_i``, each with a fixed arity.  Nullary relations play the role of
propositions.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.errors import ArityError, SchemaError, UnknownRelationError

__all__ = ["RelationSymbol", "Schema"]


@dataclass(frozen=True, order=True)
class RelationSymbol:
    """A relation name with its arity, written ``R/a`` in the paper.

    Attributes:
        name: the relation name (``"R"``).
        arity: the number of arguments; ``0`` denotes a proposition.
    """

    name: str
    arity: int

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("relation name must be a non-empty string")
        if self.arity < 0:
            raise SchemaError(f"relation {self.name!r} has negative arity {self.arity}")

    @property
    def is_proposition(self) -> bool:
        """True when the relation is nullary (a proposition ``p/0``)."""
        return self.arity == 0

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


class Schema:
    """An immutable finite set of relation symbols with distinct names.

    The schema is the single source of truth for arities: facts, query
    atoms and action updates are validated against it.

    Example:
        >>> schema = Schema.of(("p", 0), ("R", 1), ("Q", 1))
        >>> schema.arity_of("R")
        1
    """

    __slots__ = ("_relations", "_by_name", "_pairs", "_hash", "__weakref__")

    def __init__(self, relations: Iterable[RelationSymbol]) -> None:
        rels = tuple(sorted(set(relations)))
        by_name: dict[str, RelationSymbol] = {}
        for rel in rels:
            if rel.name in by_name:
                raise SchemaError(
                    f"relation name {rel.name!r} declared twice with arities "
                    f"{by_name[rel.name].arity} and {rel.arity}"
                )
            by_name[rel.name] = rel
        self._relations = rels
        self._by_name = by_name
        self._pairs = tuple((rel.name, rel.arity) for rel in rels)
        self._hash = hash(rels)
        _SCHEMAS[self._pairs] = self

    # A schema pickles as its (name, arity) pairs, never with the
    # randomisation-salted hash cache; see schema_from_pairs.
    def __reduce__(self) -> tuple:
        return (schema_from_pairs, (self._pairs,))

    # Pickles written before schemas pickled as pairs carry the symbols.
    def __setstate__(self, state: tuple) -> None:
        self.__init__(state[0])

    # -- constructors ---------------------------------------------------

    @classmethod
    def of(cls, *pairs: tuple[str, int]) -> "Schema":
        """Build a schema from ``(name, arity)`` pairs."""
        return cls(RelationSymbol(name, arity) for name, arity in pairs)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, int]) -> "Schema":
        """Build a schema from a ``{name: arity}`` mapping."""
        return cls(RelationSymbol(name, arity) for name, arity in mapping.items())

    # -- queries ----------------------------------------------------------

    def __contains__(self, item: object) -> bool:
        if isinstance(item, RelationSymbol):
            return self._by_name.get(item.name) == item
        if isinstance(item, str):
            return item in self._by_name
        return False

    def __iter__(self) -> Iterator[RelationSymbol]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def relations(self) -> tuple[RelationSymbol, ...]:
        """All relation symbols, sorted by name then arity."""
        return self._relations

    @property
    def names(self) -> tuple[str, ...]:
        """All relation names."""
        return tuple(rel.name for rel in self._relations)

    @property
    def propositions(self) -> tuple[RelationSymbol, ...]:
        """The nullary relations of the schema."""
        return tuple(rel for rel in self._relations if rel.is_proposition)

    @property
    def non_nullary(self) -> tuple[RelationSymbol, ...]:
        """The relations of arity at least one."""
        return tuple(rel for rel in self._relations if not rel.is_proposition)

    @property
    def max_arity(self) -> int:
        """The maximum arity over all relations (0 for an empty schema)."""
        return max((rel.arity for rel in self._relations), default=0)

    def relation(self, name: str) -> RelationSymbol:
        """Return the symbol declared under ``name``.

        Raises:
            UnknownRelationError: if the name is not declared.
        """
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownRelationError(
                f"relation {name!r} is not declared in the schema {self}"
            ) from None

    def arity_of(self, name: str) -> int:
        """Return the arity declared for ``name``."""
        return self.relation(name).arity

    def check_atom(self, name: str, arguments: tuple) -> RelationSymbol:
        """Validate that ``name(arguments)`` is consistent with the schema.

        Returns the relation symbol on success.

        Raises:
            UnknownRelationError: unknown relation name.
            ArityError: wrong number of arguments.
        """
        rel = self.relation(name)
        if len(arguments) != rel.arity:
            raise ArityError(
                f"relation {rel} applied to {len(arguments)} argument(s): {arguments!r}"
            )
        return rel

    # -- construction of derived schemas ----------------------------------

    def extend(self, *pairs: tuple[str, int]) -> "Schema":
        """Return a new schema with additional relations."""
        return Schema(tuple(self._relations) + tuple(RelationSymbol(n, a) for n, a in pairs))

    def restrict(self, names: Iterable[str]) -> "Schema":
        """Return the sub-schema containing only the given relation names."""
        wanted = set(names)
        return Schema(rel for rel in self._relations if rel.name in wanted)

    def union(self, other: "Schema") -> "Schema":
        """Return the union of two schemas (names must agree on arity)."""
        return Schema(tuple(self._relations) + tuple(other._relations))

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, Schema):
            return NotImplemented
        return self._hash == other._hash and self._pairs == other._pairs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(str(rel) for rel in self._relations)
        return f"Schema({{{body}}})"

    __str__ = __repr__


# A schema this process holds for each sorted tuple of (name, arity)
# pairs: the one built last, so a system built after its queries is the
# one its decoded states share.
_SCHEMAS: "weakref.WeakValueDictionary[tuple, Schema]" = weakref.WeakValueDictionary()


def schema_from_pairs(pairs: tuple) -> Schema:
    """The schema of the ``(name, arity)`` pairs: one this process holds, if any.

    The constructor every pickled :class:`Schema` names, so its import
    path (``repro.database.schema.schema_from_pairs``) is part of the
    stored format of result-store blobs: renaming or moving it makes
    every stored blob fail to load.  A decoded state thereby shares the
    schema its system already holds, which is then neither sorted nor
    validated again, and compares equal by identity.
    """
    schema = _SCHEMAS.get(pairs)
    if schema is None:
        schema = Schema(RelationSymbol(name, arity) for name, arity in pairs)
    return schema
