"""Substitutions of data variables.

A substitution ``σ : V → ∆`` maps data variables to data values (paper,
Section 2).  The module also provides *variable databases* — database
instances whose "values" are variables — and the ``Substitute(I, σ)``
operation used to instantiate the ``Del``/``Add`` components of actions.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.database.domain import Value
from repro.database.instance import DatabaseInstance, Fact
from repro.database.schema import Schema
from repro.errors import SubstitutionError

__all__ = ["Substitution", "VariableDatabase", "substitute_instance"]


class Substitution(Mapping[str, Value]):
    """An immutable finite mapping from data-variable names to data values.

    Example:
        >>> sigma = Substitution({"u": "e2"})
        >>> sigma["u"]
        'e2'
        >>> sigma.restrict(["u"]) == sigma
        True
    """

    __slots__ = ("_mapping", "_hash")

    def __init__(self, mapping: Mapping[str, Value] | Iterable[tuple[str, Value]] = ()) -> None:
        self._mapping = dict(mapping)
        self._hash = hash(frozenset(self._mapping.items()))

    # The cached hash is salted by this interpreter's hash randomisation
    # and must never travel in a pickle: an unpickling process recomputes
    # it, keeping hash/eq consistent across process boundaries.
    def __getstate__(self) -> tuple:
        return (self._mapping,)

    def __setstate__(self, state: tuple) -> None:
        self.__init__(state[0])

    # -- Mapping protocol -------------------------------------------------

    def __getitem__(self, variable: str) -> Value:
        try:
            return self._mapping[variable]
        except KeyError:
            raise SubstitutionError(f"substitution does not bind variable {variable!r}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._mapping)

    def __len__(self) -> int:
        return len(self._mapping)

    def __contains__(self, variable: object) -> bool:
        return variable in self._mapping

    # -- constructors -----------------------------------------------------

    @classmethod
    def empty(cls) -> "Substitution":
        """The empty substitution ``ε``."""
        return cls({})

    @classmethod
    def of(cls, **bindings: Value) -> "Substitution":
        """``Substitution.of(u="e1", v="e2")``."""
        return cls(bindings)

    # -- operations --------------------------------------------------------

    def restrict(self, variables: Iterable[str]) -> "Substitution":
        """The restriction ``σ|_V`` to the given variables (missing ones ignored)."""
        wanted = set(variables)
        return Substitution({var: val for var, val in self._mapping.items() if var in wanted})

    def extend(self, variable: str, value: Value) -> "Substitution":
        """Return ``σ[variable ↦ value]`` (overriding any previous binding)."""
        updated = dict(self._mapping)
        updated[variable] = value
        return Substitution(updated)

    def merge(self, other: "Substitution | Mapping[str, Value]") -> "Substitution":
        """Combine two substitutions; ``other`` wins on shared variables."""
        merged = dict(self._mapping)
        merged.update(other)
        return Substitution(merged)

    def is_injective_on(self, variables: Iterable[str]) -> bool:
        """True when the restriction to ``variables`` is injective."""
        values = [self[var] for var in variables]
        return len(values) == len(set(values))

    @property
    def domain(self) -> frozenset:
        """The set of bound variables."""
        return frozenset(self._mapping)

    @property
    def image(self) -> frozenset:
        """The set of values in the range of the substitution."""
        return frozenset(self._mapping.values())

    def as_dict(self) -> dict[str, Value]:
        """A plain ``dict`` copy of the bindings."""
        return dict(self._mapping)

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Substitution):
            return self._mapping == other._mapping
        if isinstance(other, Mapping):
            return self._mapping == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{var}↦{val}" for var, val in sorted(self._mapping.items()))
        return f"{{{body}}}"


class VariableDatabase:
    """A database instance over variables (``DB-Inst-Set(R, V)`` in the paper).

    Used for the ``Del`` and ``Add`` components of actions: their facts
    mention variables instead of data values and get instantiated by a
    substitution at application time.
    """

    __slots__ = ("_schema", "_facts", "_hash")

    def __init__(self, schema: Schema, facts: Iterable[Fact] = ()) -> None:
        validated = []
        for fact in facts:
            schema.check_atom(fact.relation, fact.arguments)
            validated.append(fact)
        self._schema = schema
        self._facts = frozenset(validated)
        self._hash = hash((schema, self._facts))

    # As for Substitution: never ship the randomisation-salted hash cache.
    def __getstate__(self) -> tuple:
        return (self._schema, self._facts)

    def __setstate__(self, state: tuple) -> None:
        self.__init__(state[0], state[1])

    @classmethod
    def empty(cls, schema: Schema) -> "VariableDatabase":
        """The empty variable database."""
        return cls(schema, ())

    @classmethod
    def of(cls, schema: Schema, *facts: Fact) -> "VariableDatabase":
        """Build from explicit facts over variables."""
        return cls(schema, facts)

    @property
    def schema(self) -> Schema:
        """The schema of the variable database."""
        return self._schema

    @property
    def facts(self) -> frozenset:
        """The facts (over variables) of the database."""
        return self._facts

    def variables(self) -> frozenset:
        """All variables occurring in some fact (``adom`` over variables)."""
        result: set[str] = set()
        for fact in self._facts:
            for argument in fact.arguments:
                if isinstance(argument, str):
                    result.add(argument)
        return frozenset(result)

    def substitute(self, sigma: Mapping[str, Value]) -> DatabaseInstance:
        """``Substitute(I, σ)``: replace every variable by its image under σ.

        Raises:
            SubstitutionError: if a variable of the database is not bound.
        """
        return DatabaseInstance(self._schema, self.instantiate(sigma))

    def instantiate(self, sigma: Mapping[str, Value]) -> list[Fact]:
        """The facts of ``Substitute(I, σ)``, not yet validated into an instance.

        Raises:
            SubstitutionError: if a variable of the database is not bound.
        """
        instantiated = []
        for fact in self._facts:
            arguments = []
            for argument in fact.arguments:
                if argument in sigma:
                    arguments.append(sigma[argument])
                else:
                    raise SubstitutionError(
                        f"variable {argument!r} in fact {fact} is not bound by {dict(sigma)!r}"
                    )
            instantiated.append(Fact(fact.relation, tuple(arguments)))
        return instantiated

    def rename_variables(self, mapping: Mapping[str, str]) -> "VariableDatabase":
        """Consistently rename variables (used by the Appendix F constructions)."""
        return VariableDatabase(self._schema, (fact.rename(mapping) for fact in self._facts))

    def with_schema(self, schema: Schema) -> "VariableDatabase":
        """Reinterpret the facts over an extended schema."""
        return VariableDatabase(schema, self._facts)

    def union(self, other: "VariableDatabase") -> "VariableDatabase":
        """Fact-wise union of two variable databases over the same schema."""
        return VariableDatabase(self._schema, self._facts | other._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __contains__(self, fact: object) -> bool:
        return fact in self._facts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VariableDatabase):
            return NotImplemented
        return self._schema == other._schema and self._facts == other._facts

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        shown = ", ".join(sorted(str(fact) for fact in self._facts))
        return f"VariableDatabase({{{shown}}})"


def substitute_instance(
    variable_db: VariableDatabase, sigma: Mapping[str, Value]
) -> DatabaseInstance:
    """Functional form of :meth:`VariableDatabase.substitute`."""
    return variable_db.substitute(sigma)
