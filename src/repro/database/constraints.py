"""Database constraints.

Example 4.3 of the paper shows how FO constraints can be added to a DMS:
the application of an action is blocked whenever the resulting instance
violates one of the constraints.  :class:`ConstraintSet` packages a set of
boolean FOL(R) sentences and checks them against instances; the DMS
semantics module consults it when a constrained system is executed.
The sentences are checked through join plans (:mod:`repro.fol.plan`),
compiled for the instances' schema on first use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.database.instance import DatabaseInstance
from repro.database.schema import Schema
from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fol.syntax import Query

__all__ = ["ConstraintSet"]


class ConstraintSet:
    """A finite set of boolean FOL(R) sentences interpreted as constraints.

    Example:
        >>> from repro.fol import parse_query
        >>> from repro.database import Schema, DatabaseInstance, Fact
        >>> schema = Schema.of(("R", 1))
        >>> constraints = ConstraintSet([parse_query("exists u. R(u)")])
        >>> constraints.satisfied_by(DatabaseInstance.of(schema, Fact.of("R", "e1")))
        True
    """

    __slots__ = ("_constraints", "_plans")

    def __init__(self, constraints: Iterable["Query"] = ()) -> None:
        constraints = tuple(constraints)
        for constraint in constraints:
            if constraint.free_variables():
                raise QueryError(
                    f"constraint {constraint} must be a sentence (no free variables)"
                )
        self._constraints = constraints
        self._plans: tuple | None = None

    # Compiled plans hold closures and never travel in a pickle; the
    # state keeps the shape a slotted class without hooks pickles to.
    def __getstate__(self) -> tuple:
        return (None, {"_constraints": self._constraints})

    def __setstate__(self, state: tuple) -> None:
        self._constraints = state[1]["_constraints"]
        self._plans = None

    def plans(self, schema: Schema) -> tuple:
        """The constraints compiled into join plans over ``schema``.

        Compiled on first use and kept until a different schema asks.

        Raises:
            UnknownRelationError, ArityError: a constraint does not fit
                the schema.
        """
        cached = self._plans
        if cached is None or (cached[0] is not schema and cached[0] != schema):
            from repro.fol.plan import compile_query

            cached = self._plans = (
                schema,
                tuple(compile_query(constraint, schema) for constraint in self._constraints),
            )
        return cached[1]

    @classmethod
    def empty(cls) -> "ConstraintSet":
        """The trivially satisfied constraint set."""
        return cls(())

    @property
    def constraints(self) -> tuple:
        """The constraint sentences."""
        return self._constraints

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self) -> Iterator["Query"]:
        return iter(self._constraints)

    def __bool__(self) -> bool:
        return bool(self._constraints)

    def satisfied_by(self, instance: DatabaseInstance) -> bool:
        """True when every constraint holds in ``instance``."""
        return all(plan.holds(instance) for plan in self.plans(instance.schema))

    def violated_by(self, instance: DatabaseInstance) -> tuple:
        """Return the constraints violated by ``instance`` (empty when satisfied)."""
        return tuple(
            plan.query for plan in self.plans(instance.schema) if not plan.holds(instance)
        )

    def add(self, constraint: "Query") -> "ConstraintSet":
        """Return a new set with one more constraint."""
        return ConstraintSet(self._constraints + (constraint,))

    def conjunction(self) -> "Query":
        """The single sentence ``φ_c`` equivalent to the whole set.

        Used by Example 4.3 to reduce constrained model checking to
        unconstrained model checking with ``(∀x. φ_c@x) ⇒ φ``.
        """
        from repro.fol.syntax import And, TrueQuery

        result: "Query" = TrueQuery()
        for constraint in self._constraints:
            result = And(result, constraint)
        return result

    # Equal sentences make equal sets; compiled plans are not compared.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstraintSet):
            return NotImplemented
        return self._constraints == other._constraints

    def __hash__(self) -> int:
        return hash(self._constraints)

    def __repr__(self) -> str:
        return f"ConstraintSet({list(self._constraints)!r})"
