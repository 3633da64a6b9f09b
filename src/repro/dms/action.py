"""DMS actions (paper, Section 3).

An action is a tuple ``α = ⟨u⃗, v⃗, Q, Del, Add⟩`` where

* ``u⃗`` (``α·free``) are the action parameters, bound by the guard to
  values of the current active domain,
* ``v⃗`` (``α·new``) are the fresh-input variables, bound to pairwise
  distinct history-fresh values,
* ``Q`` (``α·guard``) is a FOL(R) query with ``Free-Vars(Q) = u⃗``,
* ``Del`` (``α·Del``) is a variable database over ``u⃗``,
* ``Add`` (``α·Add``) is a variable database over ``u⃗ ⊎ v⃗`` with
  ``v⃗ ⊆ adom(Add)``.

Relaxed actions (``strict=False``, built by the transformations) may
leave parameters out of the guard, but their guard still has no free
variable outside ``u⃗``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.database.instance import DatabaseInstance, Fact
from repro.database.schema import Schema
from repro.database.substitution import VariableDatabase
from repro.errors import ActionError, SubstitutionError
from repro.fol.plan import QueryPlan, compile_query
from repro.fol.syntax import Query, TrueQuery

__all__ = ["Action"]


@dataclass(frozen=True)
class Action:
    """A guarded DMS action.

    Attributes:
        name: a unique identifier for the action within its system.
        parameters: ``α·free`` — the ordered action parameters ``u⃗``.
        fresh: ``α·new`` — the ordered fresh-input variables ``v⃗``.
        guard: ``α·guard`` — a FOL(R) query with free variables ``u⃗``.
        deletions: ``α·Del`` — a variable database over ``u⃗``.
        additions: ``α·Add`` — a variable database over ``u⃗ ⊎ v⃗``.
    """

    name: str
    parameters: tuple[str, ...]
    fresh: tuple[str, ...]
    guard: Query
    deletions: VariableDatabase
    additions: VariableDatabase
    strict: bool = field(default=True, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ActionError("action name must be non-empty")
        if len(set(self.parameters)) != len(self.parameters):
            raise ActionError(f"action {self.name}: duplicate parameter names {self.parameters}")
        if len(set(self.fresh)) != len(self.fresh):
            raise ActionError(f"action {self.name}: duplicate fresh-input names {self.fresh}")
        overlap = set(self.parameters) & set(self.fresh)
        if overlap:
            raise ActionError(
                f"action {self.name}: parameters and fresh-input variables must be disjoint, "
                f"both contain {sorted(overlap)}"
            )
        if self.deletions.schema != self.additions.schema:
            raise ActionError(
                f"action {self.name}: Del and Add must be over the same schema"
            )
        if self.strict:
            self._check_well_formed()
            return
        # Successors bind exactly the parameters, so even a relaxed guard
        # may not mention any other free variable.
        stray = self.guard.free_variables() - set(self.parameters)
        if stray:
            raise ActionError(
                f"action {self.name}: guard free variables {sorted(stray)} are not "
                f"action parameters {list(self.parameters)}"
            )

    def _check_well_formed(self) -> None:
        parameters = set(self.parameters)
        fresh = set(self.fresh)
        guard_free = self.guard.free_variables()
        if guard_free != parameters:
            raise ActionError(
                f"action {self.name}: guard free variables {sorted(guard_free)} must equal "
                f"the action parameters {sorted(parameters)}"
            )
        del_vars = self.deletions.variables()
        if not del_vars <= parameters:
            raise ActionError(
                f"action {self.name}: Del may only mention action parameters, "
                f"found {sorted(del_vars - parameters)}"
            )
        add_vars = self.additions.variables()
        if not add_vars <= parameters | fresh:
            raise ActionError(
                f"action {self.name}: Add may only mention parameters and fresh inputs, "
                f"found {sorted(add_vars - parameters - fresh)}"
            )
        if not fresh <= add_vars:
            raise ActionError(
                f"action {self.name}: every fresh-input variable must occur in Add "
                f"(v⃗ ⊆ adom(Add)); missing {sorted(fresh - add_vars)}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def create(
        cls,
        name: str,
        schema: Schema,
        parameters: Iterable[str] = (),
        fresh: Iterable[str] = (),
        guard: Query | None = None,
        delete: Iterable[Fact] = (),
        add: Iterable[Fact] = (),
        strict: bool = True,
    ) -> "Action":
        """Build an action from plain facts over variables.

        Example:
            >>> from repro.database import Schema, Fact
            >>> from repro.fol import parse_query
            >>> schema = Schema.of(("p", 0), ("R", 1), ("Q", 1))
            >>> beta = Action.create(
            ...     "beta", schema, parameters=("u",), fresh=("v1", "v2"),
            ...     guard=parse_query("p & R(u)"),
            ...     delete=[Fact.of("p"), Fact.of("R", "u")],
            ...     add=[Fact.of("Q", "v1"), Fact.of("Q", "v2")])
            >>> beta.arity
            (1, 2)
        """
        return cls(
            name=name,
            parameters=tuple(parameters),
            fresh=tuple(fresh),
            guard=guard if guard is not None else TrueQuery(),
            deletions=VariableDatabase(schema, delete),
            additions=VariableDatabase(schema, add),
            strict=strict,
        )

    # -- accessors (paper notation) -----------------------------------------

    @property
    def free(self) -> tuple[str, ...]:
        """``α·free``: the action parameters ``u⃗``."""
        return self.parameters

    @property
    def new(self) -> tuple[str, ...]:
        """``α·new``: the fresh-input variables ``v⃗``."""
        return self.fresh

    @property
    def schema(self) -> Schema:
        """The schema of the Del/Add variable databases."""
        return self.additions.schema

    @property
    def arity(self) -> tuple[int, int]:
        """``(|u⃗|, |v⃗|)``."""
        return (len(self.parameters), len(self.fresh))

    @property
    def all_variables(self) -> tuple[str, ...]:
        """The ordered concatenation ``u⃗ · v⃗``."""
        return self.parameters + self.fresh

    def data_variable_count(self) -> int:
        """Number of data variables used by the guard (the ``n`` of §6.6)."""
        return len(self.guard.variables())

    # The compiled guard and update plans are kept on the action, out of
    # its fields; they never travel in a pickle.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_guard_plan", None)
        state.pop("_update_plan", None)
        return state

    def guard_plan(self) -> QueryPlan:
        """The guard compiled into a join plan over the parameters.

        Compiled on first use and kept on the action; the plan checks
        the guard's atoms against the action's schema.
        """
        plan = self.__dict__.get("_guard_plan")
        if plan is None:
            plan = compile_query(self.guard, self.schema, self.parameters)
            object.__setattr__(self, "_guard_plan", plan)
        return plan

    def update_plan(self) -> tuple:
        """``Del`` and ``Add`` compiled into one template over ``u⃗ · v⃗``.

        One ``(relation, deleted, added)`` triple per relation the update
        touches; ``deleted`` and ``added`` hold one tuple of positions per
        fact, and the fact's arguments are ``values[p]`` for ``p`` in it,
        where ``values`` is ``σ(u⃗) · σ(v⃗)``.  ``Del`` may only use
        parameters.  Compiled on first use and kept on the action; the
        facts were checked against the schema when the action was built,
        so the template fits it.

        Raises:
            SubstitutionError: a ``Del`` fact uses a variable outside
                ``u⃗``, or an ``Add`` fact one outside ``u⃗ · v⃗``.
        """
        plan = self.__dict__.get("_update_plan")
        if plan is None:
            deleted = _positions(self.deletions, self.parameters)
            added = _positions(self.additions, self.all_variables)
            plan = tuple(
                (relation, tuple(deleted.get(relation, ())), tuple(added.get(relation, ())))
                for relation in sorted(deleted.keys() | added.keys())
            )
            object.__setattr__(self, "_update_plan", plan)
        return plan

    def updated_instance(self, instance: DatabaseInstance, values: tuple) -> DatabaseInstance:
        """``(I − Del σ) + Add σ`` for ``values = σ(u⃗) · σ(v⃗)``, checking no fact again.

        ``instance`` must be over the action's schema.
        """
        return instance._updated(
            [
                (
                    relation,
                    [tuple([values[p] for p in positions]) for positions in deleted],
                    [tuple([values[p] for p in positions]) for positions in added],
                )
                for relation, deleted, added in self.update_plan()
            ]
        )

    # -- transformations --------------------------------------------------------

    def rename(self, new_name: str) -> "Action":
        """Return a copy of the action under a different name."""
        return Action(
            name=new_name,
            parameters=self.parameters,
            fresh=self.fresh,
            guard=self.guard,
            deletions=self.deletions,
            additions=self.additions,
            strict=self.strict,
        )

    def rename_variables(self, mapping: Mapping[str, str]) -> "Action":
        """Consistently rename variables in parameters, fresh inputs, guard, Del and Add."""
        return Action(
            name=self.name,
            parameters=tuple(mapping.get(u, u) for u in self.parameters),
            fresh=tuple(mapping.get(v, v) for v in self.fresh),
            guard=self.guard.rename(dict(mapping)),
            deletions=self.deletions.rename_variables(dict(mapping)),
            additions=self.additions.rename_variables(dict(mapping)),
            strict=self.strict,
        )

    def with_schema(self, schema: Schema) -> "Action":
        """Reinterpret Del/Add over an extended schema."""
        return Action(
            name=self.name,
            parameters=self.parameters,
            fresh=self.fresh,
            guard=self.guard,
            deletions=self.deletions.with_schema(schema),
            additions=self.additions.with_schema(schema),
            strict=self.strict,
        )

    def __str__(self) -> str:
        return (
            f"⟨{self.name}: u⃗={list(self.parameters)}, v⃗={list(self.fresh)}, "
            f"guard={self.guard}, Del={sorted(str(f) for f in self.deletions)}, "
            f"Add={sorted(str(f) for f in self.additions)}⟩"
        )


def _positions(facts: VariableDatabase, variables: tuple[str, ...]) -> dict[str, list]:
    """``{relation: [positions into variables, one tuple per fact]}`` for ``facts``."""
    index = {variable: position for position, variable in enumerate(variables)}
    positions: dict[str, list] = {}
    for fact in sorted(facts):
        unbound = [argument for argument in fact.arguments if argument not in index]
        if unbound:
            raise SubstitutionError(
                f"variable {unbound[0]!r} in fact {fact} is not among {list(variables)}"
            )
        positions.setdefault(fact.relation, []).append(
            tuple(index[argument] for argument in fact.arguments)
        )
    return positions
