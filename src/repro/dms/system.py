"""Database-manipulating systems (paper, Section 3).

A DMS over a domain ``∆`` and schema ``R`` is a pair ``S = ⟨I0, acts⟩`` of
an initial database instance and a finite set of guarded actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.database.constraints import ConstraintSet
from repro.database.instance import DatabaseInstance
from repro.database.schema import Schema
from repro.dms.action import Action
from repro.errors import SystemError_

__all__ = ["DMS"]


@dataclass(frozen=True)
class DMS:
    """A database-manipulating system ``S = ⟨I0, acts⟩``.

    Attributes:
        schema: the relational schema ``R``.
        initial_instance: the initial database instance ``I0``.
        actions: the guarded actions, with distinct names.
        constraints: optional FO constraints with blocking semantics
            (Example 4.3); an action application that would violate a
            constraint is simply not enabled.
        name: an optional human-readable name for reporting.
    """

    schema: Schema
    initial_instance: DatabaseInstance
    actions: tuple[Action, ...]
    constraints: ConstraintSet = field(default_factory=ConstraintSet.empty)
    name: str = "dms"
    require_empty_initial_adom: bool = field(default=True, compare=False)

    def __post_init__(self) -> None:
        if self.initial_instance.schema != self.schema:
            raise SystemError_(
                f"DMS {self.name}: initial instance schema {self.initial_instance.schema} "
                f"differs from declared schema {self.schema}"
            )
        if self.require_empty_initial_adom and self.initial_instance.active_domain():
            raise SystemError_(
                f"DMS {self.name}: the paper requires adom(I0) = ∅ "
                f"(only propositions may hold initially); "
                f"pass require_empty_initial_adom=False for relaxed systems"
            )
        names = [action.name for action in self.actions]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise SystemError_(f"DMS {self.name}: duplicate action names {duplicates}")
        for action in self.actions:
            if action.schema != self.schema:
                raise SystemError_(
                    f"DMS {self.name}: action {action.name} is defined over a different schema"
                )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        schema: Schema,
        initial_instance: DatabaseInstance,
        actions: Iterable[Action],
        constraints: ConstraintSet | None = None,
        name: str = "dms",
        require_empty_initial_adom: bool = True,
    ) -> "DMS":
        """Build a DMS, sorting actions by name for determinism."""
        return cls(
            schema=schema,
            initial_instance=initial_instance,
            actions=tuple(sorted(actions, key=lambda a: a.name)),
            constraints=constraints or ConstraintSet.empty(),
            name=name,
            require_empty_initial_adom=require_empty_initial_adom,
        )

    # -- accessors -------------------------------------------------------------

    def action(self, name: str) -> Action:
        """Look up an action by name."""
        for action in self.actions:
            if action.name == name:
                return action
        raise SystemError_(f"DMS {self.name}: no action named {name!r}")

    def action_names(self) -> tuple[str, ...]:
        """The names of all actions, in declaration order."""
        return tuple(action.name for action in self.actions)

    def __iter__(self) -> Iterator[Action]:
        return iter(self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def max_fresh(self) -> int:
        """``η = max_α |α·new|`` — used by the encoding's visible alphabet."""
        return max((len(action.fresh) for action in self.actions), default=0)

    @property
    def max_parameters(self) -> int:
        """``max_α |α·free|``."""
        return max((len(action.parameters) for action in self.actions), default=0)

    def compile_plans(self) -> "DMS":
        """Compile every guard, update and constraint into its plan now; returns ``self``.

        Plans are otherwise compiled on first use.  Call this before
        forking workers, so they inherit the plans instead of each
        compiling its own, and to raise a schema error before exploring.
        """
        for action in self.actions:
            action.guard_plan()
            action.update_plan()
        self.constraints.plans(self.schema)
        return self

    def max_guard_variables(self) -> int:
        """Maximum number of data variables in any guard (the ``n`` of §6.6)."""
        return max((action.data_variable_count() for action in self.actions), default=0)

    def size_parameters(self) -> dict[str, int]:
        """The parameters entering the §6.6 complexity bound."""
        return {
            "relations": len(self.schema),
            "actions": len(self.actions),
            "max_arity": self.schema.max_arity,
            "max_fresh": self.max_fresh,
            "max_guard_variables": self.max_guard_variables(),
        }

    # -- derived systems -----------------------------------------------------------

    def with_constraints(self, constraints: ConstraintSet) -> "DMS":
        """Return the same system under additional database constraints."""
        return DMS(
            schema=self.schema,
            initial_instance=self.initial_instance,
            actions=self.actions,
            constraints=constraints,
            name=self.name,
            require_empty_initial_adom=self.require_empty_initial_adom,
        )

    def with_actions(self, actions: Iterable[Action], name: str | None = None) -> "DMS":
        """Return a system with the same initial instance but different actions."""
        return DMS.create(
            schema=self.schema,
            initial_instance=self.initial_instance,
            actions=actions,
            constraints=self.constraints,
            name=name or self.name,
            require_empty_initial_adom=self.require_empty_initial_adom,
        )

    def __str__(self) -> str:
        return (
            f"DMS({self.name}: schema={self.schema}, "
            f"|acts|={len(self.actions)}, I0={self.initial_instance.pretty()})"
        )
