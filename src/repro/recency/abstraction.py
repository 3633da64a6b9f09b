"""Recency-indexing abstraction and the symbolic alphabet (paper, Section 6.1).

A concrete substitution ``σ`` of an action ``α`` at a configuration is
abstracted into a *symbolic substitution* ``s`` that maps

* the ``i``-th fresh-input variable ``v_i`` to ``-i`` (condition r1), and
* every action parameter ``u`` to its recency index
  ``s(u) ∈ {0, ..., b-1}`` at the current instance (conditions r2–r3).

The finite set of pairs ``⟨α, s⟩`` is the symbolic alphabet
``symAlph_{S,b}``; ``Abstr`` maps a b-bounded extended run to the word of
its symbolic labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping

from repro.dms.action import Action
from repro.dms.system import DMS
from repro.errors import RecencyError
from repro.recency.recent import recency_index
from repro.recency.semantics import RecencyBoundedRun, RecencyConfiguration

__all__ = [
    "SymbolicSubstitution",
    "SymbolicLabel",
    "symbolic_substitutions_for_action",
    "symbolic_alphabet",
    "abstract_substitution",
    "abstract_run",
]


@dataclass(frozen=True)
class SymbolicSubstitution(Mapping[str, int]):
    """A recency-indexing abstraction ``s : u⃗ ⊎ v⃗ → {-n..-1} ∪ {0..b-1}``."""

    entries: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.entries]
        if len(set(names)) != len(names):
            raise RecencyError(f"symbolic substitution binds a variable twice: {self.entries}")

    @classmethod
    def of(cls, mapping: Mapping[str, int]) -> "SymbolicSubstitution":
        """Build from a plain mapping (sorted for canonicity)."""
        return cls(tuple(sorted(mapping.items())))

    # -- Mapping protocol ----------------------------------------------------

    def __getitem__(self, variable: str) -> int:
        for name, index in self.entries:
            if name == variable:
                return index
        raise RecencyError(f"symbolic substitution does not bind {variable!r}")

    def __iter__(self) -> Iterator[str]:
        return iter(name for name, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    # -- helpers ----------------------------------------------------------------

    def parameter_indices(self) -> dict[str, int]:
        """The bindings of action parameters (non-negative indices)."""
        return {name: index for name, index in self.entries if index >= 0}

    def fresh_indices(self) -> dict[str, int]:
        """The bindings of fresh-input variables (negative indices)."""
        return {name: index for name, index in self.entries if index < 0}

    def max_parameter_index(self) -> int:
        """The largest recency index used (-1 when no parameters)."""
        indices = [index for _, index in self.entries if index >= 0]
        return max(indices, default=-1)

    def __str__(self) -> str:
        body = ", ".join(f"{name}↦{index}" for name, index in self.entries)
        return f"{{{body}}}"


@dataclass(frozen=True)
class SymbolicLabel:
    """A letter ``⟨α : s⟩`` of the symbolic alphabet."""

    action_name: str
    substitution: SymbolicSubstitution

    def __str__(self) -> str:
        return f"⟨{self.action_name}:{self.substitution}⟩"


def symbolic_substitutions_for_action(action: Action, bound: int) -> tuple[SymbolicSubstitution, ...]:
    """``SymSubs(α, b)``: all symbolic substitutions satisfying r1–r2."""
    if bound < 0:
        raise RecencyError("recency bound must be non-negative")
    fresh_part = {variable: -position for position, variable in enumerate(action.fresh, start=1)}
    if not action.parameters:
        return (SymbolicSubstitution.of(fresh_part),)
    if bound == 0:
        # With b = 0 no parameter can be bound to a recent element.
        return ()
    result = []
    for combination in product(range(bound), repeat=len(action.parameters)):
        mapping = dict(fresh_part)
        mapping.update(dict(zip(action.parameters, combination)))
        result.append(SymbolicSubstitution.of(mapping))
    return tuple(result)


def symbolic_alphabet(system: DMS, bound: int) -> tuple[SymbolicLabel, ...]:
    """``symAlph_{S,b}``: all letters ``⟨α : s⟩`` with ``s ∈ SymSubs(α, b)``."""
    letters: list[SymbolicLabel] = []
    for action in system.actions:
        for substitution in symbolic_substitutions_for_action(action, bound):
            letters.append(SymbolicLabel(action.name, substitution))
    return tuple(letters)


def abstract_substitution(
    action: Action,
    configuration: RecencyConfiguration,
    sigma: Mapping[str, object],
    bound: int,
) -> SymbolicSubstitution:
    """The recency-indexing abstraction of ``σ`` at the given configuration.

    Raises:
        RecencyError: if a parameter is bound outside ``Recent_b`` (its
            recency index would be ``≥ b``).
    """
    mapping: dict[str, int] = {}
    for position, fresh_variable in enumerate(action.fresh, start=1):
        mapping[fresh_variable] = -position
    for parameter in action.parameters:
        index = recency_index(configuration.instance, configuration.seq_no, sigma[parameter])
        if index >= bound:
            raise RecencyError(
                f"parameter {parameter}={sigma[parameter]!r} has recency index {index} ≥ b={bound}"
            )
        mapping[parameter] = index
    return SymbolicSubstitution.of(mapping)


def abstract_run(run: RecencyBoundedRun) -> tuple[SymbolicLabel, ...]:
    """``Abstr(ρ̂)``: the word of symbolic labels of a b-bounded run prefix."""
    labels: list[SymbolicLabel] = []
    for step in run.steps:
        symbolic = abstract_substitution(step.action, step.source, step.substitution, run.bound)
        labels.append(SymbolicLabel(step.action.name, symbolic))
    return tuple(labels)
