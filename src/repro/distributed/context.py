"""Picklable exploration contexts for remote node agents.

The localhost launcher forks its agents, so they inherit the successor
closure the way pool workers do and no context ever crosses the wire.
Agents started *elsewhere* (``python -m repro.harness --agent``) know
nothing about the system under exploration: the coordinator ships them
an :class:`ExplorationContext` inside the ``lease`` frame, and the agent
rebuilds the successor function from it.  A context must therefore be
picklable and self-contained — the library semantics gets a dedicated
spec that carries the DMS itself (:class:`RecencyContext`, whose
``bound=None`` is the unbounded graph), and :class:`CallableContext`
covers module-level successor functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = [
    "CallableContext",
    "ExplorationContext",
    "RecencyContext",
]


class ExplorationContext:
    """Base class: a picklable recipe for a successor function."""

    def successors(self) -> Callable[[Any], Iterable]:
        """Build the successor function on the agent's side."""
        raise NotImplementedError


@dataclass(frozen=True)
class CallableContext(ExplorationContext):
    """A context wrapping a directly picklable successor callable.

    Lambdas and local closures do not pickle — use this only with
    module-level functions (or rely on the fork launcher, which inherits
    closures and needs no context at all).
    """

    fn: Callable[[Any], Iterable]

    def successors(self) -> Callable[[Any], Iterable]:
        """The wrapped callable itself."""
        return self.fn


@dataclass(frozen=True)
class RecencyContext(ExplorationContext):
    """Successors of the b-bounded graph ``C_S^b`` (``C_S`` for ``bound=None``)."""

    system: Any
    bound: int | None

    def successors(self) -> Callable[[Any], Iterable]:
        """Bind the b-bounded successor enumeration to ``(system, bound)``."""
        from repro.recency.semantics import enumerate_b_bounded_successors

        system, bound = self.system, self.bound
        return lambda configuration: enumerate_b_bounded_successors(system, configuration, bound)
