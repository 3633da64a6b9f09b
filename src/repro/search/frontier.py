"""Pluggable frontier strategies for the exploration engine.

A frontier holds ``(state_id, depth)`` entries and decides the visit
order:

* ``"bfs"`` — FIFO; states are visited level by level in discovery
  order.  This is the only strategy for which predicate search returns a
  *minimal-length* witness.
* ``"dfs"`` — LIFO; the most recently discovered state is expanded
  first, so the engine dives along one branch before backtracking.
* ``"best-first"`` — a binary heap ordered by a user heuristic
  ``heuristic(state, depth) -> comparable``; ties are broken FIFO, so
  equal-priority states keep their discovery order.

Frontiers only store ids and depths; the state object is passed to
``push`` solely so the best-first heuristic can inspect it.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable

__all__ = [
    "BestFirstFrontier",
    "BFSFrontier",
    "DFSFrontier",
    "Frontier",
    "make_frontier",
]


class Frontier:
    """Interface of a frontier strategy (see module docstring)."""

    def push(self, state_id: int, depth: int, state: Any) -> None:
        """Add an entry; ``state`` is only inspected by best-first heuristics."""
        raise NotImplementedError

    def pop(self) -> tuple[int, int]:
        """Remove and return the next ``(state_id, depth)`` entry."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0


class BFSFrontier(Frontier):
    """First-in first-out: breadth-first, level order."""

    __slots__ = ("_queue",)

    def __init__(self) -> None:
        self._queue: deque[tuple[int, int]] = deque()

    def push(self, state_id: int, depth: int, state: Any) -> None:
        """Enqueue at the back (``state`` is ignored)."""
        self._queue.append((state_id, depth))

    def pop(self) -> tuple[int, int]:
        """Dequeue the oldest entry (level order)."""
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)


class DFSFrontier(Frontier):
    """Last-in first-out: depth-first."""

    __slots__ = ("_stack",)

    def __init__(self) -> None:
        self._stack: list[tuple[int, int]] = []

    def push(self, state_id: int, depth: int, state: Any) -> None:
        """Push onto the stack (``state`` is ignored)."""
        self._stack.append((state_id, depth))

    def pop(self) -> tuple[int, int]:
        """Pop the most recently pushed entry."""
        return self._stack.pop()

    def __len__(self) -> int:
        return len(self._stack)


class BestFirstFrontier(Frontier):
    """Heap ordered by ``heuristic(state, depth)``, FIFO among ties."""

    __slots__ = ("_heap", "_heuristic", "_counter")

    def __init__(self, heuristic: Callable[[Any, int], Any]) -> None:
        self._heap: list[tuple[Any, int, int, int]] = []
        self._heuristic = heuristic
        self._counter = 0

    def push(self, state_id: int, depth: int, state: Any) -> None:
        """Insert with priority ``heuristic(state, depth)``; FIFO among ties."""
        priority = self._heuristic(state, depth)
        heapq.heappush(self._heap, (priority, self._counter, state_id, depth))
        self._counter += 1

    def pop(self) -> tuple[int, int]:
        """Remove the minimum-priority entry."""
        _, _, state_id, depth = heapq.heappop(self._heap)
        return state_id, depth

    def __len__(self) -> int:
        return len(self._heap)


def make_frontier(strategy: str, heuristic: Callable[[Any, int], Any] | None = None) -> Frontier:
    """Instantiate the frontier for a strategy name.

    The name (and a best-first strategy's heuristic) is validated by
    :class:`~repro.search.options.ExplorationOptions`.
    """
    if strategy == "best-first":
        return BestFirstFrontier(heuristic)
    return DFSFrontier() if strategy == "dfs" else BFSFrontier()
