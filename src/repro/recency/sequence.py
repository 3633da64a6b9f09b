"""Sequence numberings (paper, Section 5).

Every element receives a sequence number when it enters the active
domain; later elements receive strictly larger numbers and numbers are
never reused.  :class:`SequenceNumbering` is an immutable injective map
from data values to natural numbers.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator, Mapping

from repro.database.domain import Value, standard_index
from repro.errors import RecencyError

__all__ = ["SequenceNumbering"]


class SequenceNumbering(Mapping[Value, int]):
    """An immutable injective map ``seq_no : H → N``.

    Example:
        >>> numbering = SequenceNumbering({"e1": 1, "e2": 2})
        >>> numbering.extend_with(["e3"]).highest()
        3
    """

    __slots__ = ("_mapping", "_hash")

    def __init__(self, mapping: Mapping[Value, int] | Iterable[tuple[Value, int]] = ()) -> None:
        entries = dict(mapping)
        numbers = list(entries.values())
        if len(set(numbers)) != len(numbers):
            raise RecencyError(f"sequence numbering must be injective, got {entries!r}")
        if any(number < 0 for number in numbers):
            raise RecencyError("sequence numbers must be non-negative")
        self._mapping = entries
        self._hash = hash(frozenset(entries.items()))

    # Never ship the randomisation-salted hash cache in a pickle.
    def __getstate__(self) -> tuple:
        return (self._mapping,)

    def __setstate__(self, state: tuple) -> None:
        self.__init__(state[0])

    # -- Mapping protocol ---------------------------------------------------

    def __getitem__(self, value: Value) -> int:
        try:
            return self._mapping[value]
        except KeyError:
            raise RecencyError(f"value {value!r} has no sequence number") from None

    def __iter__(self) -> Iterator[Value]:
        return iter(self._mapping)

    def __len__(self) -> int:
        return len(self._mapping)

    def __contains__(self, value: object) -> bool:
        return value in self._mapping

    # -- constructors ----------------------------------------------------------

    @classmethod
    def empty(cls) -> "SequenceNumbering":
        """The empty (trivial) numbering of the initial configuration."""
        return cls({})

    @classmethod
    def canonical(cls, count: int) -> "SequenceNumbering":
        """The canonical numbering ``seq_no(e_j) = j`` for ``j = 1..count``."""
        from repro.database.domain import standard_value

        return cls({standard_value(j): j for j in range(1, count + 1)})

    # -- operations ----------------------------------------------------------------

    def highest(self) -> int:
        """The largest assigned sequence number (0 when empty)."""
        return max(self._mapping.values(), default=0)

    def extend_with(self, fresh_values: Iterable[Value]) -> "SequenceNumbering":
        """Assign the next sequence numbers to ``fresh_values`` in order.

        The fresh values receive numbers strictly larger than every number
        already assigned, in the order in which they are listed (condition
        4 of the b-bounded semantics).  The result is injective by
        construction, so injectivity is not checked again; a value that
        already has a number still raises.
        """
        mapping = dict(self._mapping)
        next_number = self.highest() + 1
        for value in fresh_values:
            if value in mapping:
                raise RecencyError(f"value {value!r} already has a sequence number")
            mapping[value] = next_number
            next_number += 1
        extended = object.__new__(SequenceNumbering)
        extended._mapping = mapping
        extended._hash = hash(frozenset(mapping.items()))
        return extended

    def restrict(self, values: Iterable[Value]) -> "SequenceNumbering":
        """The restriction of the numbering to ``values``."""
        wanted = set(values)
        return SequenceNumbering(
            {value: number for value, number in self._mapping.items() if value in wanted}
        )

    def most_recent(self, values: Collection[Value], count: int | None) -> frozenset:
        """The ``count`` values of ``values`` with the largest numbers (all for ``None``).

        Every value must have a number; a missing one raises ``KeyError``
        (callers check that when the values are first numbered).
        """
        if count is None or len(values) <= count:
            return frozenset(values)
        return frozenset(sorted(values, key=self._mapping.__getitem__, reverse=True)[:count])

    def order_recent_first(self, values: Iterable[Value]) -> tuple:
        """Sort ``values`` by decreasing sequence number (most recent first)."""
        return tuple(sorted(values, key=lambda value: -self[value]))

    def is_canonical(self) -> bool:
        """True when every value ``e_j`` is numbered ``j`` (Section 6.1 invariant)."""
        for value, number in self._mapping.items():
            if standard_index(value) != number:
                return False
        return True

    def as_dict(self) -> dict:
        """A plain ``dict`` copy."""
        return dict(self._mapping)

    # -- dunder ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SequenceNumbering):
            return self._mapping == other._mapping
        if isinstance(other, Mapping):
            return self._mapping == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{value}:{number}" for value, number in sorted(self._mapping.items(), key=lambda kv: kv[1]))
        return f"SequenceNumbering({{{body}}})"
