"""The ``Recent_b`` operator (paper, Section 5).

``Recent_b(I, seq_no)`` is the maximal set ``D ⊆ adom(I)`` with ``|D| ≤ b``
such that every element of ``D`` has a strictly larger sequence number
than every element of ``adom(I) \\ D`` — i.e. the ``b`` most recently
created elements of the current active domain.
"""

from __future__ import annotations

from repro.database.domain import Value
from repro.database.instance import DatabaseInstance
from repro.errors import RecencyError
from repro.recency.sequence import SequenceNumbering

__all__ = ["recent_elements", "recency_index", "element_at_recency_index"]


def recent_elements(
    instance: DatabaseInstance, seq_no: SequenceNumbering, bound: int | None
) -> frozenset:
    """``Recent_b(I, seq_no)``: the ``bound`` most recent elements of ``adom(I)``.

    ``bound=None`` is the unbounded window: the whole active domain.

    Raises:
        RecencyError: if ``bound`` is negative or some active element has no
            sequence number.
    """
    if bound is not None and bound < 0:
        raise RecencyError(f"recency bound must be non-negative, got {bound}")
    adom = instance.active_domain()
    missing = [value for value in adom if value not in seq_no]
    if missing:
        raise RecencyError(f"active elements without sequence number: {sorted(map(str, missing))}")
    if bound is None:
        return adom
    ordered = sorted(adom, key=lambda value: -seq_no[value])
    return frozenset(ordered[:bound])


def recency_index(
    instance: DatabaseInstance, seq_no: SequenceNumbering, value: Value
) -> int:
    """The recency index of ``value`` in ``adom(I)`` wrt ``seq_no``.

    The index is the number of active elements with a strictly larger
    sequence number; the most recent element has index ``0``
    (condition r3 of Section 6.1).
    """
    if value not in instance.active_domain():
        raise RecencyError(f"value {value!r} is not in the active domain")
    own = seq_no[value]
    return sum(1 for other in instance.active_domain() if seq_no[other] > own)


def element_at_recency_index(
    instance: DatabaseInstance, seq_no: SequenceNumbering, index: int
) -> Value:
    """The (unique) active element whose recency index is ``index``.

    Raises:
        RecencyError: if the index exceeds ``|adom(I)| - 1``.
    """
    adom = instance.active_domain()
    if index < 0 or index >= len(adom):
        raise RecencyError(
            f"recency index {index} out of range for an active domain of size {len(adom)}"
        )
    ordered = sorted(adom, key=lambda value: -seq_no[value])
    return ordered[index]
