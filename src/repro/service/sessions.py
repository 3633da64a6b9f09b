"""Shared warm sessions and admission control for the service.

A :class:`SessionManager` is the service's bridge to the library: it
owns one :class:`repro.api.Session` (whose worker pool keys warm query
engines by case study and successor function, so every concurrent
request over the same ``(system, graph)`` pair shares the same warm
workers), a registry of servable case studies, and the admission
semaphore that bounds how many requests may hold an engine at once.

Requests name systems rather than shipping them: the registry maps a
case-study name to its construction function, and the built system is
cached so its content hash — and therefore its warm pool context — is
stable across requests.  Conditions arrive as a proposition name
(``"proposition"``) or as FOL(R) query text (``"condition"``, parsed by
:func:`repro.fol.parser.parse_query`).
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping

from repro.api.options import ExplorationOptions
from repro.api.session import Session
from repro.casestudies import (
    booking_agency_system,
    example_31_system,
    students_system,
    warehouse_system,
)
from repro.dms.system import DMS
from repro.errors import AdmissionError, ServiceError
from repro.fol.parser import parse_query
from repro.fol.syntax import Query
from repro.obs.metrics import resolve_metrics
from repro.search.engine import RETENTION_MODES

__all__ = ["DEFAULT_CASE_STUDIES", "SessionManager", "int_field"]

#: The case studies a default service serves, by request name.
DEFAULT_CASE_STUDIES: dict[str, Callable[[], DMS]] = {
    "booking": booking_agency_system,
    "example31": example_31_system,
    "students": students_system,
    "warehouse": warehouse_system,
}

#: Exploration knobs a request payload may override: integer knobs, and
#: choice knobs with their servable values (best-first needs a heuristic
#: callable, which no JSON payload can carry).
_INT_KNOBS = ("max_depth", "max_configurations", "max_steps")
_CHOICE_KNOBS = {"strategy": ("bfs", "dfs"), "retention": RETENTION_MODES}


def int_field(field: str, value) -> int:
    """``value`` of request field ``field`` as a non-negative integer.

    Raises:
        ServiceError: naming ``field`` for booleans, non-integers
            (strings, fractions, ``null``) and negative integers, so a
            malformed knob is a 400 before admission instead of a 500 or
            a silently truncated value.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ServiceError(f"invalid {field!r}: expected a non-negative integer, got {value!r}")
    return value


class SessionManager:
    """The service's warm session, case-study registry and admission gate.

    Args:
        case_studies: ``{name: factory}`` of servable systems (defaults
            to :data:`DEFAULT_CASE_STUDIES`).
        max_concurrent: admission-control capacity — requests holding a
            slot beyond this are rejected with
            :class:`~repro.errors.AdmissionError` (HTTP 429), never
            queued (a saturated verification service should shed load
            visibly, not build invisible backlog).
        options: default exploration options for requests that do not
            override knobs.
        store: the session's result store (path /
            :class:`repro.store.ResultStore` / ``False`` / ``None`` for
            ``REPRO_STORE``).
        pool_workers: worker count of the session's pool.
        metrics: a :class:`repro.obs.MetricsRegistry`; ``None`` resolves
            to the process-wide registry.
    """

    def __init__(
        self,
        *,
        case_studies: Mapping[str, Callable[[], DMS]] | None = None,
        max_concurrent: int = 8,
        options: ExplorationOptions | None = None,
        store=None,
        pool_workers: int | None = None,
        metrics=None,
    ) -> None:
        if max_concurrent < 1:
            raise ServiceError("max_concurrent must be positive")
        self._factories = dict(case_studies or DEFAULT_CASE_STUDIES)
        self._systems: dict[str, DMS] = {}
        self._metrics = metrics
        self.session = Session(
            options=options, store=store, pool_workers=pool_workers, metrics=metrics
        )
        self._max_concurrent = max_concurrent
        self._guard = threading.Lock()
        self._active = 0

    # -- case studies and request decoding -------------------------------------

    def case_studies(self) -> tuple[str, ...]:
        """The servable case-study names, sorted."""
        return tuple(sorted(self._factories))

    def system(self, name: str) -> DMS:
        """The (cached) system registered under ``name``.

        Caching keeps the object identity — and the content hash — of a
        case study stable, so every request over it shares one warm
        pool context.
        """
        with self._guard:
            system = self._systems.get(name)
            if system is None:
                factory = self._factories.get(name)
                if factory is None:
                    raise ServiceError(
                        f"unknown case study {name!r}; serving {sorted(self._factories)}"
                    )
                system = self._systems[name] = factory()
            return system

    def condition(self, payload: Mapping) -> Query | str:
        """The reachability condition a request payload names.

        ``"proposition"`` carries a proposition name; ``"condition"``
        carries FOL(R) query text.  Exactly one must be present.
        """
        has_query = "condition" in payload
        has_proposition = "proposition" in payload
        if has_query == has_proposition:
            raise ServiceError(
                "a query payload needs exactly one of 'condition' (FOL(R) query text) "
                "or 'proposition' (a proposition name)"
            )
        if has_proposition:
            return str(payload["proposition"])
        return parse_query(str(payload["condition"]))

    def query_options(self, payload: Mapping) -> ExplorationOptions:
        """The session defaults with the payload's knob overrides applied.

        Raises:
            ServiceError: naming the first malformed knob (see
                :func:`int_field`; choice knobs must be one of their
                servable values).
        """
        changes: dict = {}
        for knob in _INT_KNOBS:
            if knob in payload:
                changes[knob] = int_field(knob, payload[knob])
        for knob, choices in _CHOICE_KNOBS.items():
            if knob in payload:
                if payload[knob] not in choices:
                    raise ServiceError(
                        f"invalid {knob!r}: expected one of {list(choices)}, got {payload[knob]!r}"
                    )
                changes[knob] = payload[knob]
        options = self.session.options
        return options.replace(**changes) if changes else options

    # -- admission control ------------------------------------------------------

    @property
    def active(self) -> int:
        """Requests currently holding an admission slot."""
        with self._guard:
            return self._active

    def acquire(self) -> None:
        """Take one admission slot or reject (never blocks).

        Raises:
            AdmissionError: at capacity (the service renders it as 429
                with a ``Retry-After`` header).
        """
        registry = resolve_metrics(self._metrics)
        with self._guard:
            if self._active >= self._max_concurrent:
                registry.counter("service_requests_total", outcome="rejected").inc()
                raise AdmissionError(
                    f"service at capacity ({self._max_concurrent} concurrent queries); retry"
                )
            self._active += 1
            registry.gauge("service_active_requests").high_water(self._active)

    def release(self) -> None:
        """Return one admission slot."""
        with self._guard:
            self._active = max(0, self._active - 1)

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Close the warm session (idempotent)."""
        self.session.close()
