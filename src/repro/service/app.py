"""The verification service: reachability and convergence over HTTP.

:func:`create_app` builds an ASGI application holding one warm
:class:`~repro.service.sessions.SessionManager` for its whole lifespan:
engines, worker processes and the result store are constructed at
startup and shared by every request, so a query pays exploration cost
only — the service analogue of the warm :class:`repro.api.Session`.

Endpoints (all payloads/replies JSON unless noted):

* ``GET /healthz`` — liveness plus warm-state diagnostics.
* ``GET /metrics`` — the metrics registry's Prometheus-style text
  exposition.
* ``GET /v1/casestudies`` — the servable case-study names.
* ``POST /v1/reachability`` — one reachability query.  The payload
  names a ``case_study``, a condition (``proposition`` name or FOL(R)
  ``condition`` text), an optional integer ``bound`` (``null``/absent =
  unbounded semantics) and optional exploration knobs
  (``max_depth``, ``max_configurations``, ``max_steps``, ``strategy``,
  ``retention``).  With ``"stream": true`` the reply is a Server-Sent
  -Events stream — ``ready`` (query acknowledged), ``progress`` (per
  depth level: cumulative configurations), ``final`` (the verdict) —
  and the query runs inline on the warm session with a cooperative
  deadline.  Without it the reply is one JSON verdict and the query
  runs **isolated** on a warm pooled worker, where ``timeout`` seconds
  kill the worker (HTTP 504) while the session stays healthy.
* ``POST /v1/convergence`` — a recency-bound convergence scan
  (``bounds`` list, same condition fields).  Streaming replies emit one
  ``progress`` event per completed bound and a ``final`` event naming
  the least bound whose verdict matches the unbounded reference.

Admission control bounds concurrent queries: beyond
``max_concurrent`` in-flight requests, new ones get HTTP 429 with
``Retry-After`` instead of queueing.  Payload fields are decoded before
admission: a malformed knob (a non-integer, boolean or negative
``bound``/``bounds``/``max_*``, an unknown ``strategy``/``retention``, a
non-finite or non-positive ``timeout``) is an HTTP 400 naming the field.
Failed library preconditions (unknown case study, malformed query,
non-sentence condition) render as HTTP 400 too.
"""

from __future__ import annotations

import asyncio
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import QueryTimeoutError, ServiceError
from repro.modelcheck.result import ReachabilityResult
from repro.obs.metrics import EXPOSITION_CONTENT_TYPE, resolve_metrics
from repro.service.asgi import App, Request, Response, json_response, sse_event
from repro.service.sessions import SessionManager, int_field

__all__ = ["ServiceConfig", "create_app", "result_payload"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunable shape of one service instance.

    Attributes:
        max_concurrent: admission-control capacity (429 beyond it).
        default_timeout: per-request wall-clock budget in seconds when a
            payload does not carry its own ``timeout`` (``None`` = no
            budget).
        store: the warm session's result store argument.
        pool_workers: worker count of the warm session's pool.
        case_studies: ``{name: factory}`` registry override.
        metrics: a :class:`repro.obs.MetricsRegistry` (``None`` resolves
            to the process-wide registry).
        progress_every: emit a ``progress`` event at least every this
            many discovered configurations (depth changes always emit).
        clock: monotonic clock consulted by the streaming deadline path
            (the :class:`~repro.obs.ProgressReporter` idiom) — inject a
            fake to test timeout behaviour without real waiting.
    """

    max_concurrent: int = 8
    default_timeout: float | None = None
    store: object = None
    pool_workers: int | None = None
    case_studies: Mapping | None = None
    metrics: object = None
    progress_every: int = 500
    clock: Callable[[], float] = time.monotonic


def result_payload(result: ReachabilityResult) -> dict:
    """The JSON form of a reachability verdict."""
    return {
        "verdict": result.reachable.value,
        "configurations": result.configurations_explored,
        "edges": result.edges_explored,
        "depth": result.depth,
        "bound": result.bound,
        "witness_length": len(result.witness) if result.witness is not None else None,
    }


def _bound_of(payload: Mapping) -> int | None:
    bound = payload.get("bound")
    return None if bound is None else int_field("bound", bound)


def _bounds_of(payload: Mapping) -> tuple[int, ...]:
    bounds = payload.get("bounds", (0, 1, 2, 3, 4))
    if not isinstance(bounds, (list, tuple)):
        raise ServiceError(f"invalid 'bounds': expected a list of bounds, got {bounds!r}")
    return tuple(int_field("bounds", bound) for bound in bounds)


def _timeout_of(payload: Mapping, config: ServiceConfig) -> float | None:
    timeout = payload.get("timeout", config.default_timeout)
    if timeout is None:
        return None
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)) or not 0 < timeout < math.inf:
        raise ServiceError(
            f"invalid 'timeout': expected a positive finite number of seconds, got {timeout!r}"
        )
    return float(timeout)


@contextmanager
def _admitted(manager: SessionManager, registry):
    """The span of one admitted request: counts its outcome, then frees its slot.

    The single place ``service_requests_total{outcome=ok|error}`` grows,
    so the counters reconcile with what clients saw.
    """
    try:
        yield
    except Exception:
        registry.counter("service_requests_total", outcome="error").inc()
        raise
    else:
        registry.counter("service_requests_total", outcome="ok").inc()
    finally:
        manager.release()


def _deadline_on_state(
    timeout: float | None,
    progress_every: int,
    emit: Callable[[str, dict], None],
    clock: Callable[[], float] = time.monotonic,
):
    """A progress callback enforcing a cooperative streaming deadline.

    Streaming queries run inline (their engine lives in this process),
    so the wall-clock budget (measured on ``clock``) is checked on each
    discovered configuration; blowing it raises
    :class:`~repro.errors.QueryTimeoutError`, which the stream reports
    as an ``error`` event.
    """
    deadline = clock() + timeout if timeout is not None else None
    state = {"depth": -1, "count": 0}

    def on_state(configuration, depth: int) -> None:
        state["count"] += 1
        if deadline is not None and clock() > deadline:
            raise QueryTimeoutError(
                f"streaming query exceeded its {timeout}s budget"
            )
        if depth != state["depth"] or state["count"] % progress_every == 0:
            state["depth"] = depth
            emit("progress", {"depth": depth, "configurations": state["count"]})

    return on_state


def _stream_response(work: Callable[[Callable[[str, dict], None]], None]) -> Response:
    """An SSE response fed by ``work`` running on a worker thread.

    ``work`` receives an ``emit(event, data)`` callable safe to call
    from its thread; frames cross into the event loop through an
    :class:`asyncio.Queue`.  ``work`` must emit a terminal event
    (``final`` or ``error``) — the stream closes after either.
    """
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()

    def emit(event: str | None, data) -> None:
        loop.call_soon_threadsafe(queue.put_nowait, (event, data))

    def run() -> None:
        try:
            work(emit)
        finally:
            emit(None, None)  # stream-end sentinel

    async def stream():
        future = loop.run_in_executor(None, run)
        try:
            while True:
                event, data = await queue.get()
                if event is None:
                    break
                yield sse_event(event, data)
        finally:
            await future

    return Response(
        200,
        body=stream(),
        content_type="text/event-stream",
        headers=[("cache-control", "no-cache")],
    )


def create_app(config: ServiceConfig | None = None) -> App:
    """Build the service as a plain ASGI application (see module docs).

    The returned app is servable by any ASGI server (``uvicorn`` via
    the ``repro[service]`` extra) and drivable in-process by
    :class:`repro.service.testing.AsgiClient`; the session manager is
    created on lifespan startup and closed on shutdown.
    """
    config = config or ServiceConfig()
    app = App()

    @app.on_startup
    def start_manager() -> None:
        app.state["manager"] = SessionManager(
            case_studies=config.case_studies,
            max_concurrent=config.max_concurrent,
            store=config.store,
            pool_workers=config.pool_workers,
            metrics=config.metrics,
        )

    @app.on_shutdown
    def stop_manager() -> None:
        manager = app.state.pop("manager", None)
        if manager is not None:
            manager.close()

    def manager() -> SessionManager:
        return app.state["manager"]

    @app.route("GET", "/healthz")
    async def healthz(request: Request) -> Response:
        m = manager()
        return json_response(
            {
                "status": "ok",
                "case_studies": list(m.case_studies()),
                "active_requests": m.active,
                "warm_contexts": len(m.session.warm_context_keys()),
            }
        )

    @app.route("GET", "/metrics")
    async def metrics(request: Request) -> Response:
        exposition = resolve_metrics(config.metrics).exposition()
        return Response(
            200,
            body=(exposition + "\n").encode("utf-8"),
            content_type=EXPOSITION_CONTENT_TYPE,
        )

    @app.route("GET", "/v1/casestudies")
    async def casestudies(request: Request) -> Response:
        return json_response({"case_studies": list(manager().case_studies())})

    @app.route("POST", "/v1/reachability")
    async def reachability(request: Request) -> Response:
        m = manager()
        payload = request.json()
        system = m.system(str(payload.get("case_study", "")))
        condition = m.condition(payload)
        options = m.query_options(payload)
        bound = _bound_of(payload)
        timeout = _timeout_of(payload, config)
        registry = resolve_metrics(config.metrics)
        m.acquire()
        if payload.get("stream"):

            def work(emit: Callable[[str, dict], None]) -> None:
                try:
                    with _admitted(m, registry):
                        emit(
                            "ready",
                            {
                                "case_study": payload["case_study"],
                                "bound": bound,
                                "max_depth": options.max_depth,
                            },
                        )
                        result = m.session.run_reachability(
                            system,
                            condition,
                            bound=bound,
                            options=options,
                            on_state=_deadline_on_state(
                                timeout, config.progress_every, emit, config.clock
                            ),
                        )
                    emit("final", result_payload(result))
                except Exception as error:  # noqa: BLE001 - report through the stream
                    emit("error", {"error": str(error), "kind": type(error).__name__})

            return _stream_response(work)
        loop = asyncio.get_running_loop()
        with _admitted(m, registry):
            result = await loop.run_in_executor(
                None,
                lambda: m.session.run_reachability_isolated(
                    system, condition, bound=bound, options=options, timeout=timeout
                ),
            )
        return json_response(result_payload(result))

    @app.route("POST", "/v1/convergence")
    async def convergence(request: Request) -> Response:
        m = manager()
        payload = request.json()
        system = m.system(str(payload.get("case_study", "")))
        condition = m.condition(payload)
        options = m.query_options(payload)
        bounds = _bounds_of(payload)
        registry = resolve_metrics(config.metrics)
        m.acquire()

        def scan(emit: Callable[[str, dict], None] | None) -> dict:
            reference = m.session.run_reachability(system, condition, options=options)

            def on_point(record) -> None:
                if emit is not None:
                    emit(
                        "progress",
                        {"bound": record.parameters["b"], **record.measurements},
                    )

            rows = m.session.reachability_bound_sweep(
                system, condition, bounds, options=options, on_point=on_point
            )
            converged = next(
                (entry.bound for entry in rows if entry.verdict == reference.reachable),
                None,
            )
            return {
                "reference_verdict": reference.reachable.value,
                "converged_bound": converged,
                "rows": [
                    {
                        "bound": entry.bound,
                        "verdict": entry.verdict.value,
                        "configurations": entry.configurations,
                        "edges": entry.edges,
                    }
                    for entry in rows
                ],
            }

        if payload.get("stream"):

            def work(emit: Callable[[str, dict], None]) -> None:
                try:
                    with _admitted(m, registry):
                        emit(
                            "ready",
                            {"case_study": payload["case_study"], "bounds": list(bounds)},
                        )
                        final = scan(emit)
                    emit("final", final)
                except Exception as error:  # noqa: BLE001 - report through the stream
                    emit("error", {"error": str(error), "kind": type(error).__name__})

            return _stream_response(work)
        loop = asyncio.get_running_loop()
        with _admitted(m, registry):
            final = await loop.run_in_executor(None, lambda: scan(None))
        return json_response(final)

    return app
