"""Tests for the HTTP verification service (:mod:`repro.service`).

Everything runs in-process through
:class:`repro.service.testing.AsgiClient` — no sockets, no server
dependency.  Covers the service contracts:

* **SSE ordering** — a streaming query emits ``ready`` then
  ``progress`` events then exactly one ``final``;
* **Admission control** — a saturated service answers 429 with
  ``Retry-After`` instead of queueing;
* **Timeouts** — a blown per-request budget answers 504 (the worker is
  killed) and the warm session keeps serving afterwards;
* **Parity** — service verdicts are bit-identical to direct library
  calls, including under ≥8 concurrent requests sharing the warm
  session's pooled engines.
"""

from __future__ import annotations

import itertools
import threading

import pytest

from repro.api import ExplorationOptions, run_reachability
from repro.casestudies.booking import booking_agency_system
from repro.fol.parser import parse_query
from repro.obs.metrics import EXPOSITION_CONTENT_TYPE, MetricsRegistry
from repro.search import process_backend_available
from repro.service import AsgiClient, ServiceConfig, create_app, result_payload
from repro.service.testing import SSEParser

needs_fork = pytest.mark.skipif(
    not process_backend_available(), reason="fork start method unavailable"
)

SUBMITTED = "Exists x. BSubmitted(x)"
QUERY = {"case_study": "booking", "condition": SUBMITTED, "bound": 2, "max_depth": 4}


@pytest.fixture(scope="module")
def client():
    config = ServiceConfig(max_concurrent=8, store=False, metrics=MetricsRegistry())
    with AsgiClient(create_app(config)) as warm:
        yield warm


def expected_payload():
    """The direct-library verdict for :data:`QUERY`, as the service renders it."""
    result = run_reachability(
        booking_agency_system(),
        parse_query(SUBMITTED),
        bound=2,
        options=ExplorationOptions(max_depth=4),
        store=False,
    )
    return result_payload(result)


# -- plumbing endpoints --------------------------------------------------------


def test_healthz_reports_warm_state(client):
    reply = client.get("/healthz")
    assert reply.status == 200
    body = reply.json()
    assert body["status"] == "ok"
    assert "booking" in body["case_studies"]
    assert body["active_requests"] == 0


def test_metrics_exposition(client):
    reply = client.get("/metrics")
    assert reply.status == 200
    assert reply.header("content-type") == EXPOSITION_CONTENT_TYPE


def test_casestudies_listing(client):
    reply = client.get("/v1/casestudies")
    assert reply.status == 200
    assert set(reply.json()["case_studies"]) >= {"booking", "example31", "students", "warehouse"}


def test_unknown_route_is_404(client):
    assert client.get("/v1/nonsense").status == 404


# -- reachability --------------------------------------------------------------


@needs_fork
def test_json_reachability_matches_direct_library_call(client):
    reply = client.post("/v1/reachability", json_body=QUERY)
    assert reply.status == 200
    assert reply.json() == expected_payload()


def test_streaming_reachability_event_ordering(client):
    reply = client.post("/v1/reachability", json_body={**QUERY, "stream": True})
    assert reply.status == 200
    assert reply.header("content-type") == "text/event-stream"
    events = reply.events()
    kinds = [kind for kind, _ in events]
    assert kinds[0] == "ready"
    assert kinds[-1] == "final"
    assert kinds.count("final") == 1
    assert set(kinds[1:-1]) == {"progress"}
    assert len(kinds) > 2  # a real exploration reports progress
    depths = [data["depth"] for kind, data in events if kind == "progress"]
    assert depths == sorted(depths)
    assert events[-1][1] == expected_payload()


def test_streaming_timeout_reports_error_event():
    # An injected clock advancing 5 "seconds" per reading makes the
    # deadline check deterministic: the budget blows on the exploration's
    # early state callbacks, with no real waiting and no flaky margins.
    ticks = itertools.count(step=5.0)
    config = ServiceConfig(
        store=False, metrics=MetricsRegistry(), clock=lambda: float(next(ticks))
    )
    with AsgiClient(create_app(config)) as fake_clock_client:
        reply = fake_clock_client.post(
            "/v1/reachability", json_body={**QUERY, "stream": True, "timeout": 10.0}
        )
    kinds = [kind for kind, _ in reply.events()]
    assert kinds[0] == "ready"
    assert kinds[-1] == "error"
    _, data = reply.events()[-1]
    assert data["kind"] == "QueryTimeoutError"


@needs_fork
def test_request_timeout_is_504_and_session_stays_healthy(client):
    deep = {
        "case_study": "booking",
        "condition": "Exists x. BAccepted(x)",
        "max_depth": 9,
        "max_configurations": 10**9,
        "max_steps": 10**9,
        "timeout": 0.5,
    }
    assert client.post("/v1/reachability", json_body=deep).status == 504
    # The killed worker respawns lazily; the next query still matches
    # the direct library verdict.
    reply = client.post("/v1/reachability", json_body=QUERY)
    assert reply.status == 200
    assert reply.json() == expected_payload()
    assert client.get("/healthz").json()["active_requests"] == 0


@needs_fork
def test_eight_concurrent_requests_share_the_warm_session(client):
    expected = expected_payload()
    replies: dict[int, object] = {}

    def post(index: int) -> None:
        replies[index] = client.post("/v1/reachability", json_body=QUERY)

    threads = [threading.Thread(target=post, args=(index,)) for index in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert len(replies) == 8
    assert all(reply.status == 200 for reply in replies.values())
    assert all(reply.json() == expected for reply in replies.values())
    assert client.get("/healthz").json()["active_requests"] == 0


# -- client plumbing: SSE parser, timing, bounded streaming --------------------


def test_sse_parser_handles_frames_split_across_chunk_boundaries():
    frames = (
        'event: ready\ndata: {"a": 1}\n\n'
        'event: progress\ndata: {"depth": 0}\n\n'
        'event: final\ndata: {"verdict": "holds"}\n\n'
    ).encode("utf-8")
    expected = SSEParser().feed(frames)
    assert [kind for kind, _ in expected] == ["ready", "progress", "final"]
    # Any chunking — byte-by-byte, mid-line, mid-separator — parses to
    # the identical event sequence.
    for size in (1, 2, 3, 7, 11, len(frames) - 1):
        parser = SSEParser()
        events = []
        for start in range(0, len(frames), size):
            events.extend(parser.feed(frames[start : start + size]))
        assert events == expected, f"chunk size {size}"
        assert parser.pending == b""
    # A trailing partial frame stays buffered until its blank line lands.
    parser = SSEParser()
    assert parser.feed(b"event: ready\ndata: {") == []
    assert parser.pending
    assert parser.feed(b'"a": 1}\n\n') == [("ready", {"a": 1})]


def test_per_request_timing_is_recorded(client):
    reply = client.get("/healthz")
    timing = reply.timing
    assert timing is not None
    assert timing.completed is not None
    assert timing.latency >= 0
    assert timing.time_to_first_byte is not None
    assert timing.started <= timing.first_byte <= timing.completed


def test_streaming_client_yields_events_incrementally(client):
    streamed = client.stream(
        "POST", "/v1/reachability", json_body={**QUERY, "stream": True}
    )
    assert streamed.status == 200
    assert streamed.header("content-type") == "text/event-stream"
    events = list(streamed.events())
    kinds = [kind for kind, _ in events]
    assert kinds[0] == "ready"
    assert kinds[-1] == "final"
    # Arrival marks exist for every event and never decrease.
    assert len(streamed.event_times) == len(events)
    assert streamed.event_times == sorted(streamed.event_times)
    assert streamed.event_time(0) <= streamed.event_time(len(events) - 1)
    assert streamed.timing.completed is not None
    assert streamed.event_time(len(events)) is None


def test_streaming_client_bounded_queue_applies_backpressure(client):
    # A single-chunk buffer cannot absorb the stream ahead of the
    # consumer: the producer must block on the queue, yet a (slow)
    # consumer still drains every event and the exchange completes.
    streamed = client.stream(
        "POST",
        "/v1/reachability",
        json_body={**QUERY, "stream": True},
        max_buffered=1,
    )
    kinds = [kind for kind, _ in streamed.events()]
    assert kinds[0] == "ready"
    assert kinds[-1] == "final"
    assert kinds.count("final") == 1


# -- admission control ---------------------------------------------------------


def test_saturated_service_answers_429(client):
    manager = client._app.state["manager"]
    for _ in range(8):
        manager.acquire()
    try:
        reply = client.post("/v1/reachability", json_body=QUERY)
        assert reply.status == 429
        assert reply.header("retry-after") == "1"
    finally:
        for _ in range(8):
            manager.release()
    # Capacity returned: the same request is admitted again.
    assert client.post("/v1/reachability", json_body={**QUERY, "stream": True}).status == 200


# -- request validation --------------------------------------------------------


def test_unknown_case_study_is_400(client):
    reply = client.post(
        "/v1/reachability", json_body={"case_study": "nope", "proposition": "open"}
    )
    assert reply.status == 400
    assert "unknown case study" in reply.json()["error"]


def test_condition_xor_proposition(client):
    both = {"case_study": "booking", "condition": SUBMITTED, "proposition": "open"}
    neither = {"case_study": "booking"}
    assert client.post("/v1/reachability", json_body=both).status == 400
    assert client.post("/v1/reachability", json_body=neither).status == 400


def test_undeclared_proposition_is_400(client):
    reply = client.post(
        "/v1/reachability",
        json_body={"case_study": "booking", "proposition": "no-such-relation"},
    )
    assert reply.status == 400


@pytest.mark.parametrize(
    "condition,named",
    [("Exists x. Nope(x)", "'Nope'"), ("Exists x. BAccepted(x, x)", "BAccepted/1")],
)
@pytest.mark.parametrize("endpoint", ["reachability", "convergence"])
def test_condition_off_the_schema_never_yields_a_verdict(client, endpoint, condition, named):
    payload = {**QUERY, "condition": condition, "bounds": [0, 2]}
    reply = client.post(f"/v1/{endpoint}", json_body=payload)
    assert reply.status == 400
    assert named in reply.json()["error"]
    streamed = client.post(f"/v1/{endpoint}", json_body={**payload, "stream": True})
    events = streamed.events()
    assert [kind for kind, _ in events] == ["ready", "error"]
    assert named in events[-1][1]["error"]
    assert client.get("/healthz").json()["active_requests"] == 0


def test_malformed_json_is_400(client):
    reply = client.request("POST", "/v1/reachability", json_body=None)
    assert reply.status == 400


def _warm_pids(client) -> dict:
    session = client._app.state["manager"].session
    return {key: session.pool.worker_pids(key) for key in session.warm_context_keys()}


@pytest.mark.parametrize(
    "endpoint,field,value",
    [
        ("reachability", "max_depth", "abc"),
        ("reachability", "max_depth", -1),
        ("reachability", "max_depth", 2.9),
        ("reachability", "max_depth", True),
        ("reachability", "max_configurations", None),
        ("reachability", "bound", "x"),
        ("reachability", "strategy", "zzz"),
        ("reachability", "retention", "sometimes"),
        ("reachability", "timeout", "nan"),
        ("reachability", "timeout", -1.0),
        ("reachability", "timeout", False),
        ("convergence", "bounds", ["q"]),
        ("convergence", "bounds", 3),
    ],
)
@pytest.mark.parametrize("stream", [False, True])
def test_malformed_knob_is_400_before_admission(client, endpoint, field, value, stream):
    if process_backend_available() and not _warm_pids(client):
        assert client.post("/v1/reachability", json_body=QUERY).status == 200  # warm a worker
    before = _warm_pids(client)
    payload = {**QUERY, field: value, "stream": stream}
    reply = client.post(f"/v1/{endpoint}", json_body=payload)
    assert reply.status == 400
    assert repr(field) in reply.json()["error"]
    assert _warm_pids(client) == before
    assert client.get("/healthz").json()["active_requests"] == 0


# -- convergence ---------------------------------------------------------------


def test_convergence_json(client):
    payload = {
        "case_study": "booking",
        "condition": SUBMITTED,
        "bounds": [0, 1, 2],
        "max_depth": 4,
    }
    # The second payload caps the exploration: every row must honour
    # the cap exactly as the reference query does.
    for body_in, cap in ((payload, None), ({**payload, "max_configurations": 5}, 5)):
        reply = client.post("/v1/convergence", json_body=body_in)
        assert reply.status == 200
        body = reply.json()
        assert [row["bound"] for row in body["rows"]] == [0, 1, 2]
        assert body["reference_verdict"] in {"holds", "fails", "unknown"}
        converged = body["converged_bound"]
        assert converged is None or any(
            row["bound"] == converged and row["verdict"] == body["reference_verdict"]
            for row in body["rows"]
        )
        if cap is not None:
            assert all(row["configurations"] <= cap for row in body["rows"])


def test_convergence_stream_emits_one_progress_per_bound(client):
    payload = {
        "case_study": "booking",
        "condition": SUBMITTED,
        "bounds": [0, 1],
        "max_depth": 4,
        "stream": True,
    }
    events = client.post("/v1/convergence", json_body=payload).events()
    kinds = [kind for kind, _ in events]
    assert kinds[0] == "ready"
    assert kinds[-1] == "final"
    progressed = [data["bound"] for kind, data in events if kind == "progress"]
    assert sorted(progressed) == [0, 1]
