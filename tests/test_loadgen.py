"""Tests for the traffic-replay subsystem (:mod:`repro.loadgen`).

Covers the sketch (unit + hypothesis properties: monotone quantiles,
bounds, exact merge associativity), metrics-fold reconciliation under
arbitrary interleavings, byte-deterministic seeded scripts and trace
round-trips, closed- and open-loop replay with the soak-invariant
audit, chaos behaviour (worker SIGKILL mid-soak, 429 saturation with
full readmission), tamper detection in the invariant checker, and the
``python -m repro.loadgen`` CLI.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.loadgen import (
    LoadReport,
    QuantileSketch,
    builtin_templates,
    check_invariants,
    generate_sessions,
    read_trace,
    request_totals,
    run_closed_loop,
    run_open_loop,
    trace_lines,
    vocabulary,
    write_trace,
)
from repro.loadgen.cli import main as loadgen_main
from repro.obs.metrics import MetricsRegistry
from repro.search import process_backend_available
from repro.service import AsgiClient, ServiceConfig, create_app

needs_fork = pytest.mark.skipif(
    not process_backend_available(), reason="fork start method unavailable"
)

_REPO = Path(__file__).resolve().parents[1]


# -- quantile sketch: unit ------------------------------------------------------


def test_sketch_quantiles_over_known_values():
    sketch = QuantileSketch(relative_error=0.01)
    for value in range(1, 101):
        sketch.observe(float(value))
    assert sketch.count == 100
    assert sketch.minimum == 1.0
    assert sketch.maximum == 100.0
    median = sketch.quantile(0.5)
    assert median == pytest.approx(50.0, rel=0.05)
    assert sketch.quantile(0.0) == pytest.approx(1.0, rel=0.05)
    assert sketch.quantile(1.0) == 100.0  # clamped to the observed max


def test_sketch_empty_and_invalid_inputs():
    sketch = QuantileSketch()
    assert sketch.quantile(0.5) is None
    assert sketch.mean() == 0.0
    with pytest.raises(ReproError):
        sketch.observe(-1.0)
    with pytest.raises(ReproError):
        sketch.quantile(1.5)
    with pytest.raises(ReproError):
        QuantileSketch(relative_error=0.0)
    with pytest.raises(ReproError):
        sketch.merge(QuantileSketch(relative_error=0.5))


def test_sketch_snapshot_round_trip():
    sketch = QuantileSketch()
    for value in (0.0, 0.001, 1.0, 250.0):
        sketch.observe(value)
    rebuilt = QuantileSketch.from_snapshot(json.loads(json.dumps(sketch.snapshot())))
    assert rebuilt.count == sketch.count
    assert rebuilt.minimum == sketch.minimum
    assert rebuilt.maximum == sketch.maximum
    assert rebuilt.buckets == sketch.buckets
    for q in (0.0, 0.5, 0.99, 1.0):
        assert rebuilt.quantile(q) == sketch.quantile(q)


# -- quantile sketch: properties ------------------------------------------------

_VALUES = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


def _filled(values: list[float]) -> QuantileSketch:
    sketch = QuantileSketch()
    for value in values:
        sketch.observe(value)
    return sketch


@settings(max_examples=50, deadline=None)
@given(_VALUES)
def test_sketch_quantiles_are_monotone_and_bounded(values):
    sketch = _filled(values)
    qs = [i / 20 for i in range(21)]
    results = [sketch.quantile(q) for q in qs]
    for earlier, later in zip(results, results[1:]):
        assert earlier <= later
    for result in results:
        assert min(values) <= result <= max(values)


@settings(max_examples=50, deadline=None)
@given(_VALUES)
def test_sketch_accuracy_within_relative_error(values):
    sketch = QuantileSketch(relative_error=0.01)
    for value in values:
        sketch.observe(value)
    ordered = sorted(values)
    for q in (0.0, 0.5, 0.9, 1.0):
        rank = max(1, math.ceil(q * len(ordered)))
        exact = ordered[rank - 1]
        approx = sketch.quantile(q)
        assert abs(approx - exact) <= 0.011 * exact + 1e-12


@settings(max_examples=50, deadline=None)
@given(_VALUES, _VALUES, _VALUES)
def test_sketch_merge_is_associative_and_commutative(a, b, c):
    left = _filled(a).merge(_filled(b)).merge(_filled(c))
    right = _filled(a).merge(_filled(b).merge(_filled(c)))
    flipped = _filled(c).merge(_filled(b)).merge(_filled(a))
    for other in (right, flipped):
        assert left.buckets == other.buckets
        assert left.count == other.count
        assert left.minimum == other.minimum
        assert left.maximum == other.maximum
        for q in (0.0, 0.25, 0.5, 0.75, 0.99, 1.0):
            assert left.quantile(q) == other.quantile(q)


# -- metrics-fold reconciliation under arbitrary interleavings ------------------


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from(["ok", "error", "rejected"])),
        max_size=60,
    ),
    st.randoms(use_true_random=False),
)
def test_metrics_fold_reconciles_any_interleaving(events, rng):
    """Counters folded from per-worker registries in any order reconcile."""
    workers = [MetricsRegistry() for _ in range(4)]
    for worker, outcome in events:
        workers[worker].counter("service_requests_total", outcome=outcome).inc()
    snapshots = [registry.snapshot() for registry in workers]
    rng.shuffle(snapshots)
    folded = MetricsRegistry()
    for index, snapshot in enumerate(snapshots):
        folded.fold(snapshot, node=str(index))
    for outcome in ("ok", "error", "rejected"):
        want = sum(1 for _, kind in events if kind == outcome)
        assert folded.sum_counter("service_requests_total", outcome=outcome) == want


# -- session scripts and traces -------------------------------------------------


def test_generate_sessions_is_deterministic_and_seed_sensitive():
    first = trace_lines(generate_sessions(7, 5, requests_per_user=4))
    second = trace_lines(generate_sessions(7, 5, requests_per_user=4))
    other = trace_lines(generate_sessions(8, 5, requests_per_user=4))
    assert first == second
    assert first != other
    assert len(first) == 20
    for line in first:
        document = json.loads(line)
        assert document["endpoint"] in ("reachability", "convergence")
        assert ("bounds" in document["payload"]) == (document["endpoint"] == "convergence")


def test_trace_is_pythonhashseed_independent():
    """The serialized trace is byte-identical under different hash seeds."""
    program = (
        "from repro.loadgen import generate_sessions, trace_lines;"
        "print('\\n'.join(trace_lines(generate_sessions(3, 4, requests_per_user=3))))"
    )
    outputs = []
    for hash_seed in ("0", "424242"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "PYTHONPATH": str(_REPO / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""),
        }
        result = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def test_trace_round_trip(tmp_path):
    scripts = generate_sessions(11, 3, requests_per_user=5)
    path = write_trace(scripts, tmp_path / "trace.jsonl")
    rebuilt = read_trace(path)
    assert rebuilt == scripts
    # Re-serializing the rebuilt scripts reproduces the bytes exactly.
    assert write_trace(rebuilt, tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_vocabulary_includes_corpus_entries():
    templates, registry = vocabulary(True, tier="smoke", limit=3)
    corpus = [template for template in templates if template.source == "corpus"]
    assert len(corpus) == 3
    assert len(templates) == len(builtin_templates()) + 3
    assert [template.case_study for template in corpus] == sorted(
        template.case_study for template in corpus
    )
    for template in corpus:
        assert template.case_study in registry
        system = registry[template.case_study]()
        assert system is registry[template.case_study]()  # cached object
    plain_templates, plain_registry = vocabulary()
    assert plain_templates == builtin_templates()
    assert set(registry) - set(plain_registry) == {template.case_study for template in corpus}


# -- replay end to end ----------------------------------------------------------


def _fresh_service(max_concurrent: int = 8):
    metrics = MetricsRegistry()
    config = ServiceConfig(max_concurrent=max_concurrent, store=False, metrics=metrics)
    return create_app(config), metrics


@needs_fork
def test_closed_loop_replay_passes_all_invariants():
    app, metrics = _fresh_service()
    scripts = generate_sessions(0, 3, requests_per_user=3)
    with AsgiClient(app) as client:
        report = run_closed_loop(client, scripts, think_scale=0.0)
        audit = check_invariants(report, client=client, metrics=metrics)
    assert report.sent == 9
    assert report.count("ok") == 9
    assert report.latency.count == 9
    assert report.throughput > 0
    assert audit.ok, audit.problems
    assert audit.checked_verdicts > 0


@needs_fork
def test_closed_loop_soak_repeats_sessions_until_deadline():
    app, metrics = _fresh_service()
    scripts = generate_sessions(1, 2, requests_per_user=2)
    with AsgiClient(app) as client:
        report = run_closed_loop(client, scripts, think_scale=0.0, duration=3.0)
        audit = check_invariants(report, client=client, metrics=metrics)
    # A soak loops each session: more requests than one pass's worth.
    assert report.sent > 4
    assert audit.ok, audit.problems


@needs_fork
def test_open_loop_saturation_rejects_and_fully_readmits():
    app, metrics = _fresh_service(max_concurrent=1)
    scripts = generate_sessions(2, 6, requests_per_user=3)
    with AsgiClient(app) as client:
        report = run_open_loop(client, scripts, think_scale=0.0)
        assert report.count("rejected") > 0  # saturation produced 429s
        audit = check_invariants(report, client=client, metrics=metrics)
        assert audit.ok, audit.problems
        # Full readmission: a subsequent closed-loop pass is all-ok.
        again = run_closed_loop(client, generate_sessions(3, 1, requests_per_user=3))
        assert again.count("ok") == 3
        assert client.get("/healthz").json()["active_requests"] == 0


def test_report_sketches_and_json_shape():
    app, _ = _fresh_service()
    scripts = generate_sessions(4, 2, requests_per_user=2)
    streaming_only = [
        dataclasses.replace(
            script,
            requests=tuple(
                dataclasses.replace(
                    request,
                    stream=True,
                    endpoint="reachability",
                    payload={
                        "case_study": "example31",
                        "condition": "Exists x. R(x)",
                        "bound": 1,
                        "max_depth": 2,
                        "stream": True,
                    },
                )
                for request in script.requests
            ),
        )
        for script in scripts
    ]
    with AsgiClient(app) as client:
        report = run_closed_loop(client, streaming_only, think_scale=0.0)
    assert report.count("ok") == 4
    assert report.time_to_ready.count == 4
    assert report.time_to_final.count == 4
    assert report.time_to_ready.quantile(0.5) <= report.time_to_final.quantile(0.5)
    document = report.as_json()
    assert document["outcomes"] == {"ok": 4, "rejected": 0, "error": 0}
    assert document["latency"]["count"] == 4
    json.dumps(document)  # the whole report is JSON-serializable


# -- chaos ----------------------------------------------------------------------


@needs_fork
def test_worker_kill_mid_soak_respawns_and_recovers():
    app, metrics = _fresh_service()
    query = {"case_study": "example31", "condition": "Exists x. R(x)", "bound": 1, "max_depth": 2}
    with AsgiClient(app) as client:
        assert client.post("/v1/reachability", json_body=query).status == 200
        baseline = request_totals(metrics)  # the warm-up request above
        manager = app.state["manager"]
        keys = manager.session.warm_context_keys()
        assert keys
        victim = manager.session.pool.worker_pids(keys[0])[0]
        os.kill(victim, signal.SIGKILL)
        # SIGKILL delivery is asynchronous; wait for the process to die.
        for _ in range(200):
            try:
                os.kill(victim, 0)
            except OSError:
                break
            time.sleep(0.01)
        # The session respawns lazily: replayed traffic still succeeds
        # and the soak invariants (including health) hold afterwards.
        report = run_closed_loop(
            client, generate_sessions(5, 2, requests_per_user=2), think_scale=0.0
        )
        assert report.count("ok") == report.sent
        audit = check_invariants(report, client=client, metrics=metrics, baseline=baseline)
        assert audit.healthy_after_chaos, audit.problems
        assert audit.ok, audit.problems
        respawned = manager.session.pool.worker_pids(keys[0])
        assert victim not in respawned


@needs_fork
def test_429_storm_leaves_no_stuck_admission_slots():
    app, metrics = _fresh_service(max_concurrent=2)
    with AsgiClient(app) as client:
        manager = app.state["manager"]
        for _ in range(2):
            manager.acquire()
        try:
            storm = run_closed_loop(
                client, generate_sessions(6, 2, requests_per_user=3), think_scale=0.0
            )
        finally:
            for _ in range(2):
                manager.release()
        assert storm.count("rejected") == storm.sent  # fully saturated
        after = run_closed_loop(
            client, generate_sessions(7, 2, requests_per_user=2), think_scale=0.0
        )
        assert after.count("ok") == after.sent  # full readmission
        merged = LoadReport.collect(
            list(storm.outcomes) + list(after.outcomes), storm.duration + after.duration
        )
        audit = check_invariants(merged, client=client, metrics=metrics)
        assert audit.ok, audit.problems


# -- tamper detection -----------------------------------------------------------


@needs_fork
def test_invariant_checker_detects_tampered_verdicts_and_counters():
    app, metrics = _fresh_service()
    with AsgiClient(app) as client:
        report = run_closed_loop(
            client, generate_sessions(8, 1, requests_per_user=2), think_scale=0.0
        )
        after_replay = request_totals(metrics)
        assert check_invariants(report, client=client, metrics=metrics).ok
        # Later audits must discount the earlier audit's own probe
        # traffic: the non-replay counter growth is the baseline.
        drift = {k: v - after_replay[k] for k, v in request_totals(metrics).items()}
        tampered_outcomes = []
        for outcome in report.outcomes:
            if outcome.result is not None and "verdict" in outcome.result:
                wrong = dict(outcome.result)
                wrong["verdict"] = "fails" if wrong["verdict"] != "fails" else "holds"
                outcome = dataclasses.replace(outcome, result=wrong)
            tampered_outcomes.append(outcome)
        tampered = LoadReport.collect(tampered_outcomes, report.duration)
        audit = check_invariants(tampered, client=client, metrics=metrics, baseline=drift)
        assert not audit.verdicts_match
        assert audit.metrics_reconcile
        assert audit.problems
        drift = {k: v - after_replay[k] for k, v in request_totals(metrics).items()}
        metrics.counter("service_requests_total", outcome="ok").inc(5)
        audit = check_invariants(report, client=client, metrics=metrics, baseline=drift)
        assert not audit.metrics_reconcile


# -- CLI ------------------------------------------------------------------------


def test_cli_plan_only_writes_deterministic_trace(tmp_path, capsys):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (first, second):
        assert (
            loadgen_main(
                ["--seed", "9", "--users", "3", "--requests", "2", "--trace-out", str(path), "--plan-only"]
            )
            == 0
        )
    assert first.read_bytes() == second.read_bytes()
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["users"] == 3
    assert summary["requests"] == 6


@needs_fork
def test_cli_replays_trace_with_invariants(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    write_trace(generate_sessions(10, 2, requests_per_user=2), trace)
    code = loadgen_main(
        ["--replay", str(trace), "--think-scale", "0", "--check-invariants"]
    )
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["sent"] == 4
    assert document["invariants"]["ok"] is True
    assert document["invariants"]["verdicts_match"] is True
    assert document["invariants"]["metrics_reconcile"] is True
    assert document["invariants"]["healthy_after_chaos"] is True
