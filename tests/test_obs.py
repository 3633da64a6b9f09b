"""The telemetry layer: registry folding, null-path cost, traces, progress.

Covers the observability contracts the E20 bench gates at scale:

* folding worker snapshots into a parent registry is **order-insensitive**
  (counters add, gauges take maxima, histograms merge component-wise),
  across pickling and forked processes — the same associative idiom as
  ``SearchResult.merge``;
* the **null registry** path allocates nothing: every handle getter
  returns a shared no-op singleton, so uninstrumented explorations pay
  no per-event cost;
* instrumented engines **reconcile** — the folded counters agree exactly
  with the final ``SearchResult`` (states interned, edges, levels);
* JSONL **trace files** replay-parse cleanly and summarize; corrupt
  lines are reported by line number;
* the throttled **progress reporter** and the ``python -m repro.obs``
  summarizer CLI behave as documented.
"""

from __future__ import annotations

import io
import json
import pickle
import sys
from dataclasses import dataclass

import pytest

from repro.obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    NullRegistry,
    ProgressReporter,
    Tracer,
    get_metrics,
    read_trace,
    resolve_metrics,
    set_global_registry,
    set_global_tracer,
    summarize_trace,
)
from repro.obs.cli import main as obs_main
from repro.runtime.pool import WorkerPool
from repro.runtime.scheduler import SweepScheduler
from repro.search import (
    RETAIN_FULL,
    Engine,
    ExplorationOptions,
    ShardedEngine,
    process_backend_available,
)
from repro.store.store import KIND_RESULT, ResultStore

needs_fork = pytest.mark.skipif(
    not process_backend_available(), reason="requires the fork start method"
)


# -- a tiny deterministic graph ------------------------------------------------


@dataclass(frozen=True)
class Node:
    key: int


@dataclass(frozen=True)
class Edge:
    source: Node
    target: Node


def lattice_successors(node: Node):
    if node.key >= 60:
        return []
    return [
        Edge(node, Node(node.key * 2 + 1)),
        Edge(node, Node(node.key * 2 + 2)),
        Edge(node, Node((node.key + 5) % 40)),
    ]


def retain_full(**fields) -> ExplorationOptions:
    """Options that keep every generated edge (``retention="full"``)."""
    return ExplorationOptions(retention=RETAIN_FULL, **fields)


# -- registry basics -----------------------------------------------------------


def test_counters_gauges_histograms_roundtrip():
    registry = MetricsRegistry()
    registry.counter("events_total", kind="a").inc()
    registry.counter("events_total", kind="a").inc(4)
    registry.counter("events_total", kind="b").inc(2)
    registry.gauge("depth").high_water(3)
    registry.gauge("depth").high_water(1)  # high-water keeps the max
    registry.histogram("latency").observe(0.5)
    registry.histogram("latency").observe(1.5)
    assert registry.counter_value("events_total", kind="a") == 5
    assert registry.sum_counter("events_total") == 7
    assert registry.gauge_value("depth") == 3
    histogram = registry.histogram("latency")
    assert histogram.count == 2
    assert histogram.total == 2.0
    assert histogram.minimum == 0.5
    assert histogram.maximum == 1.5
    assert histogram.mean() == 1.0


def test_exposition_is_sorted_prometheus_style():
    registry = MetricsRegistry()
    registry.counter("b_total", node="1").inc(2)
    registry.counter("a_total").inc()
    registry.histogram("t").observe(2.0)
    lines = registry.exposition().splitlines()
    assert lines == sorted(lines)
    assert 'b_total{node="1"} 2' in lines
    assert "a_total 1" in lines
    assert "t_count 1" in lines
    assert "t_sum 2.0" in lines
    assert "t_min 2.0" in lines
    assert "t_max 2.0" in lines


def test_fold_is_order_insensitive_and_label_appending():
    def worker_snapshot(seed: int) -> dict:
        registry = MetricsRegistry()
        registry.counter("work_total").inc(seed)
        registry.gauge("peak").high_water(seed * 10)
        registry.histogram("t").observe(float(seed))
        return registry.snapshot()

    snapshots = [worker_snapshot(seed) for seed in (1, 2, 3)]
    forward, backward = MetricsRegistry(), MetricsRegistry()
    for index, snapshot in enumerate(snapshots):
        forward.fold(snapshot, node=str(index))
    for index, snapshot in reversed(list(enumerate(snapshots))):
        backward.fold(snapshot, node=str(index))
    assert forward.exposition() == backward.exposition()
    assert forward.sum_counter("work_total") == 6
    assert forward.counter_value("work_total", node="2") == 3
    assert forward.gauge_value("peak", node="2") == 30


def test_fold_survives_pickling_as_tcp_frames_do():
    worker = MetricsRegistry()
    worker.counter("c").inc(7)
    worker.histogram("h").observe(0.25)
    snapshot = pickle.loads(pickle.dumps(worker.snapshot()))
    parent = MetricsRegistry()
    parent.fold(snapshot, node="0")
    assert parent.counter_value("c", node="0") == 7
    assert parent.histogram("h", node="0").count == 1


@needs_fork
def test_fold_across_forked_workers_is_order_insensitive():
    import multiprocessing

    context = multiprocessing.get_context("fork")

    def produce(seed, pipe):
        registry = MetricsRegistry()
        registry.counter("forked_total").inc(seed)
        pipe.send(registry.snapshot())
        pipe.close()

    snapshots = []
    for seed in (2, 5):
        parent_end, child_end = context.Pipe()
        process = context.Process(target=produce, args=(seed, child_end))
        process.start()
        snapshots.append(parent_end.recv())
        process.join()
    one, other = MetricsRegistry(), MetricsRegistry()
    one.fold(snapshots[0], node="0")
    one.fold(snapshots[1], node="1")
    other.fold(snapshots[1], node="1")
    other.fold(snapshots[0], node="0")
    assert one.exposition() == other.exposition()
    assert one.sum_counter("forked_total") == 7


# -- the null path -------------------------------------------------------------


def test_null_registry_allocates_no_handles():
    assert NULL_REGISTRY.enabled is False
    assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b", any_label="x")
    assert NULL_REGISTRY.gauge("a") is NULL_REGISTRY.gauge("b")
    assert NULL_REGISTRY.histogram("a") is NULL_REGISTRY.histogram("b")
    timer = NULL_REGISTRY.histogram("a").time()
    with timer:
        pass
    assert NULL_REGISTRY.histogram("x").time() is timer
    assert NULL_REGISTRY.snapshot() == {}
    assert NULL_REGISTRY.exposition() == ""
    assert isinstance(NULL_REGISTRY, NullRegistry)


def test_resolution_defaults_to_null_and_honours_global():
    assert resolve_metrics(None) is NULL_REGISTRY
    assert get_metrics() is NULL_REGISTRY
    registry = MetricsRegistry()
    set_global_registry(registry)
    try:
        assert resolve_metrics(None) is registry
        explicit = MetricsRegistry()
        assert resolve_metrics(explicit) is explicit
    finally:
        set_global_registry(None)
    assert get_metrics() is NULL_REGISTRY


def test_uninstrumented_exploration_records_nothing():
    result = Engine(lattice_successors, retain_full(max_depth=4)).explore(Node(0))
    assert result.state_count > 1
    assert get_metrics() is NULL_REGISTRY
    assert NULL_REGISTRY.snapshot() == {}


# -- engine reconciliation -----------------------------------------------------


def test_single_engine_counters_reconcile_with_result():
    registry = MetricsRegistry()
    engine = Engine(lattice_successors, retain_full(max_depth=5), metrics=registry)
    result = engine.explore(Node(0))
    assert registry.counter_value("engine_states_total", kind="interned") == result.state_count
    duplicates = registry.counter_value("engine_states_total", kind="duplicate")
    assert duplicates == result.edge_count - (result.state_count - 1)
    assert registry.sum_counter("engine_edges_total") == result.edge_count
    assert registry.gauge_value("engine_depth_reached") == result.depth_reached
    assert registry.counter_value("engine_explorations_total", engine="single") == 1
    assert registry.histogram("engine_explore_seconds", engine="single").count == 1


@pytest.mark.parametrize("workers", [1, pytest.param(4, marks=needs_fork)])
def test_sharded_folded_counters_reconcile_with_result(workers):
    registry = MetricsRegistry()
    engine = ShardedEngine(
        lattice_successors, retain_full(max_depth=6, shards=4, workers=workers), metrics=registry
    )
    result = engine.explore(Node(0))
    assert registry.counter_value("engine_states_total", kind="interned") == result.state_count
    assert registry.sum_counter("engine_edges_total") == result.edge_count
    assert registry.counter_value("sharded_levels_total") == len(result.levels()) - 1
    assert registry.gauge_value("engine_depth_reached") == result.depth_reached
    assert registry.gauge_value("engine_frontier_states") == max(
        len(states) for states in result.levels().values()
    )


def test_distributed_node_counters_fold_and_reconcile():
    registry = MetricsRegistry()
    engine = ShardedEngine(
        lattice_successors, retain_full(max_depth=5, shards=2, nodes=2), metrics=registry
    )
    try:
        result = engine.explore(Node(0))
    finally:
        engine.close()
    # Every non-root state was interned on some node; edges match exactly.
    assert registry.sum_counter("node_states_total") == result.state_count - 1
    assert registry.sum_counter("node_edges_total") == result.edge_count
    # Per-node series stay distinguishable and the traffic counters moved.
    per_node = [
        registry.counter_value("node_states_total", node=str(node)) for node in (0, 1)
    ]
    assert sum(per_node) == result.state_count - 1
    assert registry.sum_counter("dist_frames_total", direction="sent") > 0
    assert registry.sum_counter("dist_bytes_total", direction="received") > 0
    assert registry.sum_counter("dist_leases_total") == 1


# -- runtime instrumentation ---------------------------------------------------


def _square(parameters: dict) -> dict:
    return {"square": parameters["n"] * parameters["n"]}


def test_scheduler_counts_memo_and_run_points(tmp_path):
    # The scheduler counts the points it runs; the result store, the
    # memo of sweep points, counts the ones a warm sweep is served.
    from repro.casestudies.booking import booking_agency_system
    from repro.modelcheck.convergence import state_space_bound_sweep

    registry = MetricsRegistry()
    grid = [{"n": value} for value in range(4)]
    SweepScheduler(metrics=registry).run(grid, _square)
    assert registry.counter_value("sweep_points_total", source="run") == 4
    set_global_registry(registry)
    try:
        store = ResultStore(tmp_path / "store")
        for _ in range(2):
            state_space_bound_sweep(booking_agency_system(), (0, 1), 2, store=store)
    finally:
        set_global_registry(None)
    assert registry.counter_value("store_lookups_total", kind="result", outcome="miss") == 2
    assert registry.counter_value("store_lookups_total", kind="result", outcome="hit") == 2


def test_pool_records_task_outcomes_and_dispatch_latency():
    registry = MetricsRegistry()
    pool = WorkerPool(workers=2, metrics=registry)
    try:
        context = pool.context("squares", _square, workers=2)
        submitted = [context.submit({"n": value}) for value in range(5)]
        values = {task_id: value for task_id, value, _ in context.events()}
    finally:
        pool.shutdown()
    assert [values[task_id]["square"] for task_id in submitted] == [0, 1, 4, 9, 16]
    assert registry.counter_value("pool_tasks_total", outcome="ok") == 5
    assert registry.histogram("pool_dispatch_seconds").count == 5


# -- store instrumentation -----------------------------------------------------


def test_store_lookup_counters_and_session_stats(tmp_path):
    registry = MetricsRegistry()
    set_global_registry(registry)
    try:
        store = ResultStore(tmp_path / "store")
        assert store.load("00aa", kind=KIND_RESULT) is None  # miss
        store.save(
            "00aa", KIND_RESULT, {"rows": 1}, family="f", system_hash="s",
            schema_hash="h", base_hash="b", graph="dms", parameters="{}",
        )
        assert store.load("00aa") == {"rows": 1}  # hit (kind read from the row)
        blob = next((tmp_path / "store" / "blobs").glob("*.pkl"))
        blob.write_bytes(b"corrupt")
        assert store.load("00aa") is None  # self-repair counts as a miss
        session = store.stats()["session"]
        assert session["hits"] == {"result": 1}
        assert session["misses"] == {"result": 2}
        assert session["saves"] == {"result": 1}
        assert session["repairs"] == 1
        assert registry.counter_value("store_lookups_total", kind="result", outcome="hit") == 1
        assert registry.counter_value("store_lookups_total", kind="result", outcome="miss") == 2
        assert registry.counter_value("store_saves_total", kind="result") == 1
        assert registry.sum_counter("store_repairs_total") == 1
    finally:
        set_global_registry(None)


def test_store_session_counters_reset_across_pickling(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.load("00aa", kind=KIND_RESULT)
    assert store.stats()["session"]["misses"] == {"result": 1}
    forked = pickle.loads(pickle.dumps(store))
    assert forked.stats()["session"]["misses"] == {}


# -- traces --------------------------------------------------------------------


def test_trace_spans_nest_and_replay_parse(tmp_path):
    path = tmp_path / "trace.jsonl"
    with Tracer(path) as tracer:
        with tracer.span("explore", engine="single"):
            with tracer.span("expand", depth=0):
                pass
            tracer.event("point", index=0, source="run")
    records = read_trace(path)
    # Spans are written on exit: expand closes first, then the event
    # fires, then the enclosing explore span closes.
    assert [record["name"] for record in records] == ["expand", "point", "explore"]
    by_name = {record["name"]: record for record in records}
    assert by_name["expand"]["parent"] == by_name["explore"]["id"]
    assert by_name["point"]["parent"] == by_name["explore"]["id"]
    assert by_name["explore"]["seconds"] >= by_name["expand"]["seconds"]
    for record in records:
        assert record["pid"]
        json.dumps(record)  # every record is plain-JSON round-trippable
    summary = summarize_trace(records)
    assert summary["spans"]["explore"]["count"] == 1
    assert summary["events"]["point"] == 1


def test_corrupt_trace_line_is_reported_by_number(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"name": "ok", "attrs": {}}\nnot json\n')
    with pytest.raises(ValueError, match=r"trace\.jsonl:2"):
        read_trace(path)


def test_global_tracer_resolution_and_engine_spans(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(path)
    set_global_tracer(tracer)
    try:
        Engine(lattice_successors, retain_full(max_depth=3)).explore(Node(0))
        ShardedEngine(lattice_successors, retain_full(max_depth=3, shards=2)).explore(Node(0))
    finally:
        set_global_tracer(None)
        tracer.close()
    names = [record["name"] for record in read_trace(path)]
    assert names.count("explore") == 2
    assert "expand" in names  # the sharded per-level spans
    summary = summarize_trace(read_trace(path))
    engines = {record["attrs"]["engine"] for record in read_trace(path)
               if record["name"] == "explore"}
    assert engines == {"single", "sharded"}
    assert summary["spans"]["expand"]["count"] >= 3


def test_null_tracer_is_free_and_inert(tmp_path):
    span = NULL_TRACER.span("anything", depth=1)
    with span as inner:
        inner.note(extra=True)
    assert NULL_TRACER.span("other") is span


# -- progress ------------------------------------------------------------------


def test_progress_reporter_throttles_and_renders():
    clock = iter([0.0] + [0.1 * step for step in range(1, 400)])
    now = {"value": 0.0}

    def fake_clock() -> float:
        now["value"] = next(clock, now["value"] + 0.1)
        return now["value"]

    out = io.StringIO()
    reporter = ProgressReporter(interval=1.0, out=out, clock=fake_clock, check_every=1)
    for step in range(30):
        reporter.on_state(object(), depth=step % 5)
    assert 1 <= reporter.lines_emitted <= 4  # throttled to ~1/s of fake time
    line = reporter.final()
    assert "[progress]" in line
    assert "states=30" in line
    assert "depth=4" in line
    assert out.getvalue().count("[progress]") == reporter.lines_emitted


def test_progress_reporter_enriches_from_registry():
    registry = MetricsRegistry()
    registry.gauge("engine_frontier_states").high_water(12)
    registry.counter("store_lookups_total", kind="result", outcome="hit").inc(3)
    registry.counter("store_lookups_total", kind="result", outcome="miss").inc(1)
    out = io.StringIO()
    reporter = ProgressReporter(registry=registry, out=out, total_points=9)
    reporter.on_point(object())
    line = reporter.render()
    assert "points=1/9" in line
    assert "frontier=12" in line
    assert "store-hit=75%" in line


def test_progress_defaults_to_stderr(capsys):
    reporter = ProgressReporter()
    reporter.final()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[progress]" in captured.err


def test_stream_point_printer_writes_to_stderr(capsys):
    from repro.harness.reporting import point_printer
    from repro.runtime.scheduler import PointRecord

    printer = point_printer("E9")
    printer(PointRecord(index=0, parameters={"n": 1}, measurements={"square": 1}))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[E9] point 0: n=1  square=1" in captured.err


# -- the summarizer CLI --------------------------------------------------------


def test_obs_cli_summarizes_trace_files(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    with Tracer(path) as tracer:
        with tracer.span("explore", engine="single"):
            tracer.event("point", index=0, source="run")
    assert obs_main([str(path)]) == 0
    printed = capsys.readouterr().out
    assert "explore" in printed
    assert "point=1" in printed
    assert obs_main([str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"] == str(path)
    assert payload["spans"]["explore"]["count"] == 1


def test_obs_cli_reports_missing_file(tmp_path, capsys):
    assert obs_main([str(tmp_path / "absent.jsonl")]) == 1
    assert "absent.jsonl" in capsys.readouterr().err


def test_trace_records_carry_interpreter_compatible_json(tmp_path):
    # Replay-parse on the running interpreter (CI exercises 3.11 and
    # 3.12): everything json.loads accepts here round-trips bit-equal.
    path = tmp_path / "trace.jsonl"
    with Tracer(path) as tracer:
        with tracer.span("explore", strategy="bfs"):
            pass
    raw = path.read_text().splitlines()
    assert len(raw) == 1
    parsed = json.loads(raw[0])
    assert json.loads(json.dumps(parsed)) == parsed
    assert sys.version_info >= (3, 11)
