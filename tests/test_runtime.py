"""Tests for the persistent parallel runtime (:mod:`repro.runtime`).

Covers the three runtime contracts:

* **Warm pools** — worker processes survive across explorations (same
  pids), contexts are shared under semantic keys, dead workers are
  health-checked, respawned, and their in-flight tasks re-run;
* **Scheduler determinism** — a sweep's rows are identical regardless
  of parallelism/completion order, points stream as they complete, and
  failing/timed-out points are retried before aborting the sweep;
* **Checkpoint/resume** — a sweep killed after N points and resumed
  from its JSONL checkpoint reproduces the exact row set of an
  uninterrupted run while recomputing only the missing points.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass

import pytest

from repro.errors import SchedulerError, WorkerPoolError
from repro.harness.experiments import experiment_e9_convergence
from repro.recency.explorer import RecencyExplorationLimits, RecencyExplorer
from repro.runtime import (
    PointRecord,
    SerialWorkerContext,
    SweepCheckpoint,
    SweepScheduler,
    WorkerPool,
    point_key,
)
from repro.search import Engine, SearchLimits, ShardedEngine, process_backend_available
from repro.workloads.sweeps import sweep

needs_fork = pytest.mark.skipif(
    not process_backend_available(), reason="fork start method unavailable"
)


# -- synthetic fixtures --------------------------------------------------------


@dataclass(frozen=True)
class Node:
    key: int


@dataclass(frozen=True)
class Edge:
    source: Node
    target: Node


DAG = {0: [1, 2, 3], 1: [4], 2: [5], 3: [4], 4: [6], 5: [6]}


def dag_successors(node: Node):
    return [Edge(node, Node(child)) for child in DAG.get(node.key, ())]


GRID = [{"n": n} for n in range(6)]


def square_measure(parameters: dict) -> dict:
    return {"square": parameters["n"] ** 2}


def slow_measure(parameters: dict) -> dict:
    time.sleep(0.05)
    return {"value": parameters["n"] * 10}


# -- warm worker pools ---------------------------------------------------------


@needs_fork
def test_pooled_engine_reuses_warm_workers_across_explorations():
    with WorkerPool(workers=2) as pool:
        engine = ShardedEngine(
            dag_successors,
            limits=SearchLimits(max_depth=5),
            shards=2,
            workers=2,
            pool=pool,
            pool_key="dag",
        )
        assert engine.backend_name == "pooled"
        first = engine.explore(Node(0))
        pids = pool.worker_pids("dag")
        assert len(pids) == 2
        second = engine.explore(Node(0))
        assert pool.worker_pids("dag") == pids  # warm: the same workers served both
        assert pool.health_check("dag")
        reference = Engine(dag_successors, limits=SearchLimits(max_depth=5)).explore(Node(0))
        for merged in (first, second):
            assert set(merged.states()) == set(reference.states())
            assert merged.edge_count == reference.edge_count
            assert merged.truncated == reference.truncated


@needs_fork
def test_pool_contexts_shared_across_engines_by_semantic_key():
    with WorkerPool(workers=2) as pool:
        first = ShardedEngine(
            dag_successors, shards=2, workers=2, pool=pool, pool_key=("dag", "shared")
        )
        second = ShardedEngine(
            dag_successors, shards=4, workers=2, pool=pool, pool_key=("dag", "shared")
        )
        first.explore(Node(0))
        pids = pool.worker_pids(("dag", "shared"))
        second.explore(Node(0))
        assert pool.worker_pids(("dag", "shared")) == pids
        assert pool.keys() == (("dag", "shared"),)


@needs_fork
def test_pool_respawns_crashed_worker_and_recovers_results():
    def slowish(parameters: dict) -> dict:
        time.sleep(0.1)
        return {"value": parameters["n"]}

    with WorkerPool(workers=2) as pool:
        context = pool.context("crashy", slowish, workers=2)
        for n in range(8):
            context.submit({"n": n})
        victims = context.pids()
        time.sleep(0.03)
        os.kill(victims[0], signal.SIGKILL)  # mid-flight crash
        outcomes = {}
        for task_id, value, error in context.events():
            assert error is None, error
            outcomes[task_id] = value
        # Every task completed despite the crash (the dead worker's task was re-run) ...
        assert outcomes == {n: {"value": n} for n in range(8)}
        # ... and the context healed itself with a fresh worker.
        assert pool.health_check("crashy")
        assert context.pids() != victims


@needs_fork
def test_pooled_exploration_survives_worker_killed_between_explorations():
    system_successors = dag_successors
    with WorkerPool(workers=2) as pool:
        engine = ShardedEngine(
            system_successors, limits=SearchLimits(max_depth=5), shards=2, workers=2,
            pool=pool, pool_key="kill-between",
        )
        reference = engine.explore(Node(0))
        os.kill(pool.worker_pids("kill-between")[0], signal.SIGKILL)
        for _ in range(200):  # SIGKILL delivery is asynchronous
            if not pool.health_check("kill-between"):
                break
            time.sleep(0.01)
        assert not pool.health_check("kill-between")
        again = engine.explore(Node(0))  # expand() health-checks and respawns lazily
        assert pool.health_check("kill-between")
        assert set(again.states()) == set(reference.states())
        assert again.edge_count == reference.edge_count


def test_pool_serial_fallback_is_deterministic_and_pid_free():
    with WorkerPool(workers=2, use_processes=False) as pool:
        engine = ShardedEngine(
            dag_successors, limits=SearchLimits(max_depth=5), shards=3, workers=2,
            pool=pool, pool_key="serial",
        )
        assert engine.backend_name == "pooled-serial"
        merged = engine.explore(Node(0))
        reference = Engine(dag_successors, limits=SearchLimits(max_depth=5)).explore(Node(0))
        assert set(merged.states()) == set(reference.states())
        assert pool.worker_pids("serial") == (os.getpid(),)


@needs_fork
def test_failed_expansion_does_not_contaminate_next_exploration():
    # An expansion whose successor function raises must fail cleanly AND
    # leave the warm context reusable: the next exploration through the
    # same context gets correct, uncontaminated results.
    poison = Node(5)

    def sometimes_failing(node: Node):
        if node == poison:
            raise ValueError("poisoned state")
        return dag_successors(node)

    with WorkerPool(workers=2) as pool:
        engine = ShardedEngine(
            sometimes_failing, limits=SearchLimits(max_depth=5), shards=2, workers=2,
            pool=pool, pool_key="poisoned",
        )
        with pytest.raises(WorkerPoolError, match="poisoned state"):
            engine.explore(Node(0))
        # Same warm context, clean run on a graph that avoids the poison.
        healthy = engine.explore(Node(1))
        reference = Engine(dag_successors, limits=SearchLimits(max_depth=5)).explore(Node(1))
        assert set(healthy.states()) == set(reference.states())
        assert healthy.edge_count == reference.edge_count


@needs_fork
def test_scheduler_abandoned_context_does_not_break_next_sweep():
    # A sweep aborted by SchedulerError leaves its context mid-run; a
    # second sweep reusing the same pool context must still produce a
    # complete, correct row set.
    def touchy(parameters: dict) -> dict:
        if parameters["n"] < 0:
            raise ValueError("bad point")
        time.sleep(0.02)
        return {"value": parameters["n"]}

    with WorkerPool(workers=2) as pool:
        first = SweepScheduler(parallel=2, pool=pool, context_key="touchy")
        with pytest.raises(SchedulerError):
            first.run([{"n": 1}, {"n": -1}, {"n": 2}, {"n": 3}], touchy)
        second = SweepScheduler(parallel=2, pool=pool, context_key="touchy")
        records = second.run([{"n": n} for n in range(5)], touchy)
        assert [record.as_row() for record in records] == [
            {"n": n, "value": n} for n in range(5)
        ]


@needs_fork
def test_serial_context_upgrades_to_processes_on_demand():
    from repro.runtime import ProcessWorkerContext

    with WorkerPool() as pool:
        serial = pool.context("upgrade", square_measure, workers=1)
        assert isinstance(serial, SerialWorkerContext)
        upgraded = pool.context("upgrade", square_measure, workers=2)
        assert isinstance(upgraded, ProcessWorkerContext)
        assert len(upgraded.pids()) == 2
        upgraded.submit({"n": 3})
        assert next(iter(upgraded.events()))[1] == {"square": 9}


@needs_fork
def test_auto_keyed_backend_releases_context_on_engine_close():
    # Without a semantic pool_key the context is tied to the engine's
    # successor closure; closing the engine must tear its workers down
    # instead of accumulating a warm context nothing can address again.
    with WorkerPool(workers=2) as pool:
        engine = ShardedEngine(
            dag_successors, limits=SearchLimits(max_depth=5), shards=2, workers=2, pool=pool
        )
        engine.explore(Node(0))
        assert len(pool.keys()) == 1
        engine.close()
        assert pool.keys() == ()


def test_convergence_checkpoint_keys_distinguish_queries(tmp_path):
    from repro.dms.builder import DMSBuilder
    from repro.fol.parser import parse_query
    from repro.modelcheck import Verdict
    from repro.modelcheck.convergence import reachability_bound_sweep
    from repro.workloads import drop_action_variant

    builder = DMSBuilder("memo-keys")
    builder.relations(("R", 1), ("Q", 1), ("p", 0))
    builder.initially("p")
    builder.action("produce", fresh=("x",), guard="p", add=[("R", "x")])
    builder.action("promote", parameters=("x",), guard="R(x)", add=[("Q", "x")], delete=[("R", "x")])
    system = builder.build()
    checkpoint = tmp_path / "bounds.jsonl"
    first = reachability_bound_sweep(
        system, parse_query("exists u. Q(u)"), bounds=(1, 2), max_depth=3,
        checkpoint=checkpoint,
    )
    # Same file, different condition: the memo must NOT serve the old rows.
    second = reachability_bound_sweep(
        system, parse_query("exists u. R(u)"), bounds=(1, 2), max_depth=3,
        checkpoint=checkpoint, resume=True,
    )
    memo = SweepCheckpoint(checkpoint).load()
    assert len(memo) == 4  # two conditions x two bounds, distinct content keys
    # And re-running the first condition with resume serves it unchanged.
    again = reachability_bound_sweep(
        system, parse_query("exists u. Q(u)"), bounds=(1, 2), max_depth=3,
        checkpoint=checkpoint, resume=True,
    )
    assert again == first
    assert second != first  # different condition, genuinely different rows
    # Same file, same name and condition, different system: dropping
    # `promote` keeps the name but makes Q unreachable, so the memo must
    # not serve the original system's rows.
    variant = drop_action_variant(system, "promote")
    resumed = reachability_bound_sweep(
        variant, parse_query("exists u. Q(u)"), bounds=(1, 2), max_depth=3,
        checkpoint=checkpoint, resume=True,
    )
    fresh = reachability_bound_sweep(
        variant, parse_query("exists u. Q(u)"), bounds=(1, 2), max_depth=3,
    )
    assert resumed == fresh
    assert [entry.verdict for entry in fresh] == [Verdict.UNKNOWN, Verdict.UNKNOWN]
    assert [entry.verdict for entry in first] == [Verdict.HOLDS, Verdict.HOLDS]


@needs_fork
def test_auto_keyed_contexts_are_lease_counted_across_engines():
    # Two engines over the same successors closure (no pool_key) share
    # one auto-keyed context; closing one must not tear down the context
    # the other still uses — only the last close does.
    with WorkerPool(workers=2) as pool:
        first = ShardedEngine(
            dag_successors, limits=SearchLimits(max_depth=5), shards=2, workers=2, pool=pool
        )
        second = ShardedEngine(
            dag_successors, limits=SearchLimits(max_depth=5), shards=2, workers=2, pool=pool
        )
        reference = first.explore(Node(0))
        second.explore(Node(0))
        assert len(pool.keys()) == 1  # one shared context for the shared closure
        first.close()
        still_alive = second.explore(Node(0))  # the shared context must survive
        assert set(still_alive.states()) == set(reference.states())
        second.close()
        assert pool.keys() == ()  # last lease dropped -> context torn down
        # close() is idempotent and the engine can re-acquire afterwards.
        second.close()
        reacquired = second.explore(Node(0))
        assert set(reacquired.states()) == set(reference.states())


@needs_fork
def test_scheduler_releases_auto_contexts_on_shared_pools():
    # Sweeps keyed by measure identity must not leak warm worker groups
    # into a shared pool; semantic context_keys stay warm deliberately.
    with WorkerPool(workers=2) as pool:
        SweepScheduler(parallel=2, pool=pool).run(GRID, slow_measure)
        assert pool.keys() == ()
        SweepScheduler(parallel=2, pool=pool, context_key="keep-warm").run(GRID, slow_measure)
        assert pool.keys() == ("keep-warm",)


def test_pool_rejects_unknown_keys_and_use_after_shutdown():
    pool = WorkerPool(workers=1)
    with pytest.raises(WorkerPoolError):
        pool.worker_pids("never-registered")
    pool.shutdown()
    with pytest.raises(WorkerPoolError):
        pool.context("late", square_measure)


# -- scheduler determinism and streaming ---------------------------------------


def test_scheduler_rows_are_identical_regardless_of_parallelism():
    sequential = SweepScheduler(parallel=1).run(GRID, square_measure)
    rows = [record.as_row() for record in sequential]
    assert rows == [{"n": n, "square": n * n} for n in range(6)]
    if process_backend_available():
        parallel = SweepScheduler(parallel=3).run(GRID, slow_measure)
        again = SweepScheduler(parallel=1).run(GRID, slow_measure)
        assert [record.as_row() for record in parallel] == [
            record.as_row() for record in again
        ]
        assert [record.index for record in parallel] == list(range(6))


@needs_fork
def test_scheduler_streams_points_in_completion_order():
    seen: list[PointRecord] = []
    records = SweepScheduler(parallel=3).run(GRID, slow_measure, on_point=seen.append)
    assert sorted(record.index for record in seen) == list(range(6))
    assert [record.index for record in records] == list(range(6))  # run() re-sorts


def test_sweep_function_routes_through_scheduler_with_on_point():
    seen = []
    points = sweep(GRID, square_measure, on_point=seen.append)
    assert [point.as_row() for point in points] == [{"n": n, "square": n * n} for n in range(6)]
    assert len(seen) == 6 and all(isinstance(record, PointRecord) for record in seen)


def test_scheduler_retries_failing_point_then_succeeds(tmp_path):
    flag = tmp_path / "failed-once"

    def flaky(parameters: dict) -> dict:
        if parameters["n"] == 2 and not flag.exists():
            flag.write_text("x")
            raise ValueError("transient")
        return {"value": parameters["n"]}

    records = SweepScheduler(parallel=1, retries=1).run([{"n": n} for n in range(4)], flaky)
    assert [record.as_row() for record in records] == [
        {"n": n, "value": n} for n in range(4)
    ]
    assert [record.attempts for record in records] == [1, 1, 2, 1]


def test_scheduler_raises_after_retries_exhausted():
    def always_failing(parameters: dict) -> dict:
        raise ValueError("permanent")

    with pytest.raises(SchedulerError, match="permanent"):
        SweepScheduler(parallel=1, retries=1).run([{"n": 0}], always_failing)


@needs_fork
def test_scheduler_timeout_kills_worker_and_retries(tmp_path):
    flag = tmp_path / "timed-out-once"

    def sticky(parameters: dict) -> dict:
        if parameters["n"] == 1 and not flag.exists():
            flag.write_text("x")
            time.sleep(30)
        return {"value": parameters["n"]}

    started = time.monotonic()
    records = SweepScheduler(parallel=2, timeout=0.8, retries=1).run(
        [{"n": n} for n in range(3)], sticky
    )
    assert time.monotonic() - started < 15
    assert [record.as_row() for record in records] == [{"n": n, "value": n} for n in range(3)]


def test_scheduler_rejects_bad_configuration():
    with pytest.raises(SchedulerError):
        SweepScheduler(parallel=0)
    with pytest.raises(SchedulerError):
        SweepScheduler(retries=-1)
    with pytest.raises(SchedulerError):
        SweepScheduler(resume=True)  # resume needs a checkpoint


# -- checkpoint / resume -------------------------------------------------------


def test_checkpoint_resume_round_trip_after_interrupt(tmp_path):
    checkpoint_path = tmp_path / "sweep.jsonl"
    full = SweepScheduler(parallel=1, checkpoint=checkpoint_path).run(GRID, square_measure)
    # One record per point; records are separated by blank isolator lines.
    lines = [line for line in checkpoint_path.read_text().splitlines() if line.strip()]
    assert len(lines) == len(GRID)

    # Simulate a sweep killed after 3 completed points: keep 3 records
    # plus a torn partial line from the in-flight write.
    checkpoint_path.write_text("\n".join(lines[:3]) + '\n{"key": "torn')

    executed = []

    def counting_measure(parameters: dict) -> dict:
        executed.append(parameters["n"])
        return square_measure(parameters)

    resumed = SweepScheduler(
        parallel=1, checkpoint=checkpoint_path, resume=True
    ).run(GRID, counting_measure)
    assert [record.as_row() for record in resumed] == [record.as_row() for record in full]
    assert len(executed) == len(GRID) - 3  # only the missing points were recomputed
    assert sum(1 for record in resumed if record.cached) == 3
    # The checkpoint now holds the full row set again and resumes clean.
    rerun = SweepScheduler(parallel=1, checkpoint=checkpoint_path, resume=True).run(
        GRID, counting_measure
    )
    assert all(record.cached for record in rerun)
    assert len(executed) == len(GRID) - 3


def test_checkpoint_is_content_keyed_not_position_keyed(tmp_path):
    checkpoint = SweepCheckpoint(tmp_path / "memo.jsonl")
    SweepScheduler(checkpoint=checkpoint).run(GRID[:4], square_measure)
    # A reordered, extended grid still reuses every computed point.
    reordered = list(reversed(GRID))
    records = SweepScheduler(checkpoint=checkpoint, resume=True).run(reordered, square_measure)
    cached = {record.parameters["n"] for record in records if record.cached}
    assert cached == {0, 1, 2, 3}
    assert point_key({"b": 1, "a": 2}) == point_key({"a": 2, "b": 1})  # canonical


def test_checkpoint_without_resume_starts_fresh(tmp_path):
    checkpoint_path = tmp_path / "fresh.jsonl"
    SweepScheduler(checkpoint=checkpoint_path).run(GRID, square_measure)
    records = SweepScheduler(checkpoint=checkpoint_path).run(GRID[:2], square_measure)
    assert not any(record.cached for record in records)
    remaining = [line for line in checkpoint_path.read_text().splitlines() if line.strip()]
    assert len(remaining) == 2  # old memo cleared


def test_checkpoint_load_skips_corrupt_lines(tmp_path):
    path = tmp_path / "memo.jsonl"
    checkpoint = SweepCheckpoint(path)
    checkpoint.record({"n": 1}, {"square": 1})
    with path.open("a") as handle:
        handle.write("not json\n")
        handle.write(json.dumps({"key": 7, "measurements": {}}) + "\n")  # bad key type
    memo = checkpoint.load()
    assert memo == {point_key({"n": 1}): {"square": 1}}


def test_point_key_rejects_noncanonical_values_instead_of_colliding(tmp_path):
    # Regression: point_key used ``default=str``, so assignments that
    # differ as Python values but share a str() rendering — e.g.
    # pathlib.Path("runs/x") versus the string "runs/x" — produced the
    # same key, and a resumed sweep served one point's measurements for
    # the other.  Non-JSON values must be rejected, not stringified.
    import pathlib

    with pytest.raises(TypeError):
        point_key({"out": pathlib.Path("runs/x")})
    assert "runs/x" in point_key({"out": "runs/x"})  # the honest form still works
    with pytest.raises(TypeError):
        point_key({"bounds": {1, 2}})  # sets stringify unstably
    with pytest.raises(TypeError):
        point_key({"measure": square_measure})  # callables have no content key
    with pytest.raises(TypeError):
        point_key({1: "non-string key"})
    # Canonicalisation keeps JSON-equal shapes together ...
    assert point_key({"grid": (1, 2)}) == point_key({"grid": [1, 2]})
    assert point_key({"a": 1, "b": 2}) == point_key({"b": 2, "a": 1})
    # ... and JSON-distinct scalars apart.
    assert point_key({"v": True}) != point_key({"v": 1})
    assert point_key({"v": 2}) != point_key({"v": 2.0})
    # record() enforces the same domain instead of writing a bad memo.
    with pytest.raises(TypeError):
        SweepCheckpoint(tmp_path / "memo.jsonl").record(
            {"out": pathlib.Path("runs/x")}, {"value": 1}
        )


def _hammer_checkpoint(path, writer: int, count: int) -> None:
    checkpoint = SweepCheckpoint(path)
    # Records far larger than the default text-IO buffer: the pre-fix
    # buffered write flushed them in several chunks, so concurrent
    # writers spliced fragments into each other's lines.
    payload = f"w{writer}-" * 4096
    for index in range(count):
        checkpoint.record(
            {"writer": writer, "index": index},
            {"writer": writer, "index": index, "payload": payload},
        )


@needs_fork
def test_concurrent_record_never_tears_or_interleaves_lines(tmp_path):
    # Regression: record() seek-and-inspected the tail then wrote via a
    # buffered read/write descriptor.  Under concurrent writers (a
    # shared memo across sweeps) both steps race: a buffered record
    # flushes in several raw writes, and another writer's line can land
    # between them.  The guarantee that closes the race is structural —
    # each record is ONE write() on an unbuffered append-only
    # descriptor, which the kernel serialises whole — so first pin the
    # structure, then hammer the behaviour from real processes.
    import multiprocessing
    from pathlib import Path

    path = tmp_path / "memo.jsonl"
    probe = tmp_path / "probe.jsonl"
    opens: list[tuple[str, int]] = []
    writes: list[bytes] = []
    real_open = Path.open

    class SpyHandle:
        def __init__(self, handle):
            self._handle = handle

        def __enter__(self):
            self._handle.__enter__()
            return self

        def __exit__(self, *exc_info):
            return self._handle.__exit__(*exc_info)

        def write(self, data):
            writes.append(bytes(data))
            return self._handle.write(data)

        def __getattr__(self, name):
            return getattr(self._handle, name)

    def spying_open(self, mode="r", buffering=-1, **kwargs):
        handle = real_open(self, mode, buffering, **kwargs)
        if self == probe and "b" in mode:
            opens.append((mode, buffering))
            return SpyHandle(handle)
        return handle

    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(Path, "open", spying_open)
        SweepCheckpoint(probe).record({"n": 0}, {"payload": "x" * 65536})
    assert opens == [("ab", 0)]  # append-only, unbuffered — never read/write
    assert len(writes) == 1  # the whole record lands in one kernel append
    assert writes[0].endswith(b"\n") and b'"payload"' in writes[0]

    writers, per_writer = 4, 20
    context = multiprocessing.get_context("fork")
    processes = [
        context.Process(target=_hammer_checkpoint, args=(path, writer, per_writer))
        for writer in range(writers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join()
        assert process.exitcode == 0
    memo = SweepCheckpoint(path).load()
    assert len(memo) == writers * per_writer  # no record lost or corrupted
    for writer in range(writers):
        for index in range(per_writer):
            measurements = memo[point_key({"writer": writer, "index": index})]
            assert measurements["writer"] == writer
            assert measurements["index"] == index
            assert measurements["payload"] == f"w{writer}-" * 4096


# -- the runtime through the experiment harness (E9) ---------------------------


def test_e9_rows_identical_sequential_vs_parallel():
    sequential = experiment_e9_convergence(max_depth=4)
    if process_backend_available():
        parallel = experiment_e9_convergence(max_depth=4, parallel=4)
        assert parallel == sequential


@needs_fork
def test_nested_parallelism_degrades_to_serial_expansion_in_workers():
    # A sweep point running on a daemonic scheduler worker cannot spawn
    # its own expansion processes; the engine must detect that and fall
    # back to serial expansion with identical results (the outer grid
    # level already provides the parallelism).
    def nested_measure(parameters: dict) -> dict:
        explorer = RecencyExplorer(
            tiny_dms(), 2, RecencyExplorationLimits(max_depth=3),
            shards=2, workers=2,  # would fork if allowed; must degrade inside a worker
        )
        result = explorer.explore()
        return {
            "backend": explorer.backend_name,
            "configurations": result.configuration_count,
            "edges": result.edge_count,
        }

    inline = nested_measure({})
    assert inline["backend"] == "process"  # the main process may fork
    records = SweepScheduler(parallel=2).run([{"n": 0}, {"n": 1}], nested_measure)
    for record in records:
        assert record.measurements["backend"] == "serial"  # degraded, not crashed
        assert record.measurements["configurations"] == inline["configurations"]
        assert record.measurements["edges"] == inline["edges"]


def tiny_dms():
    from repro.dms.builder import DMSBuilder

    builder = DMSBuilder("nested-runtime")
    builder.relations(("R", 1), ("p", 0))
    builder.initially("p")
    builder.action("make", fresh=("x",), guard="p", add=[("R", "x")])
    builder.action("stop", guard="p", delete=[("p",)])
    return builder.build()


def test_e9_checkpoint_resume_reproduces_exact_row_set(tmp_path):
    checkpoint_path = tmp_path / "e9.jsonl"
    uninterrupted = experiment_e9_convergence(max_depth=4, checkpoint=checkpoint_path)
    memo = SweepCheckpoint(checkpoint_path).load()
    assert len(memo) == 7  # 4 reachability bounds + 3 state-space bounds, one file
    lines = [line for line in checkpoint_path.read_text().splitlines() if line.strip()]
    checkpoint_path.write_text("\n".join(lines[:4]) + "\n")  # "killed" after 4 points
    resumed = experiment_e9_convergence(max_depth=4, checkpoint=checkpoint_path, resume=True)
    assert resumed == uninterrupted
    assert len(SweepCheckpoint(checkpoint_path).load()) == 7  # memo complete again


def test_cli_streams_checkpoints_and_rejects_unsupported_flags(tmp_path, capsys):
    from repro.harness.cli import main

    checkpoint = tmp_path / "cli-e9.jsonl"
    assert main(["E9", "--parallel", "2", "--checkpoint", str(checkpoint), "--stream"]) == 0
    captured = capsys.readouterr()
    # Per-point progress lines go to stderr; stdout stays pipeline-clean.
    assert "(streaming)" in captured.out and "[E9] point" in captured.err
    assert checkpoint.exists()
    assert main(["E9", "--checkpoint", str(checkpoint), "--resume"]) == 0
    # Flags an experiment would silently ignore are rejected instead.
    with pytest.raises(SystemExit):
        main(["E14", "--checkpoint", str(checkpoint)])
    with pytest.raises(SystemExit):
        main(["E1", "--parallel", "4"])
    with pytest.raises(SystemExit):
        main(["E9", "--quick"])
    with pytest.raises(SystemExit):
        main(["E9", "--resume"])  # resume needs a checkpoint to resume from
    capsys.readouterr()


def test_stream_experiment_returns_the_rows_it_prints(capsys):
    from repro.harness.reporting import stream_experiment

    rows = stream_experiment("E9", "convergence", experiment_e9_convergence, max_depth=3)
    assert rows == experiment_e9_convergence(max_depth=3)
    captured = capsys.readouterr()
    # Per-point progress lines go to stderr; stdout carries the header only.
    assert captured.err.count("[E9] point") == len(rows)


# -- explorer integration ------------------------------------------------------


@needs_fork
def test_recency_explorer_with_pool_matches_plain_exploration():
    from repro.casestudies.booking import booking_agency_system

    system = booking_agency_system()
    limits = RecencyExplorationLimits(max_depth=3)
    reference = RecencyExplorer(system, 2, limits).explore()
    with WorkerPool(workers=2) as pool:
        with RecencyExplorer(system, 2, limits, shards=2, workers=2, pool=pool) as explorer:
            assert explorer.backend_name == "pooled"
            first = explorer.explore()
            second = explorer.explore()
        key = ("recency", id(system), 2)
        assert key in pool.keys()
        assert pool.health_check(key)
    assert first.configurations == reference.configurations
    assert first.edge_count == reference.edge_count
    assert second.configurations == reference.configurations


def test_serial_worker_context_mirrors_the_protocol():
    context = SerialWorkerContext("serial", square_measure)
    identifiers = [context.submit({"n": n}) for n in range(3)]
    outcomes = list(context.events())
    assert [task_id for task_id, _, _ in outcomes] == identifiers
    assert [value for _, value, _ in outcomes] == [{"square": 0}, {"square": 1}, {"square": 4}]
    assert context.healthy() and context.ensure_alive() == []

    def broken(parameters: dict) -> dict:
        raise RuntimeError("inline failure")

    failing = SerialWorkerContext("broken", broken)
    failing.submit({})
    ((_, value, error),) = list(failing.events())
    assert value is None and "inline failure" in error
