"""Tests for the persistent parallel runtime (:mod:`repro.runtime`).

Covers the three runtime contracts:

* **Warm pools** — worker processes survive across explorations (same
  pids), contexts are shared under semantic keys, dead workers are
  health-checked, respawned, and their in-flight tasks re-run;
* **Scheduler determinism** — a sweep's rows are identical regardless
  of parallelism/completion order, points stream as they complete, and
  a failing point aborts the sweep;
* **Resume through the store** — a sweep that lost points (killed
  before saving them) and is re-run against the same result store
  reproduces the exact row set of an uninterrupted run while
  recomputing only the missing points.
"""

from __future__ import annotations

import os
import signal
import sqlite3
import time
from contextlib import closing
from dataclasses import dataclass

import pytest

from repro.errors import SchedulerError, WorkerPoolError
from repro.harness.experiments import experiment_e9_convergence
from repro.modelcheck.convergence import state_space_bound_sweep
from repro.recency.explorer import RecencyExplorer
from repro.runtime import (
    PointRecord,
    SerialWorkerContext,
    SweepScheduler,
    WorkerPool,
)
from repro.search import (
    RETAIN_FULL,
    Engine,
    ExplorationOptions,
    ShardedEngine,
    process_backend_available,
)
from repro.store import KIND_RESULT, ResultStore, system_hash

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


def retain_full(**fields) -> ExplorationOptions:
    """Options that keep every generated edge (``retention="full"``)."""
    return ExplorationOptions(retention=RETAIN_FULL, **fields)


GRID = [{"n": n} for n in range(6)]


def square_measure(parameters: dict) -> dict:
    return {"square": parameters["n"] ** 2}


def slow_measure(parameters: dict) -> dict:
    time.sleep(0.05)
    return {"value": parameters["n"] * 10}


def pid_measure(parameters: dict) -> int:
    time.sleep(0.005)
    return os.getpid()


# -- warm worker pools ---------------------------------------------------------


@needs_fork
def test_pooled_engine_reuses_warm_workers_across_explorations():
    with WorkerPool(workers=2) as pool:
        engine = ShardedEngine(
            dag_successors, retain_full(max_depth=5, shards=2, workers=2), pool=pool, pool_key="dag"
        )
        assert engine.backend_name == "pooled"
        first = engine.explore(Node(0))
        pids = pool.worker_pids("dag")
        assert len(pids) == 2
        second = engine.explore(Node(0))
        assert pool.worker_pids("dag") == pids  # warm: the same workers served both
        assert pool.health_check("dag")
        reference = Engine(dag_successors, retain_full(max_depth=5)).explore(Node(0))
        for merged in (first, second):
            assert set(merged.states()) == set(reference.states())
            assert merged.edge_count == reference.edge_count
            assert merged.truncated == reference.truncated


@needs_fork
def test_pool_contexts_shared_across_engines_by_semantic_key():
    with WorkerPool(workers=2) as pool:
        first = ShardedEngine(
            dag_successors, retain_full(shards=2, workers=2), pool=pool, pool_key=("dag", "shared")
        )
        second = ShardedEngine(
            dag_successors, retain_full(shards=4, workers=2), pool=pool, pool_key=("dag", "shared")
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
            system_successors,
            retain_full(max_depth=5, shards=2, workers=2),
            pool=pool,
            pool_key="kill-between",
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
            dag_successors,
            retain_full(max_depth=5, shards=3, workers=2),
            pool=pool,
            pool_key="serial",
        )
        assert engine.backend_name == "pooled-serial"
        merged = engine.explore(Node(0))
        reference = Engine(dag_successors, retain_full(max_depth=5)).explore(Node(0))
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
            sometimes_failing,
            retain_full(max_depth=5, shards=2, workers=2),
            pool=pool,
            pool_key="poisoned",
        )
        with pytest.raises(WorkerPoolError, match="poisoned state"):
            engine.explore(Node(0))
        # Same warm context, clean run on a graph that avoids the poison.
        healthy = engine.explore(Node(1))
        reference = Engine(dag_successors, retain_full(max_depth=5)).explore(Node(1))
        assert set(healthy.states()) == set(reference.states())
        assert healthy.edge_count == reference.edge_count


@needs_fork
def test_scheduler_abandoned_context_does_not_break_next_sweep():
    # A sweep aborted by SchedulerError must not leak into the next one,
    # and a consumer that abandons a warm context mid-run (as an
    # isolated query interrupted while waiting does) must not
    # contaminate the next consumer of that context, which resets it.
    def touchy(parameters: dict) -> dict:
        if parameters["n"] < 0:
            raise ValueError("bad point")
        time.sleep(0.02)
        return {"value": parameters["n"]}

    with pytest.raises(SchedulerError):
        SweepScheduler(parallel=2).run([{"n": 1}, {"n": -1}, {"n": 2}, {"n": 3}], touchy)
    records = SweepScheduler(parallel=2).run([{"n": n} for n in range(5)], touchy)
    assert [record.as_row() for record in records] == [{"n": n, "value": n} for n in range(5)]

    with WorkerPool(workers=2) as pool:
        context = pool.context("touchy", touchy, workers=2)
        for n in (1, -1, 2, 3):
            context.submit({"n": n})
        for _, _, error in context.events():
            if error is not None:
                break  # abandoned with tasks still queued or running
        context.reset()
        submitted = {context.submit({"n": n}): n for n in range(5)}
        outcomes = sorted((submitted[task_id], value) for task_id, value, _ in context.events())
        assert outcomes == [(n, {"value": n}) for n in range(5)]


@needs_fork
def test_pinned_tasks_run_on_their_worker():
    with WorkerPool(workers=2) as pool:
        context = pool.context("pinned", pid_measure, workers=2)
        pinned = {context.submit({}, worker=index % 2): index % 2 for index in range(12)}
        free = [context.submit({}) for _ in range(4)]
        ran_on: dict[int, set] = {0: set(), 1: set()}
        finished = set()
        for task_id, pid, error in context.events():
            assert error is None
            finished.add(task_id)
            if task_id in pinned:
                ran_on[pinned[task_id]].add(pid)
        assert finished == set(pinned) | set(free)
        # Each index's tasks ran on one worker, and the two workers differ.
        assert len(ran_on[0]) == len(ran_on[1]) == 1
        assert ran_on[0] != ran_on[1]
        assert ran_on[0] | ran_on[1] == set(context.pids())


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
            dag_successors, retain_full(max_depth=5, shards=2, workers=2), pool=pool
        )
        engine.explore(Node(0))
        assert len(pool.keys()) == 1
        engine.close()
        assert pool.keys() == ()


def test_convergence_checkpoint_keys_distinguish_queries(tmp_path):
    # The store is the memo of sweep points: its keys must keep distinct
    # queries, and same-named system variants, apart.
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
    store = ResultStore(tmp_path / "bounds.store")
    first = reachability_bound_sweep(
        system, parse_query("exists u. Q(u)"), bounds=(1, 2), max_depth=3, store=store
    )
    # Same store, different condition: the memo must NOT serve the old rows.
    second = reachability_bound_sweep(
        system, parse_query("exists u. R(u)"), bounds=(1, 2), max_depth=3, store=store
    )
    assert store.stats()["results"] == 4  # two conditions x two bounds, distinct keys
    # And re-running the first condition serves it unchanged.
    again = reachability_bound_sweep(
        system, parse_query("exists u. Q(u)"), bounds=(1, 2), max_depth=3, store=store
    )
    assert again == first
    assert second != first  # different condition, genuinely different rows
    # Same store, same name and condition, different system: dropping
    # `promote` keeps the name but makes Q unreachable, so the memo must
    # not serve the original system's rows.
    variant = drop_action_variant(system, "promote")
    resumed = reachability_bound_sweep(
        variant, parse_query("exists u. Q(u)"), bounds=(1, 2), max_depth=3, store=store
    )
    fresh = reachability_bound_sweep(
        variant, parse_query("exists u. Q(u)"), bounds=(1, 2), max_depth=3, store=False
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
            dag_successors, retain_full(max_depth=5, shards=2, workers=2), pool=pool
        )
        second = ShardedEngine(
            dag_successors, retain_full(max_depth=5, shards=2, workers=2), pool=pool
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
    # The bound sweeps stream one {"b": bound} record per point.
    seen = []
    rows = state_space_bound_sweep(
        tiny_dms(), bounds=(0, 1, 2), max_depth=3, store=False, on_point=seen.append
    )
    assert [entry.bound for entry in rows] == [0, 1, 2]
    assert all(isinstance(record, PointRecord) for record in seen)
    assert [record.parameters for record in seen] == [{"b": 0}, {"b": 1}, {"b": 2}]
    assert [
        (record.measurements["configurations"], record.measurements["edges"]) for record in seen
    ] == [(entry.configurations, entry.edges) for entry in rows]


def test_scheduler_raises_after_retries_exhausted():
    # A failing point aborts the sweep: there are no retries.
    def always_failing(parameters: dict) -> dict:
        raise ValueError("permanent")

    with pytest.raises(SchedulerError, match="permanent"):
        SweepScheduler(parallel=1).run([{"n": 0}], always_failing)
    if process_backend_available():
        with pytest.raises(SchedulerError, match="permanent"):
            SweepScheduler(parallel=2).run([{"n": 0}, {"n": 1}], always_failing)


def test_scheduler_rejects_bad_configuration():
    with pytest.raises(SchedulerError):
        SweepScheduler(parallel=0)
    with pytest.raises(SchedulerError):
        SweepScheduler(parallel=-1)


# -- resume through the result store -------------------------------------------


def _result_keys(store: ResultStore) -> list[str]:
    """The store's result entries, in the order they were saved."""
    with closing(sqlite3.connect(store.root / "index.sqlite")) as index:
        rows = index.execute(
            "SELECT key FROM entries WHERE kind = ? ORDER BY rowid", (KIND_RESULT,)
        )
        return [key for (key,) in rows]


def test_checkpoint_is_content_keyed_not_position_keyed(tmp_path):
    # The store memo is keyed by what a point computes, not by where it
    # sits in the grid: a reordered, extended grid reuses every point.
    store = ResultStore(tmp_path / "memo.store")
    first = state_space_bound_sweep(tiny_dms(), bounds=(0, 1), max_depth=3, store=store)
    rerun = ResultStore(store.root)  # fresh session counters, same memo
    reordered = state_space_bound_sweep(tiny_dms(), bounds=(2, 1, 0), max_depth=3, store=rerun)
    session = rerun.stats()["session"]
    assert session["hits"]["result"] == 2 and session["misses"]["result"] == 1
    assert [entry.bound for entry in reordered] == [2, 1, 0]
    assert reordered[1:] == tuple(reversed(first))


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
        # Two workers would fork if allowed; the explorer must degrade inside a worker.
        explorer = RecencyExplorer(tiny_dms(), 2, retain_full(max_depth=3, shards=2, workers=2))
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
    store = ResultStore(tmp_path / "e9.store")
    uninterrupted = experiment_e9_convergence(max_depth=4, store=store)
    saved = _result_keys(store)
    assert len(saved) == 7  # 4 reachability bounds + 3 state-space bounds, one store
    for key in saved[4:]:  # "killed" after 4 points: the rest were never saved
        store.discard(key)
    rerun = ResultStore(store.root)
    resumed = experiment_e9_convergence(max_depth=4, store=rerun)
    assert resumed == uninterrupted
    session = rerun.stats()["session"]
    assert session["hits"]["result"] == 4  # completed points served ...
    assert session["misses"]["result"] == 3  # ... only the lost ones recomputed
    assert len(_result_keys(rerun)) == 7  # memo complete again


def test_cli_streams_checkpoints_and_rejects_unsupported_flags(tmp_path, capsys):
    from repro.harness.cli import main

    store = tmp_path / "cli-e9.store"
    assert main(["E9", "--parallel", "2", "--store", str(store), "--stream"]) == 0
    captured = capsys.readouterr()
    # Per-point progress lines go to stderr; stdout stays pipeline-clean.
    assert "(streaming)" in captured.out and "[E9] point" in captured.err
    assert (store / "index.sqlite").exists()
    assert main(["E9", "--store", str(store), "--store-stats"]) == 0
    assert "session hit/miss result=7/0" in capsys.readouterr().out  # all served
    # Flags an experiment would silently ignore are rejected instead.
    with pytest.raises(SystemExit):
        main(["E14", "--stream"])
    with pytest.raises(SystemExit):
        main(["E1", "--parallel", "4"])
    with pytest.raises(SystemExit):
        main(["E9", "--quick"])
    with pytest.raises(SystemExit):
        main(["E9", "--resume"])  # the JSONL checkpoint flags are gone
    capsys.readouterr()


def test_parallel_rerun_reports_the_forked_points_store_session(tmp_path, capsys):
    from repro.harness.cli import main

    # Forked point workers look up in their own copies of the store;
    # their session counts must reach the parent's --store-stats line.
    arguments = ["E9", "--parallel", "4", "--store", str(tmp_path / "e9.store"), "--store-stats"]
    assert main(arguments) == 0
    assert "session hit/miss result=0/7" in capsys.readouterr().out
    assert main(arguments) == 0
    assert "session hit/miss result=7/0 repairs=0" in capsys.readouterr().out


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
    options = retain_full(max_depth=3)
    reference = RecencyExplorer(system, 2, options).explore()
    with WorkerPool(workers=2) as pool:
        with RecencyExplorer(
            system, 2, options.replace(shards=2, workers=2), pool=pool
        ) as explorer:
            assert explorer.backend_name == "pooled"
            first = explorer.explore()
            second = explorer.explore()
        key = ("recency", system_hash(system), 2)
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
