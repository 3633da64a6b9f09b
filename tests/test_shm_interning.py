"""Tests for shared-memory interning (:mod:`repro.search.shm_interning`).

The contracts under test:

* **Equivalence** — explorations moving intern ids over the worker
  pipes produce results bit-identical to the local intern table's, for
  every retention mode, including witnesses and truncation flags.
* **Concurrent append safety** — writer slots are single-writer, so
  parallel appends from several processes never corrupt the slab, and
  equal states appended by racing writers canonicalise on read.
* **Crash semantics** — a worker SIGKILLed mid-life is respawned
  attached to the same segment and bound to the same writer slot, and
  explorations keep producing identical results.
* **Leak regression** — segments are unlinked on
  ``WorkerPool.close()``/``shutdown()``/``release()`` and on engine
  ``close()``, even after a worker was SIGKILLed; nothing is orphaned
  under ``/dev/shm``.
* **Fallback** — with shared memory unavailable (``REPRO_NO_SHM=1``)
  everything degrades to classic pickled traffic with identical
  results.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass

import pytest

from repro.errors import SearchError
from repro.search import (
    RETAIN_FULL,
    Engine,
    ExplorationOptions,
    InternTable,
    RETENTION_MODES,
    SearchResult,
    ShardedEngine,
    SharedInternTable,
    SharedStateStore,
    process_backend_available,
    shared_memory_available,
)
from repro.search.shm_interning import SEGMENT_PREFIX, attached_store, set_process_writer_slot
from repro.runtime import WorkerPool

needs_fork = pytest.mark.skipif(
    not process_backend_available(), reason="fork start method unavailable"
)
needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="multiprocessing.shared_memory unavailable"
)


def shm_segments() -> set[str]:
    """The repo's shared-memory segments currently present on this host."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith(SEGMENT_PREFIX)}
    except FileNotFoundError:  # non-Linux: fall back to "cannot observe"
        return set()


@dataclass(frozen=True)
class Node:
    key: int


@dataclass(frozen=True)
class Edge:
    source: Node
    target: Node


DAG = {0: [1, 2, 3], 1: [4], 2: [5], 3: [4], 4: [6], 5: [6], 6: [7, 8], 7: [9], 8: [9]}


def dag_successors(node: Node):
    return [Edge(node, Node(child)) for child in DAG.get(node.key, ())]


def retain_full(**fields) -> ExplorationOptions:
    """Options that keep every generated edge (``retention="full"``)."""
    return ExplorationOptions(retention=RETAIN_FULL, **fields)


# -- the shared state store ----------------------------------------------------


@needs_shm
def test_store_put_get_round_trip_and_id_stability():
    store = SharedStateStore.create(slots=2)
    try:
        first = store.put(Node(1))
        again = store.put(Node(1))
        other = store.put(Node(2))
        assert first is not None and first == again  # equal state, one id
        assert other != first
        assert store.get(first) == Node(1)
        assert store.get(other) == Node(2)
        assert store.get(first) is store.get(first)  # decode-once canonical object
        assert store.id_for(Node(1)) == first
        assert len(store) == 2
    finally:
        store.destroy()


@needs_shm
def test_store_read_only_view_and_overflow_degrade_to_none():
    store = SharedStateStore.create(slots=1, slot_bytes=128)
    try:
        assert store.writer_slot == 0
        read_only = SharedStateStore.attach(store.name, writer_slot=None)
        assert read_only.put(Node(1)) is None  # no slot, no append
        filler = store.put(("x" * 200,))  # larger than the slot
        assert filler is None  # overflow: caller ships the state inline
        small = store.put(Node(1))
        assert small is not None
        assert read_only.get(small) == Node(1)  # readable from the other view
        read_only.close()
    finally:
        store.destroy()


@needs_shm
def test_store_rejects_garbage_ids():
    store = SharedStateStore.create(slots=1)
    try:
        with pytest.raises(SearchError):
            store.get(store.slots * 10**9)
    finally:
        store.destroy()


@needs_shm
def test_store_dumps_loads_replace_states_by_ids():
    store = SharedStateStore.create(slots=1)
    try:
        store.put(Node(1))
        store.put(Node(2))
        packed = store.dumps([(0, [Edge(Node(1), Node(2))]), (1, "payload")])
        plain_size = len(store.dumps([(0, []), (1, "payload")]))
        decoded = store.loads(packed)
        assert decoded == [(0, [Edge(Node(1), Node(2))]), (1, "payload")]
        # The decoded edge endpoints are the canonical store objects.
        assert decoded[0][1][0].source is store.get(store.id_for(Node(1)))
        assert plain_size < len(packed) < plain_size + 200  # ids, not state pickles
    finally:
        store.destroy()


@needs_shm
def test_segment_destroy_is_idempotent_and_unlinks():
    store = SharedStateStore.create(slots=1)
    name = store.name
    assert name in shm_segments()
    store.destroy()
    store.destroy()
    assert name not in shm_segments()


# -- the InternTable variant ---------------------------------------------------


@needs_shm
def test_shared_intern_table_matches_local_table_behaviour():
    store = SharedStateStore.create(slots=1)
    try:
        local, shared = InternTable(), SharedInternTable(store)
        for table in (local, shared):
            for value in (Node(3), Node(1), Node(3), Node(2), Node(1)):
                table.intern(value)
        assert list(local.states()) == list(shared.states())
        assert len(local) == len(shared)
        for value in (Node(1), Node(2), Node(3)):
            assert local.id_of(value) == shared.id_of(value)
            assert value in local and value in shared
        assert shared.id_of(Node(9)) is None
        assert shared.state_of(0) == Node(3)
    finally:
        store.destroy()


@needs_shm
def test_intern_shared_unions_by_id_and_canonicalises_duplicates():
    store = SharedStateStore.create(slots=2)
    try:
        first = store.put(Node(1))
        # A second writer appending an equal state under a different id.
        writer = SharedStateStore.attach(store.name, writer_slot=1)
        writer.put(Node(0))  # offset the slot so the ids differ
        duplicate = writer.put(Node(1))
        assert duplicate != first

        table = SharedInternTable(store)
        a = table.intern_shared(first, Node(1))
        b = table.intern_shared(duplicate, Node(1))  # resolves to the canonical id
        assert a[0] == b[0] and a[1] is b[1]
        assert len(table) == 1
        assert table.shared_id_of(a[0]) == first
        assert table.local_of_shared(duplicate) == a[0]
        writer.close()
    finally:
        store.destroy()


@needs_shm
def test_intern_shared_falls_back_for_inline_states():
    store = SharedStateStore.create(slots=1)
    try:
        table = SharedInternTable(store)
        local_id, canonical, is_new = table.intern_shared(None, Node(5))
        assert is_new and canonical == Node(5)
        assert table.intern_shared(None, Node(5)) == (local_id, canonical, False)
    finally:
        store.destroy()


# -- concurrent append safety --------------------------------------------------


@needs_fork
@needs_shm
def test_concurrent_appends_from_worker_slots_are_safe():
    store = SharedStateStore.create(slots=4)
    context = multiprocessing.get_context("fork")
    results = context.SimpleQueue()

    def writer(slot: int) -> None:
        set_process_writer_slot(slot)
        view = attached_store(store.name)  # rebinds the fork-inherited view
        ids = [view.put((slot, n)) for n in range(100)]
        ids.append(view.put(("overlap",)))  # every writer appends this one
        results.put((slot, ids))

    processes = [context.Process(target=writer, args=(slot,)) for slot in (1, 2, 3)]
    try:
        for process in processes:
            process.start()
        collected = {}
        for _ in processes:
            slot, ids = results.get()
            collected[slot] = ids
        for process in processes:
            process.join(timeout=5)
        assert set(collected) == {1, 2, 3}
        overlap_objects = set()
        for slot, ids in collected.items():
            assert all(shared_id is not None for shared_id in ids)
            for n, shared_id in enumerate(ids[:-1]):
                assert store.get(shared_id) == (slot, n)
            overlap_objects.add(id(store.get(ids[-1])))
        # Racing writers appended ("overlap",) thrice under three ids;
        # the reader canonicalises them onto one object.
        assert len(overlap_objects) == 1
        assert len(store) == 303
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
        store.destroy()


# -- exploration equivalence ---------------------------------------------------


@needs_fork
@needs_shm
@pytest.mark.parametrize("retention", RETENTION_MODES)
def test_shared_exploration_bit_identical_to_local_table(retention):
    reference = Engine(
        dag_successors, ExplorationOptions(max_depth=6, retention=retention)
    ).explore(Node(0))
    with WorkerPool(workers=2) as pool:
        engine = ShardedEngine(
            dag_successors,
            ExplorationOptions(max_depth=6, shards=2, workers=2, retention=retention),
            pool=pool,
            pool_key="dag",
        )
        assert engine.shared_interning  # the auto default turns it on
        merged = engine.explore(Node(0))
        engine.close()
    assert set(merged.states()) == set(reference.states())
    assert len(merged.interning) == len(reference.interning)
    assert merged.edge_count == reference.edge_count
    assert merged.depth_reached == reference.depth_reached
    assert merged.truncated == reference.truncated
    if retention == "full":
        assert sorted(merged.edges, key=repr) == sorted(reference.edges, key=repr)


@needs_fork
@needs_shm
def test_shared_search_returns_identical_witness():
    wanted = lambda node: node.key == 9  # noqa: E731
    ref_path, ref_result = Engine(dag_successors, retain_full(max_depth=6)).search(
        Node(0), wanted
    )
    with WorkerPool(workers=2) as pool:
        with ShardedEngine(
            dag_successors,
            retain_full(max_depth=6, shards=2, workers=2),
            pool=pool,
            pool_key="dag-search",
        ) as engine:
            path, result = engine.search(Node(0), wanted)
    assert path == ref_path
    assert result.edge_count == ref_result.edge_count


@needs_fork
@needs_shm
def test_shard_partials_merge_by_shared_ids():
    reference = Engine(dag_successors, retain_full(max_depth=6)).explore(Node(0))
    with WorkerPool(workers=2) as pool:
        with ShardedEngine(
            dag_successors,
            retain_full(max_depth=6, shards=3, workers=2),
            pool=pool,
            pool_key="dag-partials",
        ) as engine:
            partials = engine.explore_shards(Node(0))
            assert all(isinstance(partial.interning, SharedInternTable) for partial in partials)
            merged = SearchResult.merge_all(partials)
            assert isinstance(merged.interning, SharedInternTable)
            assert set(merged.states()) == set(reference.states())
            assert len(merged.interning) == len(reference.interning)
            # Witness reconstruction across shards works off the id-merged links.
            assert len(merged.path_to(Node(9))) == len(reference.path_to(Node(9)))


@needs_shm
def test_merging_shared_with_plain_results_uses_the_structural_path():
    store = SharedStateStore.create(slots=1)
    try:
        shared = SearchResult(initial=Node(0), interning=SharedInternTable(store))
        shared.interning.intern(Node(0))
        shared.depths[0] = 0
        plain = Engine(dag_successors, retain_full(max_depth=2)).explore(Node(0))
        merged = shared.merge(plain)
        assert set(merged.states()) == set(plain.states())
        assert not isinstance(merged.interning, SharedInternTable)
    finally:
        store.destroy()


@dataclass(frozen=True)
class TupleEdge:
    source: tuple
    target: tuple


def tuple_successors(state: tuple):
    level, index = state
    if level >= 3:
        return []
    return [TupleEdge(state, (level + 1, (index + j) % 3)) for j in range(2)]


@needs_fork
@needs_shm
def test_builtin_container_states_survive_id_packing():
    # Tuple states make the persistent-id type probe match the workers'
    # own result plumbing (tuples holding unhashable lists); the probe
    # must skip those instead of raising TypeError.
    reference = Engine(tuple_successors, retain_full(max_depth=4)).explore((0, 0))
    with WorkerPool(workers=2) as pool:
        with ShardedEngine(
            tuple_successors,
            retain_full(max_depth=4, shards=2, workers=2),
            pool=pool,
            pool_key="tuples",
        ) as engine:
            assert engine.shared_interning
            merged = engine.explore((0, 0))
    assert set(merged.states()) == set(reference.states())
    assert merged.edge_count == reference.edge_count


# -- crash and leak semantics --------------------------------------------------


@needs_fork
@needs_shm
def test_attach_after_respawn_reuses_segment_and_slot():
    with WorkerPool(workers=2) as pool:
        engine = ShardedEngine(
            dag_successors,
            retain_full(max_depth=6, shards=2, workers=2),
            pool=pool,
            pool_key="kill",
        )
        reference = engine.explore(Node(0))
        store = pool.shared_store("kill")
        assert store is not None and store.name in shm_segments()
        victim = pool.worker_pids("kill")[0]
        os.kill(victim, signal.SIGKILL)
        for _ in range(200):  # SIGKILL delivery is asynchronous
            if not pool.health_check("kill"):
                break
            time.sleep(0.01)
        again = engine.explore(Node(0))  # respawn re-attaches the same segment
        assert pool.shared_store("kill") is store
        assert store.name in shm_segments()
        assert set(again.states()) == set(reference.states())
        assert again.edge_count == reference.edge_count
        engine.close()
    assert store.name not in shm_segments()


@needs_fork
@needs_shm
def test_no_orphaned_segments_after_sigkilled_worker_and_pool_close():
    before = shm_segments()
    pool = WorkerPool(workers=2)
    engine = ShardedEngine(
        dag_successors, retain_full(max_depth=6, shards=2, workers=2), pool=pool, pool_key="leak"
    )
    engine.explore(Node(0))
    created = shm_segments() - before
    assert created  # the exploration really went through a segment
    os.kill(pool.worker_pids("leak")[0], signal.SIGKILL)
    time.sleep(0.05)
    engine.close()
    pool.close()  # the satellite contract: close() unlinks every segment
    assert shm_segments() - before == set()


@needs_fork
@needs_shm
def test_release_unlinks_the_context_segment():
    with WorkerPool(workers=2) as pool:
        engine = ShardedEngine(
            dag_successors,
            retain_full(max_depth=4, shards=2, workers=2),
            pool=pool,
            pool_key="released",
        )
        engine.explore(Node(0))
        engine.close()
        name = pool.shared_store("released").name
        assert name in shm_segments()
        assert pool.release("released")
        assert name not in shm_segments()
        assert pool.shared_store("released") is None


@needs_fork
@needs_shm
def test_engine_owned_backend_unlinks_store_on_close():
    before = shm_segments()
    engine = ShardedEngine(dag_successors, retain_full(max_depth=6, shards=2, workers=2))
    merged = engine.explore(Node(0))
    created = shm_segments() - before
    assert engine.shared_interning and created
    engine.close()
    assert shm_segments() - before == set()
    reference = Engine(dag_successors, retain_full(max_depth=6)).explore(Node(0))
    assert set(merged.states()) == set(reference.states())


# -- fallback ------------------------------------------------------------------


def test_kill_switch_disables_shared_memory(monkeypatch):
    monkeypatch.setenv("REPRO_NO_SHM", "1")
    assert not shared_memory_available()
    assert SharedStateStore.create(slots=2) is None


@needs_fork
def test_exploration_falls_back_without_shared_memory(monkeypatch):
    monkeypatch.setenv("REPRO_NO_SHM", "1")
    reference = Engine(dag_successors, retain_full(max_depth=6)).explore(Node(0))
    before = shm_segments()
    with WorkerPool(workers=2) as pool:
        engine = ShardedEngine(
            dag_successors,
            retain_full(max_depth=6, shards=2, workers=2),
            pool=pool,
            pool_key="fallback",
        )
        assert not engine.shared_interning
        merged = engine.explore(Node(0))
        assert engine.backend_name == "pooled"  # still warm processes
        assert not engine.shared_interning
        assert pool.shared_store("fallback") is None
        engine.close()
    assert shm_segments() == before
    assert set(merged.states()) == set(reference.states())
    assert merged.edge_count == reference.edge_count


@needs_fork
@needs_shm
def test_store_created_after_warm_context_stays_pickled(monkeypatch):
    # A warm context forked while shared memory was unavailable has no
    # store name baked into its workers; a later borrow of the same key
    # (with shared memory back) must keep moving pickled states instead
    # of shipping id-only batches the workers cannot resolve.
    reference = Engine(dag_successors, retain_full(max_depth=6)).explore(Node(0))
    with WorkerPool(workers=2) as pool:
        monkeypatch.setenv("REPRO_NO_SHM", "1")
        first = ShardedEngine(
            dag_successors,
            retain_full(max_depth=6, shards=2, workers=2),
            pool=pool,
            pool_key="late-store",
        )
        early = first.explore(Node(0))  # forks the context without a store
        assert not first.shared_interning
        first.close()
        monkeypatch.delenv("REPRO_NO_SHM")
        second = ShardedEngine(
            dag_successors,
            retain_full(max_depth=6, shards=2, workers=2),
            pool=pool,
            pool_key="late-store",
        )
        late = second.explore(Node(0))
        assert not second.shared_interning
        assert pool.shared_store("late-store") is None
        second.close()
    for result in (early, late):
        assert set(result.states()) == set(reference.states())
        assert result.edge_count == reference.edge_count


@needs_fork
@needs_shm
def test_explicit_false_forces_classic_traffic():
    reference = Engine(dag_successors, retain_full(max_depth=6)).explore(Node(0))
    with WorkerPool(workers=2) as pool:
        engine = ShardedEngine(
            dag_successors,
            retain_full(max_depth=6, shards=2, workers=2, shared_interning=False),
            pool=pool,
            pool_key="classic",
        )
        merged = engine.explore(Node(0))
        assert not engine.shared_interning
        engine.close()
        # The same warm context serves a shared-interning engine next.
        with ShardedEngine(
            dag_successors,
            retain_full(max_depth=6, shards=2, workers=2),
            pool=pool,
            pool_key="classic",
        ) as shared_engine:
            shared = shared_engine.explore(Node(0))
            assert shared_engine.shared_interning
    for result in (merged, shared):
        assert set(result.states()) == set(reference.states())
        assert result.edge_count == reference.edge_count
