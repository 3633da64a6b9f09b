"""Tests for the content-addressed result store (:mod:`repro.store`).

Covers the store contracts end to end:

* **Bit-identity** — a store hit returns a result equal field-for-field
  (verdicts, witnesses, counts, explored fragments) to the cold
  exploration, across every retention mode and both semantics;
* **Self-repair** — a corrupt blob or a stale index row pointing at a
  missing blob is a miss that prunes itself, after which the query
  recomputes and re-saves;
* **Canonical hashing** — system hashes are stable across interpreter
  restarts with different ``PYTHONHASHSEED`` values;
* **Invalidation** — a schema change retires a family's stale entries
  wholesale without touching other families, while an action-set change
  keeps old subgraphs serving as delta-verification bases;
* **Delta verification** — re-exploring a single-action variant reuses
  the memoised expansions of unchanged actions and still reproduces the
  cold result exactly.
"""

from __future__ import annotations

import multiprocessing
import os
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import ExplorationOptions, run_reachability
from repro.casestudies.booking import booking_agency_system
from repro.dms.builder import DMSBuilder
from repro.dms.configuration import Configuration
from repro.dms.run import ExtendedRun
from repro.errors import StoreError
from repro.fol.parser import parse_query
from repro.modelcheck.convergence import reachability_bound_sweep, state_space_bound_sweep
from repro.modelcheck.result import Verdict
from repro.recency.explorer import RecencyExplorer
from repro.recency.semantics import enumerate_b_bounded_successors
from repro.search import RETAIN_COUNTS, RETAIN_FULL, RETAIN_PARENTS
from repro.store import (
    ResultStore,
    StoreKeyError,
    action_hashes,
    cached_compute,
    digest,
    point_key,
    resolve_store,
    schema_hash,
    system_hash,
)
from repro.workloads import drop_action_variant


@pytest.fixture
def cycle_system():
    """A three-phase system whose goal phase can be reset (small cycle)."""
    builder = DMSBuilder("cycle")
    builder.relations(("start", 0), ("mid", 0), ("goal", 0), ("item", 1))
    builder.initially("start")
    builder.action(
        "step1", fresh=("v",), guard="start", delete=[("start",)], add=[("mid",), ("item", "v")]
    )
    builder.action(
        "step2", parameters=("u",), guard="mid & item(u)", delete=[("mid",)], add=[("goal",)]
    )
    builder.action("reset", guard="goal", delete=[("goal",)], add=[("start",)])
    return builder.build()


GOAL = parse_query("goal")
DEPTH_3 = ExplorationOptions(max_depth=3)
DEPTH_4 = ExplorationOptions(max_depth=4)


# -- exact hits ----------------------------------------------------------------


def test_repeat_queries_are_bit_identical_across_retentions(cycle_system, tmp_path):
    for retention in (RETAIN_FULL, RETAIN_PARENTS, RETAIN_COUNTS):
        store = ResultStore(tmp_path / retention)
        options = ExplorationOptions(max_depth=4, retention=retention)
        cold = run_reachability(cycle_system, GOAL, options=options, store=store)
        warm = run_reachability(cycle_system, GOAL, options=options, store=store)
        assert warm == cold  # dataclass equality: verdict, witness, counts, depth
        assert warm.reachable is Verdict.HOLDS
        assert warm.witness == cold.witness
        bounded_cold = run_reachability(cycle_system, GOAL, bound=2, options=options, store=store)
        bounded_warm = run_reachability(cycle_system, GOAL, bound=2, options=options, store=store)
        assert bounded_warm == bounded_cold
        assert store.stats()["hits"] >= 2  # both repeats were served


def test_unbounded_store_keys_and_witness_are_pinned(tmp_path):
    """The unbounded graph runs on the recency explorer with ``bound=None``
    but keeps its ``"dms"`` keys, so stores written before still hit, and
    its witness stays an extended run over plain configurations."""
    store = ResultStore(tmp_path / "store")
    result = run_reachability(
        booking_agency_system(),
        parse_query("Exists x. BDrafting(x)"),
        bound=None,
        options=ExplorationOptions(max_depth=6),
        store=store,
    )
    assert sorted(store.keys()) == [
        "7ab0446b70e7e8dc1dfb41ce6187c786e99df19bb18e8b020241c5aa83114fb3",
        "d68388a41e428e99b3f74e43369aeb36f6545d28bd999f347928bb098b6912a7",
    ]
    witness = result.witness
    assert isinstance(witness, ExtendedRun)
    assert all(type(configuration) is Configuration for configuration in witness.configurations())
    assert [
        f"{step.action.name}({','.join(f'{k}={v}' for k, v in step.substitution.items())})"
        for step in witness.steps
    ] == [
        "regAgent(a=e1)",
        "regCustomer(c=e2)",
        "regRestaurant(r=e3)",
        "newO1(r=e3,a=e1,o=e4)",
        "newB(c=e2,o=e4,bk=e5)",
    ]


def test_sweep_store_keys_are_pinned(tmp_path):
    """Sweep points keep their store keys: the state-space sweep explores
    counts-only by default and the reachability sweep parents-only, so a
    sweep falling back to another retention would write other keys."""
    booking = booking_agency_system()
    store = ResultStore(tmp_path / "space")
    rows = state_space_bound_sweep(booking, (1,), 3, store=store)
    assert [entry.as_row() for entry in rows] == [(1, "unknown", 40, 39)]
    assert sorted(store.keys()) == [
        "20062f59746e87e319aaa2a6c35cecb4e24ff7ced5f26133a6743689e1d296bb",
        "c3705df620539c89f6ba6c8115564a7d09f2c7ca690bf6dc448fa04bdf4c9e6a",
    ]
    store = ResultStore(tmp_path / "reach")
    rows = reachability_bound_sweep(
        booking, parse_query("Exists x. BDrafting(x)"), (2,), 4, store=store
    )
    assert [entry.as_row() for entry in rows] == [(2, "unknown", 137, 136)]
    assert sorted(store.keys()) == [
        "67bee6469728e19a8890a53ade2344b941526f883ce538d59da33732ca5ce7f7",
        "857a7e4d7f5bb926140673d26f861ed5ab95bc8bf9609f95a3997b9f74263d10",
    ]


def test_exploration_results_hit_with_full_fragment_equality(cycle_system, tmp_path):
    store = ResultStore(tmp_path / "store")
    cold = state_space_bound_sweep(cycle_system, bounds=(0, 1, 2), max_depth=3, store=store)
    warm = state_space_bound_sweep(cycle_system, bounds=(0, 1, 2), max_depth=3, store=store)
    assert warm == cold
    # The cached payloads are the exploration results themselves:
    # configurations, edges, truncation — not just the printed sizes.
    statistics = store.stats()
    assert statistics["results"] == 3
    assert statistics["hits"] >= 3


def test_different_queries_never_share_a_key(cycle_system, tmp_path):
    store = ResultStore(tmp_path / "store")
    run_reachability(cycle_system, GOAL, options=DEPTH_4, store=store)
    run_reachability(cycle_system, GOAL, options=DEPTH_3, store=store)  # different limits
    run_reachability(cycle_system, parse_query("mid"), options=DEPTH_4, store=store)
    # Three distinct keys, no collision: each query saved its own result
    # row (subgraph probing may register hits; result rows must not).
    assert store.stats()["results"] == 3


# -- self-repair ---------------------------------------------------------------


def test_corrupt_blob_is_recomputed_and_repaired(cycle_system, tmp_path):
    store = ResultStore(tmp_path / "store")
    cold = run_reachability(cycle_system, GOAL, options=DEPTH_4, store=store)
    blobs = sorted(store.blob_directory.glob("*.pkl"))
    assert blobs
    for blob in blobs:
        blob.write_bytes(b"not a pickle")
    repaired = run_reachability(cycle_system, GOAL, options=DEPTH_4, store=store)
    assert repaired == cold  # recomputed, not served from garbage
    # ... and re-saved: the next lookup is a genuine hit again.
    hits_before = store.stats()["hits"]
    assert run_reachability(cycle_system, GOAL, options=DEPTH_4, store=store) == cold
    assert store.stats()["hits"] == hits_before + 1


def test_stale_index_row_with_missing_blob_is_a_pruned_miss(cycle_system, tmp_path):
    store = ResultStore(tmp_path / "store")
    run_reachability(cycle_system, GOAL, options=DEPTH_4, store=store)
    keys = store.keys()
    assert keys
    for blob in store.blob_directory.glob("*.pkl"):
        blob.unlink()
    for key in keys:
        assert store.load(key) is None  # miss, never an exception
    assert store.keys() == []  # the stale rows pruned themselves


def test_save_rejects_malformed_keys_and_kinds(tmp_path):
    store = ResultStore(tmp_path / "store")
    row = dict(family="f", system_hash="s", schema_hash="c", base_hash="b",
               graph="dms", parameters="{}")
    with pytest.raises(StoreError):
        store.save("../escape", "result", 1, **row)
    with pytest.raises(StoreError):
        store.save("a" * 64, "novel-kind", 1, **row)


# -- canonical hashing ---------------------------------------------------------

_HASH_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.dms.builder import DMSBuilder
from repro.store import action_hashes, schema_hash, system_hash

builder = DMSBuilder("probe")
builder.relations(("start", 0), ("item", 1), ("link", 2))
builder.initially("start")
builder.action("mk", fresh=("v",), guard="start", add=[("item", "v")])
builder.action(
    "tie", parameters=("u",), fresh=("w",), guard="item(u)", add=[("link", "u", "w")]
)
system = builder.build()
print(system_hash(system))
print(schema_hash(system.schema))
print(",".join(sorted(action_hashes(system).values())))
"""


def test_hashes_are_stable_across_interpreter_restarts():
    src = str(Path(__file__).resolve().parents[1] / "src")

    def probe(seed: str) -> list[str]:
        completed = subprocess.run(
            [sys.executable, "-c", _HASH_PROBE, src],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        )
        return completed.stdout.splitlines()

    first, second = probe("0"), probe("424242")
    assert first == second
    assert all(len(line.split(",")[0]) == 64 for line in first)  # sha256 hex


def test_system_hash_tracks_content_not_name(cycle_system):
    renamed = cycle_system.with_actions(cycle_system.actions, name="renamed")
    assert system_hash(renamed) == system_hash(cycle_system)
    changed = drop_action_variant(cycle_system, "reset")
    assert system_hash(changed) != system_hash(cycle_system)
    with pytest.raises(StoreKeyError):
        digest(object())  # unkeyable values raise instead of stringifying


def test_point_key_rejects_noncanonical_values_instead_of_colliding():
    # Regression: point_key used ``default=str``, so assignments that
    # differ as Python values but share a str() rendering — e.g.
    # pathlib.Path("runs/x") versus the string "runs/x" — produced the
    # same key, and one point's memoised measurements were served for
    # the other.  Non-JSON values must be rejected, not stringified.
    import pathlib

    with pytest.raises(TypeError):
        point_key({"out": pathlib.Path("runs/x")})
    assert "runs/x" in point_key({"out": "runs/x"})  # the honest form still works
    with pytest.raises(TypeError):
        point_key({"bounds": {1, 2}})  # sets stringify unstably
    with pytest.raises(TypeError):
        point_key({"measure": len})  # callables have no content key
    with pytest.raises(TypeError):
        point_key({1: "non-string key"})
    # Canonicalisation keeps JSON-equal shapes together ...
    assert point_key({"grid": (1, 2)}) == point_key({"grid": [1, 2]})
    assert point_key({"a": 1, "b": 2}) == point_key({"b": 2, "a": 1})
    # ... and JSON-distinct scalars apart.
    assert point_key({"v": True}) != point_key({"v": 1})
    assert point_key({"v": 2}) != point_key({"v": 2.0})


def test_system_hash_is_computed_once_per_system(cycle_system, monkeypatch):
    from repro.store import canonical

    first = system_hash(cycle_system)
    monkeypatch.setattr(canonical, "canonical_system", None)  # any recomputation fails
    assert system_hash(cycle_system) == first


# -- invalidation --------------------------------------------------------------


def test_schema_change_invalidates_only_that_family(cycle_system, tmp_path):
    store = ResultStore(tmp_path / "store")
    other_builder = DMSBuilder("other")
    other_builder.relations(("go", 0), ("token", 1))
    other_builder.initially("go")
    other_builder.action("emit", fresh=("v",), guard="go", add=[("token", "v")])
    other = other_builder.build()

    run_reachability(cycle_system, GOAL, options=DEPTH_3, store=store)
    run_reachability(other, parse_query("exists u. token(u)"), options=DEPTH_3, store=store)
    before = store.stats()["entries"]
    assert before >= 2

    # Redefine the cycle family with a wider schema: saving under the
    # new schema hash retires every old `cycle` entry wholesale.
    wider = DMSBuilder("cycle")
    wider.relations(("start", 0), ("mid", 0), ("goal", 0), ("item", 1), ("extra", 1))
    wider.initially("start")
    wider.action(
        "step1", fresh=("v",), guard="start", delete=[("start",)], add=[("mid",), ("item", "v")]
    )
    redefined = wider.build()
    assert schema_hash(redefined.schema) != schema_hash(cycle_system.schema)
    run_reachability(redefined, parse_query("mid"), options=DEPTH_3, store=store)

    # The original cycle query now misses (its entry was pruned) ...
    hits = store.stats()["hits"]
    run_reachability(cycle_system, GOAL, options=DEPTH_3, store=store)
    assert store.stats()["hits"] == hits
    # ... while `other`, an untouched family, still hits.
    hits = store.stats()["hits"]
    run_reachability(other, parse_query("exists u. token(u)"), options=DEPTH_3, store=store)
    assert store.stats()["hits"] == hits + 1


# -- delta verification --------------------------------------------------------


def _explore(system, bound, store):
    """One recency exploration through :func:`cached_compute`."""
    options = ExplorationOptions(max_depth=4, retention="full")

    def compute(successors):
        explorer = RecencyExplorer(system, bound, options, successors=successors)
        return explorer.explore()

    return cached_compute(
        store=store,
        system=system,
        graph=f"recency:{bound}",
        parameters={"payload": "exploration", "max_depth": 4, "strategy": "bfs"},
        compute=compute,
        successors=lambda configuration, actions=None: enumerate_b_bounded_successors(
            system, configuration, bound, actions
        ),
    )


def test_delta_reexploration_reuses_unchanged_actions(cycle_system, tmp_path):
    store = ResultStore(tmp_path / "store")
    cold, outcome = _explore(cycle_system, 2, store)
    assert outcome.captured and not outcome.served_from_cache

    variant = drop_action_variant(cycle_system, "reset")
    assert set(action_hashes(variant)) < set(action_hashes(cycle_system))
    delta, delta_outcome = _explore(variant, 2, store)
    assert delta_outcome.delta_base_used
    assert delta_outcome.fresh_states == 0  # dropping an action adds nothing new
    assert delta_outcome.reused_states > 0

    reference, _ = _explore(variant, 2, False)  # cold, no store at all
    assert delta == reference  # bit-identical to an uncached exploration
    assert delta.configuration_count < cold.configuration_count


def test_delta_base_survives_a_corrupt_subgraph(cycle_system, tmp_path):
    store = ResultStore(tmp_path / "store")
    _explore(cycle_system, 2, store)
    for blob in store.blob_directory.glob("*.pkl"):
        blob.write_bytes(b"garbage")
    variant = drop_action_variant(cycle_system, "reset")
    delta, outcome = _explore(variant, 2, store)
    assert not outcome.delta_base_used  # base self-repaired away: clean cold run
    reference, _ = _explore(variant, 2, False)
    assert delta == reference


# -- bypass and resolution -----------------------------------------------------


def test_heuristic_queries_bypass_the_store(cycle_system, tmp_path):
    store = ResultStore(tmp_path / "store")
    result = run_reachability(
        cycle_system,
        GOAL,
        options=ExplorationOptions(
            max_depth=4, strategy="best-first", heuristic=lambda configuration, depth: depth
        ),
        store=store,
    )
    assert result.reachable is Verdict.HOLDS
    assert store.stats()["entries"] == 0  # nothing keyed, nothing stored


def test_resolve_store_semantics(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    assert resolve_store(False) is None
    assert resolve_store(None) is None
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
    resolved = resolve_store(None)
    assert isinstance(resolved, ResultStore)
    assert resolved.root == tmp_path / "env-store"
    assert resolve_store(False) is None  # False beats the environment
    direct = ResultStore(tmp_path / "direct")
    assert resolve_store(direct) is direct
    assert resolve_store(str(tmp_path / "path")).root == tmp_path / "path"


def test_store_survives_pickling_as_a_path_holder(tmp_path):
    import pickle

    store = ResultStore(tmp_path / "store")
    store.stats()  # force a live connection in this process
    clone = pickle.loads(pickle.dumps(store))
    assert clone.root == store.root
    assert clone.stats()["entries"] == 0  # the clone opens its own connection


# -- opening one fresh index from many connections ------------------------------------


def test_first_open_waits_out_a_writer_on_a_fresh_index(tmp_path):
    """Switching a fresh index to WAL waits for another connection's write lock."""
    locked = threading.Event()

    def hold_the_write_lock():
        connection = sqlite3.connect(tmp_path / "index.sqlite", isolation_level=None)
        connection.execute("BEGIN IMMEDIATE")
        locked.set()
        time.sleep(0.5)
        connection.execute("COMMIT")
        connection.close()

    holder = threading.Thread(target=hold_the_write_lock)
    holder.start()
    try:
        assert locked.wait(timeout=10)
        started = time.monotonic()
        assert ResultStore(tmp_path).load("0" * 64, "result") is None
        assert time.monotonic() - started > 0.2
    finally:
        holder.join(timeout=10)
    assert not holder.is_alive()


def _open_after_barrier(root, barrier, outcomes) -> None:
    try:
        barrier.wait(timeout=30)
        store = ResultStore(root)
        assert store.load("0" * 64, "result") is None
        store.close()
        outcomes.put("ok")
    except Exception as error:  # reported to the parent, which asserts on it
        outcomes.put(repr(error))


def test_processes_opening_one_fresh_store_at_once_all_succeed(tmp_path):
    context = multiprocessing.get_context("fork")
    count = (os.cpu_count() or 1) + 2
    for round_number in range(10):
        barrier, outcomes = context.Barrier(count), context.Queue()
        processes = [
            context.Process(
                target=_open_after_barrier, args=(tmp_path / f"s{round_number}", barrier, outcomes)
            )
            for _ in range(count)
        ]
        for process in processes:
            process.start()
        try:
            results = [outcomes.get(timeout=60) for _ in processes]
        finally:
            for process in processes:
                process.join(timeout=60)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=10)
        assert results == ["ok"] * count, results
        assert all(process.exitcode == 0 for process in processes)
