"""Tests for the differential fuzzing subsystem (:mod:`repro.fuzz`).

Covers the subsystem contracts end to end:

* **Determinism** — the same ``(tier, seed)`` produces byte-identical
  ``system_hash`` values across interpreter restarts with different
  ``PYTHONHASHSEED`` values (the store-suite subprocess idiom);
* **Serialization** — ``render_query`` round-trips through the FOL
  parser, and ``system_to_json``/``system_from_json`` preserve the
  canonical content hash of generated systems;
* **Oracle** — a seed window agrees between the exploration engine and
  the encoding path, and every parity rule is exercised;
* **Shrinker** — greedy minimisation is deterministic, preserves the
  failure predicate, and only ever visits well-formed systems;
* **Corpus** — write/sample/replay round-trips, and replay detects
  serialization drift, generator drift and verdict drift;
* **Delta verification on generated systems** — ``drop_action_variant``
  over fuzz-produced action sets stays sound in the result store,
  including single-action and guard-sharing edge cases.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dms.action import Action
from repro.errors import ReproError
from repro.fol.parser import parse_query
from repro.fuzz import (
    DifferentialCheck,
    DifferentialReport,
    FuzzShape,
    differential_report,
    generate_instance,
    iter_entries,
    load_instance,
    render_query,
    replay_entry,
    sample_entries,
    sample_shape,
    shrink_candidates,
    shrink_instance,
    system_from_json,
    system_to_json,
    write_entry,
    write_repro,
)
from repro.fuzz.cli import EXIT_BUDGET, EXIT_DISAGREEMENT, EXIT_OK, main
from repro.modelcheck.result import Verdict
from repro.recency.explorer import RecencyExplorationLimits, RecencyExplorer
from repro.recency.semantics import enumerate_b_bounded_successors
from repro.store import ResultStore, action_hashes, cached_compute, system_hash
from repro.workloads import drop_action_variant

# -- determinism (seed ⇒ byte-identical hash across hash seeds) -----------------

_SEED_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.fuzz import generate_instance, render_query
from repro.workloads.generators import RandomDMSParameters, random_dms
from repro.store import system_hash

for seed in (0, 7, 23):
    instance = generate_instance(seed, "smoke")
    print(instance.system_hash, render_query(instance.condition), sep="|")
parameters = RandomDMSParameters(guard_depth=2, guard_or_probability=0.4, constraint_density=0.6)
print(system_hash(random_dms(11, parameters)))
"""


def test_generation_is_stable_across_interpreter_hash_seeds():
    src = str(Path(__file__).resolve().parents[1] / "src")

    def probe(hash_seed: str) -> list[str]:
        completed = subprocess.run(
            [sys.executable, "-c", _SEED_PROBE, src],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, check=True,
        )
        return completed.stdout.splitlines()

    first, second = probe("0"), probe("424242")
    assert first == second
    assert all(len(line.split("|")[0]) == 64 for line in first)  # sha256 hex


def test_same_seed_same_instance_in_process():
    for seed in range(5):
        left, right = generate_instance(seed), generate_instance(seed)
        assert left.system_hash == right.system_hash
        assert left.condition == right.condition
        assert (left.bound, left.depth) == (right.bound, right.depth)
    assert generate_instance(0).system_hash != generate_instance(1).system_hash
    # The tier participates in the derivation, not just the seed.
    assert generate_instance(2, "smoke").system_hash != generate_instance(2, "stress").system_hash


def test_unknown_tier_is_rejected():
    with pytest.raises(ReproError):
        generate_instance(0, tier="nope")


# -- serialization --------------------------------------------------------------


def test_render_query_round_trips_through_the_parser():
    for seed in range(15):
        instance = generate_instance(seed, "smoke")
        queries = [instance.condition]
        queries.extend(action.guard for action in instance.system.actions)
        queries.extend(instance.system.constraints)
        for query in queries:
            assert parse_query(render_query(query)) == query


def test_system_json_round_trip_preserves_content_hash():
    for seed in range(15):
        instance = generate_instance(seed, "smoke")
        document = system_to_json(instance.system)
        json.dumps(document)  # must be pure-JSON serialisable
        rebuilt = system_from_json(document)
        assert system_hash(rebuilt) == instance.system_hash
        assert rebuilt.name == instance.system.name


def test_shape_json_round_trip():
    import random

    shape = sample_shape(random.Random("shape-test"), "stress")
    assert FuzzShape.from_json(shape.as_json()) == shape
    assert shape.dms_parameters().guard_depth == shape.guard_depth


# -- the differential oracle ----------------------------------------------------


def test_seed_window_agrees_between_engine_and_encoding():
    verdicts = set()
    for seed in range(25):
        report = differential_report(generate_instance(seed, "smoke"))
        assert report.agree, f"seed {seed}:\n{report.describe()}"
        assert report.runs_checked > 0
        verdicts.add(report.engine_verdict)
    assert Verdict.HOLDS in verdicts  # the window is not degenerate


def test_oracle_flags_an_injected_semantic_divergence():
    # Corrupt one path only: answer the reachability question for a
    # *different* condition on the engine side by mutating the instance
    # the encoding never sees.  The parity check must flag it.
    instance = generate_instance(0, "smoke")
    report = differential_report(instance)
    assert report.agree
    import dataclasses

    from repro.fol.syntax import FalseQuery
    from repro.fuzz import oracle as oracle_module

    broken = dataclasses.replace(instance, condition=FalseQuery())
    # engine side sees `false` (unreachable), encoding side the original
    # condition: compute both manually through the module internals.
    engine_false = oracle_module.run_reachability(
        broken.system,
        broken.condition,
        bound=broken.bound,
        options=oracle_module.ExplorationOptions(max_depth=broken.depth),
        store=False,
    )
    encoding, _, limited, _ = oracle_module.encoding_reachability(instance)
    parity = oracle_module._reachability_parity(
        engine_false.reachable, encoding, limited
    )
    if encoding is Verdict.HOLDS:
        assert not parity.agree
    else:  # seed 0 should give a HOLDS window; guard against drift
        pytest.skip("seed 0 no longer reaches its condition")


def test_reachability_parity_rules():
    from repro.fuzz.oracle import _reachability_parity

    H, F, U = Verdict.HOLDS, Verdict.FAILS, Verdict.UNKNOWN
    assert _reachability_parity(H, H, limited=False).agree
    assert _reachability_parity(F, F, limited=False).agree
    assert _reachability_parity(U, U, limited=False).agree
    # The one allowed divergence: graph exhausted, runs cycle to the depth.
    assert _reachability_parity(F, U, limited=False).agree
    assert not _reachability_parity(H, F, limited=False).agree
    assert not _reachability_parity(H, U, limited=False).agree
    assert not _reachability_parity(F, H, limited=False).agree
    assert not _reachability_parity(U, H, limited=False).agree
    assert not _reachability_parity(U, F, limited=False).agree
    # A truncated enumeration only propagates HOLDS.
    assert _reachability_parity(F, U, limited=True).agree
    assert _reachability_parity(U, F, limited=True).agree
    assert not _reachability_parity(F, H, limited=True).agree


# -- the shrinker ---------------------------------------------------------------


def _action_count(instance) -> int:
    return len(list(instance.system.actions))


def test_shrinker_minimises_while_predicate_holds():
    instance = generate_instance(3, "smoke")
    assert _action_count(instance) >= 2
    shrunk = shrink_instance(instance, lambda cand: _action_count(cand) >= 2)
    assert _action_count(shrunk) == 2
    # Deterministic: the same shrink arrives at the same system.
    again = shrink_instance(instance, lambda cand: _action_count(cand) >= 2)
    assert shrunk.system_hash == again.system_hash
    # Derived instances drop their generator provenance.
    assert shrunk.seed is None and shrunk.shape is None
    assert (shrunk.bound, shrunk.depth) == (instance.bound, instance.depth)


def test_shrinker_returns_input_when_predicate_fails_on_it():
    instance = generate_instance(1, "smoke")
    shrunk = shrink_instance(instance, lambda cand: False)
    assert shrunk is instance


def test_shrink_candidates_are_wellformed_and_strictly_smaller():
    instance = generate_instance(5, "smoke")
    baseline = system_to_json(instance.system)
    for candidate in shrink_candidates(instance.system):
        document = system_to_json(candidate)
        assert document != baseline
        assert system_hash(system_from_json(document)) == system_hash(candidate)


def test_shrinker_drops_guard_conjuncts():
    instance = generate_instance(3, "smoke")

    def has_named_action(cand) -> bool:
        return any(action.name == "a0" for action in cand.system.actions)

    shrunk = shrink_instance(instance, has_named_action)
    (survivor,) = [a for a in shrunk.system.actions if a.name == "a0"]
    assert render_query(survivor.guard) == "true"  # conjuncts all shrunk away
    assert not list(survivor.additions.facts) and not list(survivor.deletions.facts)


# -- corpus write / sample / replay --------------------------------------------


@pytest.fixture
def small_corpus(tmp_path):
    root = tmp_path / "corpus"
    entries = []
    for seed in range(4):
        instance = generate_instance(seed, "smoke")
        report = differential_report(instance)
        entries.append(write_entry(instance, report, root))
    return root, entries


def test_corpus_entries_are_keyed_by_hash_and_replay_clean(small_corpus):
    root, entries = small_corpus
    for path, seed in zip(entries, range(4)):
        assert path.parent.name == "smoke"
        assert path.stem == generate_instance(seed, "smoke").system_hash[:16]
        outcome = replay_entry(path)
        assert outcome.ok, outcome.problems
    assert iter_entries(root) == sorted(entries)
    assert iter_entries(root, "smoke") == sorted(entries)
    assert iter_entries(root, "stress") == []
    sampled = sample_entries(2, root, seed=1)
    assert len(sampled) == 2 and sampled == sample_entries(2, root, seed=1)
    assert sample_entries(99, root) == sorted(entries)


def test_replay_detects_serialization_and_verdict_drift(small_corpus, tmp_path):
    root, entries = small_corpus
    document = json.loads(entries[0].read_text())
    # Serialization drift: the stored system no longer matches its hash.
    tampered = dict(document)
    tampered["system_hash"] = "0" * 64
    drifted = tmp_path / "drifted.json"
    drifted.write_text(json.dumps(tampered))
    outcome = replay_entry(drifted)
    assert not outcome.ok
    assert any("serialization drift" in problem for problem in outcome.problems)
    assert any("generator drift" in problem for problem in outcome.problems)
    # Verdict drift: claim the engine answered differently.
    flipped = dict(document)
    flipped["verdicts"] = dict(document["verdicts"], engine="fails")
    flipped_path = tmp_path / "flipped.json"
    flipped_path.write_text(json.dumps(flipped))
    outcome = replay_entry(flipped_path)
    assert not outcome.ok
    assert any("verdict drift" in problem for problem in outcome.problems)


def test_repro_files_expect_the_disagreement_to_reproduce(tmp_path):
    instance = generate_instance(0, "smoke")
    report = differential_report(instance)
    path = write_repro(instance, report, tmp_path / "repros")
    loaded, document = load_instance(path)
    assert document["expect"] == "disagree"
    assert loaded.system_hash == instance.system_hash
    # The paths agree on this instance, so the "repro" must fail replay.
    outcome = replay_entry(path)
    assert not outcome.ok
    assert any("no longer reproduces" in problem for problem in outcome.problems)


def test_corpus_rejects_disagreeing_entries(tmp_path):
    instance = generate_instance(0, "smoke")
    report = differential_report(instance)
    bad = DifferentialReport(
        instance=instance,
        checks=(DifferentialCheck("reachability", False, "holds", "fails"),),
        engine_verdict=Verdict.HOLDS,
        encoding_verdict=Verdict.FAILS,
        runs_checked=report.runs_checked,
    )
    with pytest.raises(ReproError):
        write_entry(instance, bad, tmp_path / "corpus")


# -- the CLI --------------------------------------------------------------------


def test_cli_sweep_and_replay(small_corpus):
    root, _ = small_corpus
    out = io.StringIO()
    assert main(["--seeds", "3", "--tier", "smoke"], out=out) == EXIT_OK
    assert "3 instance(s) agreed" in out.getvalue()
    out = io.StringIO()
    assert main(["--replay", str(root)], out=out) == EXIT_OK
    assert "0 failure(s)" in out.getvalue()


def test_cli_budget_exhaustion_exits_3():
    out = io.StringIO()
    assert main(["--seeds", "0:10000", "--budget", "0"], out=out) == EXIT_BUDGET
    assert "budget expired" in out.getvalue()


def test_cli_requires_work():
    with pytest.raises(SystemExit):
        main([])


def test_cli_disagreement_shrinks_and_writes_a_repro(tmp_path, monkeypatch):
    from repro.fuzz import cli as cli_module

    real_report = differential_report

    def fake_report(instance, max_runs=None):
        report = real_report(instance, max_runs=max_runs or 5000)
        if any(action.name == "a0" for action in instance.system.actions):
            failing = DifferentialCheck(
                "reachability", False, "holds", "fails", "synthetic disagreement"
            )
            return DifferentialReport(
                instance=instance,
                checks=report.checks + (failing,),
                engine_verdict=report.engine_verdict,
                encoding_verdict=report.encoding_verdict,
                runs_checked=report.runs_checked,
            )
        return report

    monkeypatch.setattr(cli_module, "differential_report", fake_report)
    out = io.StringIO()
    code = main(
        ["--seeds", "0:5", "--repro-dir", str(tmp_path / "repros")], out=out
    )
    assert code == EXIT_DISAGREEMENT
    assert "DISAGREEMENT" in out.getvalue() and "minimal repro" in out.getvalue()
    (repro_path,) = sorted((tmp_path / "repros").glob("repro-*.json"))
    loaded, document = load_instance(repro_path)
    assert document["expect"] == "disagree"
    # The shrinker kept the triggering action and dropped the rest.
    names = [action.name for action in loaded.system.actions]
    assert names == ["a0"]


# -- delta verification on generated systems (satellite) ------------------------


def _explore_cached(system, bound, store):
    """One recency exploration through :func:`cached_compute`."""
    limits = RecencyExplorationLimits(max_depth=4)

    def compute(successors):
        explorer = RecencyExplorer(system, bound, limits, successors=successors)
        return explorer.explore()

    return cached_compute(
        store=store,
        system=system,
        graph=f"recency:{bound}",
        parameters={"payload": "exploration", "max_depth": 4, "strategy": "bfs"},
        compute=compute,
        capture_base=lambda configuration: enumerate_b_bounded_successors(
            system, configuration, bound
        ),
        enumerate_subset=lambda configuration, actions: enumerate_b_bounded_successors(
            system, configuration, bound, actions
        ),
    )


def _droppable_action(system) -> str:
    """A non-seeder action name of a generated system."""
    for action in system.actions:
        if action.name != "seed":
            return action.name
    raise AssertionError("generated system has no droppable action")


@pytest.mark.parametrize("seed", [0, 4, 9])
def test_delta_verification_is_sound_on_generated_systems(seed, tmp_path):
    instance = generate_instance(seed, "smoke")
    system, bound = instance.system, instance.bound
    store = ResultStore(tmp_path / f"store-{seed}")
    cold, outcome = _explore_cached(system, bound, store)
    assert outcome.captured and not outcome.served_from_cache

    variant = drop_action_variant(system, _droppable_action(system))
    assert set(action_hashes(variant)) < set(action_hashes(system))
    delta, delta_outcome = _explore_cached(variant, bound, store)
    assert delta_outcome.delta_base_used
    assert delta_outcome.fresh_states == 0  # dropping an action adds nothing new
    assert delta_outcome.reused_states > 0

    reference, _ = _explore_cached(variant, bound, False)  # cold, no store
    assert delta == reference  # bit-identical to the uncached exploration
    assert delta.configuration_count <= cold.configuration_count


def test_delta_verification_single_action_edge_case(tmp_path):
    # A generated system reduced to its seeder alone, then emptied: the
    # delta base must stay sound even when no action survives.
    instance = generate_instance(2, "smoke")
    seeder_only = instance.system.with_actions(
        [action for action in instance.system.actions if action.name == "seed"],
        name="seeder-only",
    )
    store = ResultStore(tmp_path / "store")
    cold, outcome = _explore_cached(seeder_only, 1, store)
    assert outcome.captured

    empty = drop_action_variant(seeder_only, "seed")
    assert list(empty.actions) == []
    delta, delta_outcome = _explore_cached(empty, 1, store)
    # Only the initial configuration can need a (trivial) fresh expansion.
    assert delta_outcome.fresh_states <= 1
    reference, _ = _explore_cached(empty, 1, False)
    assert delta == reference
    assert delta.configuration_count == 1  # just the initial configuration


def test_delta_verification_guard_sharing_edge_case(tmp_path):
    # Two actions sharing one guard: dropping the clone must reuse the
    # original's expansions and reproduce the cold exploration exactly.
    instance = generate_instance(6, "smoke")
    system = instance.system
    template = next(action for action in system.actions if action.name != "seed")
    clone = Action.create(
        f"{template.name}-clone",
        system.schema,
        parameters=tuple(template.parameters),
        fresh=tuple(template.fresh),
        guard=template.guard,
        delete=sorted(template.deletions.facts, key=repr),
        add=sorted(template.additions.facts, key=repr),
    )
    widened = system.with_actions(list(system.actions) + [clone], name="widened")
    store = ResultStore(tmp_path / "store")
    _explore_cached(widened, instance.bound, store)

    variant = drop_action_variant(widened, clone.name)
    delta, delta_outcome = _explore_cached(variant, instance.bound, store)
    assert delta_outcome.delta_base_used
    assert delta_outcome.fresh_states == 0
    assert delta_outcome.reused_states > 0
    reference, _ = _explore_cached(variant, instance.bound, False)
    assert delta == reference
