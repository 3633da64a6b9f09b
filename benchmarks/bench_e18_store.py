"""E18 — the content-addressed result store (cache hits, delta verification).

Gates the store PR's acceptance criteria over the booking case study:

* **Cache hits beat recomputation** — repeating the E9-style state-space
  sweep and a reachability query through one
  :class:`~repro.store.ResultStore` must be ≥ 3× faster than the cold
  runs, with results equal field-for-field — verdicts, witnesses,
  configuration/edge counts, truncation (``results_match``, asserted
  unconditionally).
* **Delta verification explores strictly less** — after a single-action
  change (dropping ``closeO`` via
  :func:`~repro.workloads.drop_action_variant`), re-exploration seeded
  by the stored subgraph must enumerate **strictly fewer** fresh states
  than the cold exploration of the original system while reproducing
  the uncached variant result exactly (``delta_sound``, asserted
  unconditionally).

The speedup assertion is skipped under ``REPRO_BENCH_QUICK=1`` (tiny
inputs are noise-dominated); the identity and delta gates hold in every
mode.  Timings and rows persist to ``benchmarks/results/BENCH_E18.json``
via the shared ``run_once`` fixture.
"""

import os
import time

from repro.api import ExplorationOptions, run_reachability
from repro.casestudies.booking import booking_agency_system
from repro.fol.parser import parse_query
from repro.harness.reporting import print_experiment
from repro.modelcheck.convergence import state_space_bound_sweep
from repro.recency.explorer import RecencyExplorer
from repro.recency.semantics import enumerate_b_bounded_successors
from repro.search import RETAIN_FULL
from repro.store import ResultStore, cached_compute
from repro.workloads import drop_action_variant

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

_BOOKING = booking_agency_system()
_CLOSED = parse_query("exists o. OClosed(o)")


# -- cache-hit latency ---------------------------------------------------------


def cache_hit_speedup(quick: bool, store_root) -> list[dict]:
    """Cold runs vs store-served repeats of the same sweep and query."""
    bounds, depth = ((1, 2), 4) if quick else ((2, 3), 5)
    store = ResultStore(store_root)

    def workload(active_store):
        sweep_rows = state_space_bound_sweep(
            _BOOKING, bounds=bounds, max_depth=depth, store=active_store
        )
        query = run_reachability(
            _BOOKING, _CLOSED, bound=bounds[-1], options=ExplorationOptions(max_depth=depth),
            store=active_store,
        )
        return sweep_rows, query

    reference = workload(False)  # no store anywhere: the ground truth

    started = time.perf_counter()
    cold = workload(store)
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    warm = workload(store)
    warm_seconds = time.perf_counter() - started

    matches = cold == reference and warm == reference
    hits = store.stats()["hits"]
    return [
        {
            "mode": "cold (explored, then stored)",
            "bounds": list(bounds),
            "max_depth": depth,
            "seconds": round(cold_seconds, 4),
            "speedup": 1.0,
            "results_match": matches,
        },
        {
            "mode": "warm (served from the store)",
            "bounds": list(bounds),
            "max_depth": depth,
            "seconds": round(warm_seconds, 4),
            "speedup": round(cold_seconds / warm_seconds, 2) if warm_seconds else None,
            "store_hits": hits,
            "results_match": matches,
        },
    ]


def test_e18_cache_hit_latency(benchmark, run_once, tmp_path):
    rows = run_once(benchmark, cache_hit_speedup, QUICK, tmp_path / "store")
    print_experiment("E18", "Result store: cold run vs cache hit", rows)
    for row in rows:
        assert row["results_match"], row
    warm = rows[1]
    assert warm["store_hits"] > 0, warm
    if not QUICK:
        assert warm["speedup"] >= 3.0, warm


# -- delta verification after a single-action change ---------------------------


def _cached_exploration(system, bound: int, depth: int, store):
    """One recency exploration routed through :func:`cached_compute`."""
    options = ExplorationOptions(max_depth=depth, retention=RETAIN_FULL)

    def compute(successors):
        explorer = RecencyExplorer(system, bound, options, successors=successors)
        return explorer.explore()

    return cached_compute(
        store=store,
        system=system,
        graph=f"recency:{bound}",
        parameters={"payload": "exploration", "max_depth": depth, "strategy": "bfs"},
        compute=compute,
        successors=lambda configuration, actions=None: enumerate_b_bounded_successors(
            system, configuration, bound, actions
        ),
    )


def delta_verification(quick: bool, store_root) -> list[dict]:
    """Cold booking exploration, then a re-exploration after dropping ``closeO``."""
    bound, depth = (2, 4) if quick else (2, 5)
    store = ResultStore(store_root)

    started = time.perf_counter()
    cold, _ = _cached_exploration(_BOOKING, bound, depth, store)
    cold_seconds = time.perf_counter() - started

    variant = drop_action_variant(_BOOKING, "closeO")
    started = time.perf_counter()
    delta, outcome = _cached_exploration(variant, bound, depth, store)
    delta_seconds = time.perf_counter() - started

    reference, _ = _cached_exploration(variant, bound, depth, False)  # uncached truth
    delta_sound = (
        outcome.delta_base_used
        and delta == reference
        and outcome.fresh_states is not None
        and outcome.fresh_states < cold.configuration_count
    )
    return [
        {
            "mode": "cold exploration (original system)",
            "bound": bound,
            "max_depth": depth,
            "configurations": cold.configuration_count,
            "seconds": round(cold_seconds, 4),
            "delta_sound": delta_sound,
        },
        {
            "mode": "delta re-exploration (closeO dropped)",
            "bound": bound,
            "max_depth": depth,
            "configurations": delta.configuration_count,
            "fresh_states": outcome.fresh_states,
            "reused_states": outcome.reused_states,
            "seconds": round(delta_seconds, 4),
            "delta_sound": delta_sound,
        },
    ]


def test_e18_delta_verification(benchmark, run_once, tmp_path):
    rows = run_once(benchmark, delta_verification, QUICK, tmp_path / "store")
    print_experiment("E18", "Delta verification after a single-action change", rows)
    for row in rows:
        assert row["delta_sound"], row
    delta = rows[1]
    assert delta["fresh_states"] < rows[0]["configurations"], delta
