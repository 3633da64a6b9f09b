"""E20 — telemetry overhead and counter reconciliation (the obs layer gate).

Gates the telemetry PR's acceptance criteria over booking expansion:

* **The disabled path is free** — exploring with the default null
  registry must stay within 5% of the uninstrumented engine loop
  (``Engine._run`` called directly, bypassing the telemetry
  wrapper), and enabling a live :class:`~repro.obs.MetricsRegistry`
  must cost at most 1.05× the disabled wall-clock.  Each variant is
  timed as the **minimum of several repeats** (the least-noise
  estimator for a deterministic workload) and the flag carries a small
  absolute epsilon so sub-millisecond quick-mode runs cannot flap on
  scheduler jitter.  ``overhead_ok`` is asserted **unconditionally** —
  quick mode included.
* **Folded counters reconcile exactly** — a 4-worker sharded run with a
  registry installed must produce counters that agree with the final
  :class:`~repro.search.engine.SearchResult` identically: states
  interned, edges retained, and per-level flushes matching
  ``len(result.levels()) - 1`` (``counters_reconcile``, asserted
  unconditionally; falls back to 1 worker where fork is unavailable,
  which exercises the same flush points).

Timings and rows persist to ``benchmarks/results/BENCH_E20.json`` via
the shared ``run_once`` fixture and are wired into the CI bench-trend
gate (``check_trend.py`` treats both flags as correctness flags).
"""

import os
import time

from repro.casestudies.booking import booking_agency_system
from repro.harness.reporting import print_experiment
from repro.obs import MetricsRegistry, set_global_registry
from repro.recency.semantics import (
    enumerate_b_bounded_successors,
    initial_recency_configuration,
)
from repro.search import (
    RETAIN_FULL,
    Engine,
    ExplorationOptions,
    ShardedEngine,
    process_backend_available,
)

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

_BOOKING = booking_agency_system()

# Allow this much scheduler noise on top of the 5% relative budget:
# quick-mode explorations finish in a few milliseconds, where a single
# page fault outweighs any real per-event cost.
_ABSOLUTE_EPSILON_SECONDS = 0.002
_REPEATS = 5


def _successors(bound: int):
    return lambda configuration: enumerate_b_bounded_successors(_BOOKING, configuration, bound)


def _best_of(function, repeats: int = _REPEATS) -> float:
    """Minimum wall-clock of ``repeats`` calls — the least-noise estimator."""
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best


def _within(measured: float, reference: float, factor: float = 1.05) -> bool:
    return measured <= reference * factor + _ABSOLUTE_EPSILON_SECONDS


def telemetry_overhead(quick: bool) -> list[dict]:
    """Uninstrumented vs null-registry vs live-registry booking expansion."""
    bound, depth = (1, 4) if quick else (2, 5)
    successors = _successors(bound)
    initial = initial_recency_configuration(_BOOKING)
    options = ExplorationOptions(max_depth=depth, retention=RETAIN_FULL)

    def baseline():
        # The pre-telemetry code path: the engine loop without the
        # explore() wrapper (no registry resolution, no span, no flush).
        return Engine(successors, options)._run(initial, None, None)[1]

    def disabled():
        return Engine(successors, options).explore(initial)

    enabled_registry = MetricsRegistry()

    def enabled():
        set_global_registry(enabled_registry)
        try:
            return Engine(successors, options).explore(initial)
        finally:
            set_global_registry(None)

    reference = baseline()
    assert disabled().state_count == reference.state_count
    baseline_seconds = _best_of(baseline)
    disabled_seconds = _best_of(disabled)
    enabled_seconds = _best_of(enabled)
    overhead_ok = _within(disabled_seconds, baseline_seconds) and _within(
        enabled_seconds, disabled_seconds
    )
    rows = []
    for mode, seconds, versus in (
        ("uninstrumented", baseline_seconds, None),
        ("metrics disabled (null registry)", disabled_seconds, baseline_seconds),
        ("metrics enabled (live registry)", enabled_seconds, disabled_seconds),
    ):
        rows.append(
            {
                "mode": mode,
                "b": bound,
                "max_depth": depth,
                "configurations": reference.state_count,
                "seconds": round(seconds, 4),
                "ratio": round(seconds / versus, 3) if versus else 1.0,
                "overhead_ok": overhead_ok,
            }
        )
    return rows


def counter_reconciliation(quick: bool) -> list[dict]:
    """A 4-worker sharded booking run whose folded counters must reconcile."""
    bound, depth = (1, 4) if quick else (2, 5)
    workers = 4 if process_backend_available() else 1
    registry = MetricsRegistry()
    engine = ShardedEngine(
        _successors(bound),
        ExplorationOptions(max_depth=depth, retention=RETAIN_FULL, shards=4, workers=workers),
        metrics=registry,
    )
    started = time.perf_counter()
    result = engine.explore(initial_recency_configuration(_BOOKING))
    seconds = time.perf_counter() - started
    interned = registry.counter_value("engine_states_total", kind="interned")
    edges = registry.sum_counter("engine_edges_total")
    levels = registry.counter_value("sharded_levels_total")
    reconciles = (
        interned == result.state_count
        and edges == result.edge_count
        and levels == len(result.levels()) - 1
        and registry.gauge_value("engine_depth_reached") == result.depth_reached
    )
    return [
        {
            "mode": f"sharded 4x{workers}, folded counters",
            "b": bound,
            "max_depth": depth,
            "configurations": result.state_count,
            "counted_states": interned,
            "edges": result.edge_count,
            "counted_edges": edges,
            "levels": len(result.levels()) - 1,
            "counted_levels": levels,
            "seconds": round(seconds, 4),
            "counters_reconcile": reconciles,
        }
    ]


def test_e20_telemetry_overhead(benchmark, run_once):
    rows = run_once(benchmark, telemetry_overhead, QUICK)
    print_experiment("E20", "Telemetry overhead on booking expansion", rows)
    for row in rows:
        assert row["overhead_ok"], row


def test_e20_counters_reconcile(benchmark, run_once):
    rows = run_once(benchmark, counter_reconciliation, QUICK)
    print_experiment("E20", "Telemetry counters vs final result", rows)
    for row in rows:
        assert row["counters_reconcile"], row
