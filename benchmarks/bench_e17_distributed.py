"""E17 — two-level distributed exploration: per-node intern tables over TCP.

Gates the distributed PR's acceptance criteria:

* **Memory is the point** — on the booking case study, a 2-node
  exploration in summary mode must keep **peak coordinator-resident
  interned states ≤ 0.6× the single-table baseline** (the baseline is
  the plain engine, whose one intern table holds every configuration on
  the coordinating machine).  The coordinator of the two-level scheme
  pins only the root, so the ratio is tiny by construction; the row also
  records the *per-node* ceiling (``max_node_ratio``), which is what the
  memory budget of one machine actually becomes.
* **Bit-identical results** — the 2-node localhost TCP run must match
  single-node, single-shard BFS exactly (configuration set, edge count,
  depths, truncation) across retention modes, and bounded reachability
  through ``nodes=2`` must agree with the serial query verdict-for-
  verdict and step-for-step.  Asserted wherever the fork launcher runs.
* **Wall-clock is recorded but NOT gated**: on loopback the per-level
  frame exchange usually loses to the in-process engine — the scheme
  buys memory headroom, not single-machine speed — and the trend gate's
  sub-parity rule keeps such rows out of ratio comparisons.

Timings and rows persist to ``benchmarks/results/BENCH_E17.json`` via
the shared ``run_once`` fixture.
"""

import os
import time

from repro.api import ExplorationOptions, run_reachability
from repro.casestudies.booking import booking_agency_system
from repro.distributed import DistributedEngine
from repro.fol.parser import parse_query
from repro.harness.reporting import print_experiment
from repro.recency.explorer import RecencyExplorer
from repro.recency.semantics import (
    enumerate_b_bounded_successors,
    initial_recency_configuration,
)
from repro.search import RETAIN_COUNTS, process_backend_available

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
FORK = process_backend_available()
MEMORY_BUDGET = 0.6  # coordinator-resident states vs the single-table baseline

_BOOKING = booking_agency_system()
_BOUND = 2


def _booking_successors(bound: int):
    system = _BOOKING
    return lambda configuration: enumerate_b_bounded_successors(system, configuration, bound)


def two_level_memory(quick: bool) -> list[dict]:
    """Peak resident interned states: single table vs 2-node summary mode."""
    depth = 4 if quick else 5
    counts = ExplorationOptions(max_depth=depth, retention=RETAIN_COUNTS)
    started = time.perf_counter()
    single = RecencyExplorer(_BOOKING, _BOUND, counts).explore()
    single_seconds = time.perf_counter() - started
    baseline_states = single.configuration_count
    rows = [
        {
            "mode": "single table (baseline)",
            "nodes": 1,
            "states": baseline_states,
            "edges": single.edge_count,
            "coordinator_resident": baseline_states,
            "coordinator_ratio": 1.0,
            "max_node_ratio": 1.0,
            "seconds": round(single_seconds, 4),
            "speedup": 1.0,
        }
    ]
    if not FORK:
        rows.append({"mode": "2-node distributed unavailable (no fork)", "nodes": 2})
        return rows
    with DistributedEngine(_booking_successors(_BOUND), counts.replace(nodes=2)) as engine:
        root = initial_recency_configuration(_BOOKING)
        started = time.perf_counter()
        summary = engine.explore_summary(root)
        seconds = time.perf_counter() - started
    rows.append(
        {
            "mode": "2-node distributed (summary, per-node tables)",
            "nodes": 2,
            "states": summary.states,
            "edges": summary.edges,
            "coordinator_resident": summary.coordinator_states,
            "coordinator_ratio": round(summary.coordinator_states / baseline_states, 4),
            "max_node_ratio": round(summary.max_node_states / baseline_states, 4),
            "seconds": round(seconds, 4),
            # Loopback TCP is expected to lose to in-process exploration;
            # recorded for the trajectory, excluded from trend ratio
            # gating by the sub-parity rule when below 1.0.
            "speedup": round(single_seconds / seconds, 2) if seconds else None,
            "results_match": (
                summary.states == single.configuration_count
                and summary.edges == single.edge_count
                and summary.truncated == single.truncated
            ),
            "memory_ok": summary.coordinator_states <= MEMORY_BUDGET * baseline_states,
        }
    )
    return rows


def test_e17_two_level_memory_ceiling(benchmark, run_once):
    rows = run_once(benchmark, two_level_memory, QUICK)
    print_experiment("E17", "Two-level distributed: coordinator-resident states", rows)
    if FORK:
        distributed = rows[1]
        assert distributed["results_match"], distributed
        assert distributed["memory_ok"], distributed
        assert distributed["coordinator_ratio"] <= MEMORY_BUDGET, distributed


def booking_bit_identical(quick: bool) -> list[dict]:
    """2-node TCP exploration and reachability vs the single-shard engine."""
    depth = 4 if quick else 5
    counts = ExplorationOptions(max_depth=depth, retention=RETAIN_COUNTS)
    reference = RecencyExplorer(_BOOKING, _BOUND, counts).explore()
    if not FORK:
        return [{"case": "booking", "mode": "distributed unavailable (no fork)"}]
    with RecencyExplorer(_BOOKING, _BOUND, counts.replace(nodes=2)) as explorer:
        backend = explorer.backend_name
        started = time.perf_counter()
        result = explorer.explore()
        elapsed = time.perf_counter() - started

    condition = parse_query("exists o. OAvail(o)")
    options = ExplorationOptions(max_depth=depth)
    serial = run_reachability(_BOOKING, condition, bound=_BOUND, options=options)
    distributed = run_reachability(
        _BOOKING, condition, bound=_BOUND, options=options.replace(nodes=2)
    )
    witness_match = serial.reachable == distributed.reachable and (
        (serial.witness is None) == (distributed.witness is None)
    )
    if serial.witness is not None and distributed.witness is not None:
        witness_match = witness_match and serial.witness.steps == distributed.witness.steps
    return [
        {
            "case": "booking",
            "bound": _BOUND,
            "depth": depth,
            "backend": backend,
            "configurations": result.configuration_count,
            "edges": result.edge_count,
            "seconds": round(elapsed, 4),
            "results_match": (
                result.configuration_count == reference.configuration_count
                and result.edge_count == reference.edge_count
                and result.truncated == reference.truncated
                and result.configurations == reference.configurations
            ),
            "witness_match": witness_match,
        }
    ]


def test_e17_booking_results_bit_identical(benchmark, run_once):
    rows = run_once(benchmark, booking_bit_identical, QUICK)
    print_experiment("E17", "2-node TCP run is bit-identical on booking", rows)
    if FORK:
        row = rows[0]
        assert row["backend"] == "distributed", row
        assert row["results_match"], row
        assert row["witness_match"], row
