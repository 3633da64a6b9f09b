"""E16 — shared-memory interning: id-only vs pickled expansion traffic.

Gates the shared-interning PR's acceptance criteria:

* **Bit-identical results** — a sharded exploration with shared
  interning on must match single-shard BFS exactly (visited set, edge
  count, depth, truncation) on the booking case study, and reachability
  witnesses must come out identical.  Asserted **unconditionally** on
  every host.
* **Id-only traffic beats pickled traffic** — on a serialization-bound
  workload (fat states, high fan-in — every target regenerated by
  several parents, so classic traffic re-pickles it per edge), repeated
  exploration through a warm 4-worker pool with ``shared_interning=True``
  must be ≥ 1.3× faster than the same pool with
  ``shared_interning=False``.  The margin is the per-edge
  pickle/unpickle work that the shared slab collapses to one decode per
  distinct state per process.

The timing assertion only makes sense where parallel workers exist and
inputs are big enough: it is skipped on hosts without ``fork``, without
shared memory, below 4 usable CPUs, or under ``REPRO_BENCH_QUICK=1``.
Timings and rows persist to ``benchmarks/results/BENCH_E16.json`` via
the shared ``run_once`` fixture.
"""

import os
import time
from dataclasses import dataclass

from repro.api import ExplorationOptions, run_reachability
from repro.casestudies.booking import booking_agency_system
from repro.fol.parser import parse_query
from repro.harness.reporting import print_experiment
from repro.recency.explorer import RecencyExplorer
from repro.runtime import WorkerPool
from repro.search import (
    Engine,
    RETAIN_COUNTS,
    ShardedEngine,
    process_backend_available,
    shared_memory_available,
    usable_cpu_count,
)

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
FORK = process_backend_available()
SHM = shared_memory_available()
CPUS = usable_cpu_count()

_BOOKING = booking_agency_system()


# -- a serialization-bound workload --------------------------------------------
#
# A layered lattice whose states carry a fat payload and whose targets
# have several parents each: classic expansion traffic pickles every
# state per frontier send and every edge's endpoints per return, while
# id-only traffic moves each distinct state across a process boundary
# exactly once.


@dataclass(frozen=True)
class FatNode:
    level: int
    index: int
    payload: tuple


@dataclass(frozen=True)
class FatEdge:
    source: FatNode
    target: FatNode


def _fat_node(level: int, index: int, payload_words: int) -> FatNode:
    return FatNode(level, index, tuple(range(index, index + payload_words)))


def _fat_successors(width: int, degree: int, levels: int, payload_words: int):
    def successors(node: FatNode):
        if node.level >= levels:
            return []
        return [
            FatEdge(node, _fat_node(node.level + 1, (node.index * 7 + j) % width, payload_words))
            for j in range(degree)
        ]

    return successors


def id_only_vs_pickled(quick: bool) -> list[dict]:
    """Repeated warm-pool exploration of the lattice, both traffic shapes."""
    width, degree, levels, payload_words = (16, 3, 5, 64) if quick else (64, 4, 10, 512)
    repeats = 2 if quick else 4
    workers = shards = 4
    successors = _fat_successors(width, degree, levels, payload_words)
    root = _fat_node(0, 0, payload_words)
    options = ExplorationOptions(max_depth=levels, retention=RETAIN_COUNTS)
    reference = Engine(successors, options).explore(root)

    def measure(shared: bool) -> tuple[float, bool]:
        with WorkerPool(workers=workers) as pool:
            engine = ShardedEngine(
                successors,
                options.replace(shards=shards, workers=workers, shared_interning=shared),
                pool=pool,
                pool_key="e16-lattice",
            )
            result = engine.explore(root)  # spawn + warm the workers untimed
            started = time.perf_counter()
            for _ in range(repeats):
                result = engine.explore(root)
            elapsed = time.perf_counter() - started
            engine.close()
        matches = (
            result.state_count == reference.state_count
            and result.edge_count == reference.edge_count
            and result.depth_reached == reference.depth_reached
            and result.truncated == reference.truncated
            and set(result.states()) == set(reference.states())
        )
        return elapsed, matches

    pickled_seconds, pickled_match = measure(False)
    shm_seconds, shm_match = measure(True)
    return [
        {
            "mode": "pickled expansion traffic",
            "states": reference.state_count,
            "edges": reference.edge_count,
            "repeats": repeats,
            "seconds": round(pickled_seconds, 4),
            "speedup": 1.0,
            "results_match": pickled_match,
        },
        {
            "mode": "id-only expansion traffic (shared interning)",
            "states": reference.state_count,
            "edges": reference.edge_count,
            "repeats": repeats,
            "seconds": round(shm_seconds, 4),
            "speedup": round(pickled_seconds / shm_seconds, 2) if shm_seconds else None,
            "results_match": shm_match,
        },
    ]


def test_e16_id_only_traffic_vs_pickled(benchmark, run_once):
    rows = run_once(benchmark, id_only_vs_pickled, QUICK)
    print_experiment("E16", "Id-only vs pickled expansion traffic (4 workers)", rows)
    for row in rows:
        assert row["results_match"], row
    if not QUICK and FORK and SHM and CPUS >= 4:
        shm_row = rows[1]
        assert shm_row["speedup"] >= 1.3, shm_row


# -- bit-identical booking exploration -----------------------------------------


def booking_bit_identical(quick: bool) -> list[dict]:
    """Shared-interning sharded exploration vs single-shard BFS on booking."""
    bound, depth = 2, 4 if quick else 5
    counts = ExplorationOptions(max_depth=depth, retention=RETAIN_COUNTS)
    reference = RecencyExplorer(_BOOKING, bound, counts).explore()

    with WorkerPool(workers=4) as pool:
        explorer = RecencyExplorer(
            _BOOKING,
            bound,
            counts.replace(shards=4, workers=4, shared_interning=True),
            pool=pool,
        )
        started = time.perf_counter()
        result = explorer.explore()
        elapsed = time.perf_counter() - started
        shared_active = explorer.shared_interning
        explorer.close()

        # Witness parity: the bounded reachability query must agree
        # verdict-for-verdict and step-for-step with the serial one.
        condition = parse_query("exists o. OAvail(o)")
        options = ExplorationOptions(max_depth=depth)
        serial = run_reachability(_BOOKING, condition, bound=bound, options=options)
        sharded = run_reachability(
            _BOOKING, condition, bound=bound,
            options=options.replace(shards=4, workers=4), pool=pool,
        )
    witness_match = serial.reachable == sharded.reachable and (
        (serial.witness is None) == (sharded.witness is None)
    )
    if serial.witness is not None and sharded.witness is not None:
        witness_match = witness_match and len(serial.witness.steps) == len(sharded.witness.steps)
    return [
        {
            "case": "booking",
            "bound": bound,
            "depth": depth,
            "configurations": result.configuration_count,
            "edges": result.edge_count,
            "seconds": round(elapsed, 4),
            "shared_interning": shared_active,
            "results_match": (
                result.configuration_count == reference.configuration_count
                and result.edge_count == reference.edge_count
                and result.truncated == reference.truncated
                and result.configurations == reference.configurations
            ),
            "witness_match": witness_match,
        }
    ]


def test_e16_booking_results_bit_identical(benchmark, run_once):
    rows = run_once(benchmark, booking_bit_identical, QUICK)
    print_experiment("E16", "Shared interning is bit-identical on booking", rows)
    row = rows[0]
    assert row["results_match"], row
    assert row["witness_match"], row
    if FORK and SHM:
        assert row["shared_interning"], row
