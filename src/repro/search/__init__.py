"""Unified high-performance exploration engine.

This package is the single substrate behind every graph exploration in
the reproduction: recency-bounded exploration of ``C_S^b`` and, with
``bound=None``, of the unbounded configuration graph ``C_S`` (both
through :mod:`repro.recency.explorer`), run enumeration for the model
checker, and the E9/E10/E12/E13 experiment sweeps.

Every engine takes one :class:`ExplorationOptions` value — limits,
strategy, retention and execution shape — whose constructor validates
all of them.  Quick start (runnable in ``src/repro/search/README.md``)::

    from repro.search import Engine, ExplorationOptions

    engine = Engine(
        lambda conf: enumerate_b_bounded_successors(system, conf, 2),
        ExplorationOptions(
            max_depth=6,
            strategy="bfs",              # or "dfs" / "best-first" + heuristic
            retention="parents-only",    # or "full" / "counts-only"
        ),
    )
    witness, result = engine.search(initial, predicate)

Choosing a strategy
-------------------

* ``"bfs"`` (default) — level order; predicate search returns
  minimal-length witnesses.  Use it whenever witness minimality or the
  seed explorers' exact visit order matters.
* ``"dfs"`` — dives deep quickly; useful to find *some* witness in deep
  but narrow graphs with a small frontier.
* ``"best-first"`` — orders the frontier by a user heuristic
  ``heuristic(state, depth)``; use for guided search towards a target.

Choosing a memory mode
----------------------

* ``"full"`` — keep every generated edge; required by callers that
  post-process the edge list.
* ``"parents-only"`` — keep one spanning-tree edge per state, enough for
  witness reconstruction (the default for reachability queries).
* ``"counts-only"`` — keep only counters; the mode for state-space size
  sweeps over large graphs.

Sharded exploration
-------------------

:class:`~repro.search.sharded.ShardedEngine` runs the ``"bfs"`` strategy
sharded: states are hash-partitioned across
:class:`~repro.search.sharded.Partition` objects, one level loop
(:func:`~repro.search.sharded.run_levels`) expands each level with work
stealing — batched across fork workers leased from a
:class:`repro.runtime.WorkerPool` when ``workers > 1``, with a
deterministic serial fallback — and walks, probes and commits it in
single-shard discovery order; the per-partition results are folded with
the associative :meth:`~repro.search.engine.SearchResult.merge`.  The
distributed engine (:mod:`repro.distributed`) drives the same loop over
TCP node agents.  Results are bit-identical to the single-shard engine's — including
witnesses and truncation flags (any truncated shard truncates the
merge, which reachability reports as ``UNKNOWN``, never ``FAILS``).

Process-backed expansion traffic is **id-only** by default: states are
interned into a shared-memory slab
(:mod:`repro.search.shm_interning`) and only intern ids cross the
worker pipes, deserializing each configuration at most once per
process.  The ``shared_interning`` option forces it on/off; hosts
without ``multiprocessing.shared_memory`` fall back to pickled traffic
with identical results.

See ``src/repro/search/README.md`` for the full design notes,
``docs/architecture.md`` for the layering and sharding design, and
:mod:`repro.search.baseline` for the frozen seed implementations used by
the differential tests and the E13 benchmark.
"""

from repro.errors import SearchError
from repro.search.engine import (
    RETAIN_COUNTS,
    RETAIN_FULL,
    RETAIN_PARENTS,
    RETENTION_MODES,
    Engine,
    SearchResult,
    iterate_paths,
)
from repro.search.frontier import (
    BestFirstFrontier,
    BFSFrontier,
    DFSFrontier,
    Frontier,
    make_frontier,
)
from repro.search.interning import InternTable
from repro.search.options import ExplorationOptions
from repro.search.shm_interning import (
    SharedInternTable,
    SharedStateStore,
    shared_memory_available,
)
from repro.search.sharded import (
    Partition,
    SerialExpansionBackend,
    ShardedEngine,
    ShardFrontiers,
    process_backend_available,
    run_levels,
    shard_of,
    usable_cpu_count,
)

__all__ = [
    "RETAIN_COUNTS",
    "RETAIN_FULL",
    "RETAIN_PARENTS",
    "RETENTION_MODES",
    "BestFirstFrontier",
    "BFSFrontier",
    "DFSFrontier",
    "Engine",
    "ExplorationOptions",
    "Frontier",
    "InternTable",
    "Partition",
    "SearchError",
    "SearchResult",
    "SerialExpansionBackend",
    "ShardFrontiers",
    "ShardedEngine",
    "SharedInternTable",
    "SharedStateStore",
    "iterate_paths",
    "make_frontier",
    "process_backend_available",
    "run_levels",
    "shard_of",
    "shared_memory_available",
    "usable_cpu_count",
]
