"""The unified exploration engine.

Every exploration of the reproduction — of the recency-bounded graph
``C_S^b`` and, with ``b = None``, of the unbounded configuration graph
``C_S`` (:mod:`repro.recency`) — walks a transition system whose states
are immutable configurations and whose edges are step objects carrying
``.source`` and ``.target``.  The :class:`Engine` is
the single implementation of that exploration, parameterised over

* a **successor function** ``successors(state) -> iterable of edges``,
* a **frontier strategy** (``"bfs"``, ``"dfs"`` or ``"best-first"`` with
  a user heuristic — see :mod:`repro.search.frontier`),
* an **edge-retention mode** bounding memory (see below), and
* :class:`SearchLimits` bounding depth, state count and edge count.

States are hash-consed through an :class:`~repro.search.interning.InternTable`:
each distinct state is deep-hashed exactly once, after which the
frontier, the visited set and the parent map operate on dense integer
ids.

Edge-retention modes
--------------------

``"full"``
    every generated edge is kept (``SearchResult.edges``) together with
    the parent map; this matches the seed explorers' behaviour.
``"parents-only"``
    only the spanning-tree edge through which each state was first
    discovered is kept (the parent map), enough to reconstruct
    witnesses; per-state memory is O(1) instead of O(out-degree).
``"counts-only"``
    no edge objects are retained at all, only counters — the mode for
    large state-space sweeps that only report sizes.

Predicate search (:meth:`Engine.search`) always maintains the parent
map — regardless of retention — because witnesses are reconstructed by
walking parent links back to the root; under the ``"bfs"`` strategy the
reconstructed witness has minimal length.  This replaces the seed
behaviour of threading whole run prefixes through the frontier, which
copied and re-validated a length-``k`` prefix on every generated edge.

Depth-bounded completeness
--------------------------

Non-FIFO strategies can first reach a state along a long path — possibly
at the depth horizon, where it would never be expanded.  The engine
tracks the best known depth per state and *re-opens* a state whenever it
is re-reached strictly shallower, so every state reachable within
``max_depth`` is expanded regardless of strategy.  Under ``"bfs"``
states are always discovered at minimal depth, so re-opening never
triggers and the behaviour matches the seed explorers exactly; under
``"dfs"``/``"best-first"`` a re-opened state is expanded again, so
``edge_count`` may count some edges more than once.

Truncation semantics
--------------------

The engine reproduces the seed explorers' truncation behaviour exactly:
limits are checked after *every generated edge*, and hitting
``max_configurations`` or ``max_steps`` — even exactly on the last
successor of an otherwise-complete exploration — marks the result
``truncated``.  Callers that map truncated explorations to ``UNKNOWN``
verdicts (reachability) therefore keep their three-valued contracts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

from repro.errors import SearchError
from repro.obs.metrics import resolve_metrics
from repro.obs.trace import get_tracer
from repro.search.frontier import make_frontier
from repro.search.interning import InternTable

__all__ = [
    "RETAIN_COUNTS",
    "RETAIN_FULL",
    "RETAIN_PARENTS",
    "RETENTION_MODES",
    "Engine",
    "SearchLimits",
    "SearchResult",
    "iterate_paths",
]

RETAIN_FULL = "full"
RETAIN_PARENTS = "parents-only"
RETAIN_COUNTS = "counts-only"
RETENTION_MODES = (RETAIN_FULL, RETAIN_PARENTS, RETAIN_COUNTS)


@dataclass(frozen=True)
class SearchLimits:
    """Limits bounding an exploration.

    Attributes:
        max_depth: maximum number of edges along any explored path.
        max_configurations: stop after this many distinct states.
        max_steps: stop after this many edges have been generated.
    """

    max_depth: int = 6
    max_configurations: int = 100_000
    max_steps: int = 500_000


@dataclass
class SearchResult:
    """Outcome of an engine exploration.

    Attributes:
        initial: the canonical initial state.
        interning: the intern table holding every discovered state.
        edges: retained edge objects (populated in ``"full"`` mode only).
        edge_count: number of edges *generated*, independent of retention.
        depth_reached: largest depth at which a state was expanded.
        truncated: whether a limit cut the exploration short.
        parents: ``state_id -> (parent_id, edge)`` spanning-tree links
            (empty in ``"counts-only"`` explorations).  A ``parent_id``
            of ``-1`` marks a cross-shard link in a per-shard partial
            result; :meth:`merge` re-keys it against the merged table.
        retention: the edge-retention mode used.
        depths: ``state_id -> best known discovery depth``; kept so that
            :meth:`merge` can resolve parent conflicts deterministically.
    """

    initial: Any
    interning: InternTable = field(default_factory=InternTable)
    edges: list = field(default_factory=list)
    edge_count: int = 0
    depth_reached: int = 0
    truncated: bool = False
    parents: dict = field(default_factory=dict)
    retention: str = RETAIN_FULL
    depths: dict = field(default_factory=dict)

    @property
    def state_count(self) -> int:
        """Number of distinct states discovered."""
        return len(self.interning)

    def states(self) -> Iterator[Any]:
        """The canonical states, in discovery order for engine results.

        Merged results (:meth:`merge`) list states in fold order — each
        operand's states in its own discovery order — which for shard
        partials is a shard-grouped permutation of the single-shard
        discovery order (same set, same count).
        """
        return self.interning.states()

    def levels(self) -> dict[int, tuple]:
        """State ids grouped by best-known discovery depth, depth-ascending.

        The per-level frontiers of the exploration: under ``"bfs"``
        level ``d`` holds exactly the states first discovered at depth
        ``d``.  The result store's delta verification
        (:mod:`repro.store.capture`) re-drives exploration level by
        level from cached expansions instead of from the initial
        configuration alone; these frontiers are also what the E18
        bench reports.  Ids within a level are sorted (discovery order
        under a single-shard engine).
        """
        grouped: dict[int, list] = {}
        for state_id, depth in self.depths.items():
            grouped.setdefault(depth, []).append(state_id)
        return {depth: tuple(sorted(ids)) for depth, ids in sorted(grouped.items())}

    def root_id(self) -> int:
        """The interned id of the initial state.

        Engine explorations always intern the root first (id 0); merged
        results may hold it at any id, so witness reconstruction resolves
        it through the table instead of assuming 0.
        """
        state_id = self.interning.id_of(self.initial)
        if state_id is None:
            raise SearchError("the initial state was never interned by this exploration")
        return state_id

    def path_to(self, state: Any) -> list:
        """The spanning-tree path (list of edges) from the root to ``state``.

        Raises:
            SearchError: when the state was never discovered or the
                parent map was not retained.
        """
        state_id = self.interning.id_of(state)
        if state_id is None:
            raise SearchError(f"state {state!r} was not discovered by this exploration")
        return self.path_to_id(state_id)

    def path_to_id(self, state_id: int) -> list:
        """Like :meth:`path_to` but addressed by interned id."""
        root = self.root_id()
        if not self.parents and state_id != root:
            raise SearchError(
                "witness reconstruction requires the parent map; "
                f"re-run with retention '{RETAIN_FULL}' or '{RETAIN_PARENTS}'"
            )
        path: list = []
        current = state_id
        while current != root:
            entry = self.parents.get(current)
            if entry is None:
                raise SearchError(
                    f"state id {current} has no parent link; per-shard partial results "
                    "must be merged (SearchResult.merge) before reconstructing witnesses"
                )
            parent, edge = entry
            if parent < 0:
                raise SearchError(
                    f"state id {current} was discovered through a cross-shard edge; "
                    "merge the shard results before reconstructing witnesses"
                )
            path.append(edge)
            current = parent
            if len(path) > len(self.interning):
                raise SearchError("parent links form a cycle; refusing to reconstruct a witness")
        path.reverse()
        return path

    # -- associative merging of shard results ----------------------------------

    def merge(self, other: "SearchResult") -> "SearchResult":
        """Combine two results into a new one (associative, non-mutating).

        Designed for folding the per-shard partial results of a sharded
        exploration (:mod:`repro.search.sharded`), where every state is
        owned by exactly one shard:

        * the visited sets are unioned (states re-interned left to right,
          so fold order fixes the merged discovery order);
        * ``edge_count`` adds up, ``depth_reached`` takes the maximum and
          ``truncated`` is OR-ed — *any* truncated shard marks the merged
          result truncated, which reachability maps to ``UNKNOWN`` (never
          ``FAILS``);
        * parent links are re-keyed against the merged table via their
          edge objects, repairing cross-shard links (``parent_id == -1``)
          so witness reconstruction works across shards.

        When both operands' intern tables are
        :class:`~repro.search.shm_interning.SharedInternTable` views of
        the *same* shared state store — the partials of a
        shared-interning exploration — the union and the parent
        re-keying run over **shared ids** (integer dictionary probes)
        instead of re-hashing every state per fold, which is what makes
        folding many shard partials cheap at scale.  The merged content
        is identical either way.

        When both operands carry a parent link for the same state (which
        never happens between shard partials), the link discovered at the
        smaller depth wins and the earlier operand wins ties, keeping the
        fold associative.  Both operands must share the retention mode.

        Raises:
            SearchError: on mismatched retention modes.
        """
        from repro.search.shm_interning import SharedInternTable

        if self.retention != other.retention:
            raise SearchError(
                f"cannot merge results with different retention modes "
                f"({self.retention!r} vs {other.retention!r})"
            )
        shared = (
            isinstance(self.interning, SharedInternTable)
            and isinstance(other.interning, SharedInternTable)
            and self.interning.store is other.interning.store
        )
        merged = SearchResult(
            initial=self.initial,
            retention=self.retention,
            interning=SharedInternTable(self.interning.store) if shared else InternTable(),
        )
        merged.edge_count = self.edge_count + other.edge_count
        merged.depth_reached = max(self.depth_reached, other.depth_reached)
        merged.truncated = self.truncated or other.truncated
        merged.edges = self.edges + other.edges
        table = merged.interning
        for operand in (self, other):
            for local_id, state in enumerate(operand.states()):
                if shared:
                    merged_id, _, _ = table.intern_shared(
                        operand.interning.shared_id_of(local_id), state
                    )
                else:
                    merged_id, _, _ = table.intern(state)
                depth = operand.depths.get(local_id)
                if depth is not None:
                    known = merged.depths.get(merged_id)
                    if known is None or depth < known:
                        merged.depths[merged_id] = depth
        entry_depths: dict = {}
        for operand in (self, other):
            for local_target, (_, edge) in operand.parents.items():
                target_id = _merge_key(table, operand.interning, local_target, shared)
                candidate_depth = operand.depths.get(local_target)
                known_depth = entry_depths.get(target_id)
                if target_id in merged.parents and (
                    candidate_depth is None or known_depth is None or candidate_depth >= known_depth
                ):
                    continue
                # Resolve the parent against the *union* of the operands'
                # visited sets — never intern a state neither operand
                # discovered.  A still-foreign source stays -1 (cross-shard
                # marker) and resolves once a later fold contributes the
                # owning shard; after a full merge_all every source is a
                # discovered state, so no -1 markers survive.
                if shared:
                    source_sid = table.store.id_for(edge.source)
                    parent_id = (
                        table.local_of_shared(source_sid)
                        if source_sid is not None
                        else table.id_of(edge.source)
                    )
                else:
                    parent_id = table.id_of(edge.source)
                merged.parents[target_id] = (parent_id if parent_id is not None else -1, edge)
                entry_depths[target_id] = candidate_depth
        return merged

    @classmethod
    def merge_all(cls, results: Iterable["SearchResult"]) -> "SearchResult":
        """Left fold of :meth:`merge` over a non-empty sequence of results."""
        merged = None
        for result in results:
            merged = result if merged is None else merged.merge(result)
        if merged is None:
            raise SearchError("merge_all requires at least one result")
        return merged


def _merge_key(table, operand_table, local_target: int, shared: bool) -> int | None:
    """The merged id of a partial result's parent-link target.

    On the shared fast path the target resolves by its shared id (an
    integer probe); otherwise by re-hashing the state, as before.
    """
    if shared:
        shared_id = operand_table.shared_id_of(local_target)
        if shared_id is not None:
            return table.local_of_shared(shared_id)
    return table.id_of(operand_table.state_of(local_target))


def _record_exploration(registry, engine_kind: str, result: "SearchResult", seconds: float) -> None:
    """Flush one completed exploration's boundary counters into ``registry``.

    Called once per :meth:`Engine.explore`/:meth:`Engine.search` — the
    hot loop itself is never instrumented; everything here is derived
    from aggregates the result already carries.  A "duplicate" is an
    edge whose target was already interned (including re-opens under
    non-FIFO strategies).
    """
    registry.counter("engine_explorations_total", engine=engine_kind).inc()
    registry.counter("engine_states_total", kind="interned").inc(result.state_count)
    duplicates = result.edge_count - (result.state_count - 1)
    if duplicates > 0:
        registry.counter("engine_states_total", kind="duplicate").inc(duplicates)
    registry.counter("engine_edges_total").inc(result.edge_count)
    registry.gauge("engine_depth_reached").high_water(result.depth_reached)
    registry.histogram("engine_explore_seconds", engine=engine_kind).observe(seconds)


class Engine:
    """Generic bounded explorer of a successor relation (see module docs).

    ``metrics=`` accepts a :class:`repro.obs.MetricsRegistry`; ``None``
    (the default) resolves to the process-wide registry at each call,
    which is the no-op null registry unless the harness (or a caller)
    installed one — so an uninstrumented exploration costs nothing.
    Counters are flushed at exploration boundaries only, never per edge.
    """

    __slots__ = ("_successors", "_limits", "_strategy", "_heuristic", "_retention", "_metrics")

    def __init__(
        self,
        successors: Callable[[Any], Iterable],
        *,
        limits: SearchLimits | None = None,
        strategy: str = "bfs",
        heuristic: Callable[[Any, int], Any] | None = None,
        retention: str = RETAIN_FULL,
        metrics=None,
    ) -> None:
        if retention not in RETENTION_MODES:
            raise SearchError(
                f"unknown edge-retention mode {retention!r}; expected one of {RETENTION_MODES}"
            )
        # Validate the strategy/heuristic combination eagerly.
        make_frontier(strategy, heuristic)
        self._successors = successors
        self._limits = limits or SearchLimits()
        self._strategy = strategy
        self._heuristic = heuristic
        self._retention = retention
        self._metrics = metrics

    @property
    def limits(self) -> SearchLimits:
        """The exploration limits."""
        return self._limits

    @property
    def strategy(self) -> str:
        """The frontier strategy name."""
        return self._strategy

    @property
    def retention(self) -> str:
        """The edge-retention mode."""
        return self._retention

    # -- exhaustive exploration ------------------------------------------------

    def explore(
        self,
        initial: Any,
        on_state: Callable[[Any, int], None] | None = None,
    ) -> SearchResult:
        """Explore every reachable state within the limits.

        ``on_state`` is invoked with each newly discovered canonical
        state and its discovery depth (the initial state at depth 0).
        """
        registry = resolve_metrics(self._metrics)
        started = perf_counter()
        with get_tracer().span("explore", engine="single", strategy=self._strategy):
            result = self._explore(initial, on_state)
        if registry.enabled:
            _record_exploration(registry, "single", result, perf_counter() - started)
        return result

    def _explore(
        self,
        initial: Any,
        on_state: Callable[[Any, int], None] | None,
    ) -> SearchResult:
        """The uninstrumented exploration loop behind :meth:`explore`."""
        keep_edges = self._retention == RETAIN_FULL
        keep_parents = self._retention != RETAIN_COUNTS
        result = SearchResult(initial=initial, retention=self._retention)
        table = result.interning
        root_id, root, _ = table.intern(initial)
        result.initial = root
        if on_state:
            on_state(root, 0)
        frontier = make_frontier(self._strategy, self._heuristic)
        frontier.push(root_id, 0, root)
        depths = result.depths
        depths[root_id] = 0
        limits = self._limits
        successors = self._successors
        while frontier:
            state_id, depth = frontier.pop()
            if depth > depths[state_id]:
                continue  # stale entry: the state was re-opened at a smaller depth
            state = table.state_of(state_id)
            if depth > result.depth_reached:
                result.depth_reached = depth
            if depth >= limits.max_depth:
                continue
            for edge in successors(state):
                result.edge_count += 1
                if keep_edges:
                    result.edges.append(edge)
                target_id, target, is_new = table.intern(edge.target)
                if is_new:
                    depths[target_id] = depth + 1
                    if keep_parents:
                        result.parents[target_id] = (state_id, edge)
                    if on_state:
                        on_state(target, depth + 1)
                    frontier.push(target_id, depth + 1, target)
                elif depth + 1 < depths[target_id]:
                    # Non-FIFO strategies can first reach a state along a
                    # long path (possibly at the depth horizon, where it
                    # would never be expanded); re-open it at the smaller
                    # depth so depth-bounded exploration stays complete.
                    depths[target_id] = depth + 1
                    if keep_parents:
                        result.parents[target_id] = (state_id, edge)
                    frontier.push(target_id, depth + 1, target)
                if len(table) >= limits.max_configurations or result.edge_count >= limits.max_steps:
                    result.truncated = True
                    return result
        return result

    # -- early-exit predicate search -------------------------------------------

    def search(
        self,
        initial: Any,
        predicate: Callable[[Any], bool],
        on_state: Callable[[Any, int], None] | None = None,
    ) -> tuple[list | None, SearchResult]:
        """Search for a state satisfying ``predicate``.

        Returns ``(path, result)`` where ``path`` is the list of edges
        from the root to the first satisfying state found (``[]`` when
        the initial state satisfies the predicate, ``None`` when no
        satisfying state was found within the limits).  The parent map
        is always retained so the witness can be reconstructed; under
        the ``"bfs"`` strategy it is a minimal-length witness.

        ``on_state`` is invoked with each newly discovered canonical
        state and its discovery depth, exactly as under :meth:`explore`
        (the state satisfying the predicate terminates the search before
        it is interned, so it never fires the callback).
        """
        registry = resolve_metrics(self._metrics)
        started = perf_counter()
        with get_tracer().span("search", engine="single", strategy=self._strategy):
            path, result = self._search(initial, predicate, on_state)
        if registry.enabled:
            _record_exploration(registry, "single", result, perf_counter() - started)
        return path, result

    def _search(
        self,
        initial: Any,
        predicate: Callable[[Any], bool],
        on_state: Callable[[Any, int], None] | None = None,
    ) -> tuple[list | None, SearchResult]:
        """The uninstrumented predicate-search loop behind :meth:`search`."""
        keep_edges = self._retention == RETAIN_FULL
        result = SearchResult(initial=initial, retention=self._retention)
        table = result.interning
        root_id, root, _ = table.intern(initial)
        result.initial = root
        if on_state:
            on_state(root, 0)
        if predicate(root):
            return [], result
        frontier = make_frontier(self._strategy, self._heuristic)
        frontier.push(root_id, 0, root)
        depths = result.depths
        depths[root_id] = 0
        limits = self._limits
        successors = self._successors
        while frontier:
            state_id, depth = frontier.pop()
            if depth > depths[state_id]:
                continue  # stale entry: the state was re-opened at a smaller depth
            state = table.state_of(state_id)
            if depth > result.depth_reached:
                result.depth_reached = depth
            if depth >= limits.max_depth:
                continue
            for edge in successors(state):
                result.edge_count += 1
                if keep_edges:
                    result.edges.append(edge)
                if predicate(edge.target):
                    path = result.path_to_id(state_id)
                    path.append(edge)
                    return path, result
                target_id, target, is_new = table.intern(edge.target)
                if is_new:
                    depths[target_id] = depth + 1
                    result.parents[target_id] = (state_id, edge)
                    if on_state:
                        on_state(target, depth + 1)
                    frontier.push(target_id, depth + 1, target)
                elif depth + 1 < depths[target_id]:
                    depths[target_id] = depth + 1
                    result.parents[target_id] = (state_id, edge)
                    frontier.push(target_id, depth + 1, target)
                if len(table) >= limits.max_configurations or result.edge_count >= limits.max_steps:
                    result.truncated = True
                    return None, result
        return None, result

    # -- path enumeration ------------------------------------------------------

    def iterate_paths(
        self,
        initial: Any,
        depth: int,
        max_paths: int | None = None,
    ) -> Iterator[tuple]:
        """Enumerate maximal paths as tuples of edges (explicit-stack DFS).

        A path is yielded when it reaches ``depth`` edges or ends in a
        state with no successor (dead end).  The enumeration order is
        depth-first in successor order — identical to the recursive seed
        enumeration — but uses an explicit stack of iterators, so it is
        not limited by the interpreter recursion limit and supports
        depths in the thousands.  ``max_paths`` truncates the
        enumeration after that many yielded paths.
        """
        return iterate_paths(initial, self._successors, depth, max_paths)


def iterate_paths(
    initial: Any,
    successors: Callable[[Any], Iterable],
    depth: int,
    max_paths: int | None = None,
) -> Iterator[tuple]:
    """Module-level form of :meth:`Engine.iterate_paths` (see there)."""
    if depth < 0:
        raise SearchError("path enumeration depth must be non-negative")
    if max_paths is not None and max_paths <= 0:
        return
    count = 0

    def expansion(state: Any, remaining: int) -> list | None:
        """The successor edges to descend into, or ``None`` at a leaf."""
        if remaining == 0:
            return None
        steps = list(successors(state))
        return steps if steps else None

    root_steps = expansion(initial, depth)
    if root_steps is None:
        yield ()
        return
    path: list = []
    stack: list[Iterator] = [iter(root_steps)]
    while stack:
        edge = next(stack[-1], None)
        if edge is None:
            stack.pop()
            if path:
                path.pop()
            continue
        path.append(edge)
        child_steps = expansion(edge.target, depth - len(path))
        if child_steps is None:
            count += 1
            yield tuple(path)
            path.pop()
            if max_paths is not None and count >= max_paths:
                return
        else:
            stack.append(iter(child_steps))
