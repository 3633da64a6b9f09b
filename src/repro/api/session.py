"""A warm, thread-safe verification session.

A :class:`Session` owns the per-process machinery that repeated queries
would otherwise rebuild per call — a :class:`repro.runtime.WorkerPool`
of warm worker processes, a resolved content-addressed result store and
a metrics registry — behind one object with one lifecycle.  The HTTP
service (:mod:`repro.service`) holds a session per pooled engine group,
the harness holds one per experiment run, and library callers use it as
a context manager.

Two execution paths serve a query:

* :meth:`run_reachability` — **inline**: the exploration runs on the
  calling thread, sharing the session's store (and, for sharded
  options, its warm expansion workers).  Thread-safe; many threads may
  query concurrently.
* :meth:`run_reachability_isolated` — **pooled**: the whole query runs
  on a warm worker process forked once per ``(system, graph)`` context
  and reused across calls.  A ``timeout`` is enforced by killing the
  worker (the session respawns it lazily and stays healthy), which is
  what gives the service its per-request wall-clock budget.  Verdicts
  are bit-identical to the inline path — the worker forces the
  single-shard engine, and execution shape never changes results.

Same-context isolated queries are serialised by a per-context lock
(one warm worker group serves one query at a time); queries over
different systems or graphs proceed concurrently.
"""

from __future__ import annotations

import base64
import pickle
import threading
from typing import Callable

from repro.api import query as api_query
from repro.dms.system import DMS
from repro.errors import ModelCheckingError, QueryTimeoutError, SchedulerError, SessionError
from repro.fol.syntax import Query
from repro.modelcheck.result import ReachabilityResult
from repro.obs.metrics import resolve_metrics
from repro.runtime.pool import WorkerPool
from repro.runtime.scheduler import SweepScheduler
from repro.search import ExplorationOptions
from repro.store.canonical import system_hash
from repro.store.service import resolve_store

__all__ = ["Session"]


def _encode_condition(condition: Query) -> str:
    """A pickle-round-trippable string form of a query condition.

    Isolated queries travel to their warm worker as a flat parameter
    dict of JSON scalars (the sweep scheduler's canonical domain), so a
    structured :class:`~repro.fol.syntax.Query` is shipped as a base64
    pickle and decoded worker-side.
    """
    return base64.b64encode(pickle.dumps(condition)).decode("ascii")


class Session:
    """One warm verification session (see the module docs).

    Args:
        options: default :class:`ExplorationOptions` for queries that do
            not pass their own.
        store: content-addressed result store — a path, a
            :class:`repro.store.ResultStore`, ``False`` to disable,
            ``None`` to consult ``REPRO_STORE``.  Resolved once, here,
            so every query of the session sees the same store.
        pool: a :class:`WorkerPool` to share; omitted, the session
            creates its own on first use (with ``use_processes=True``,
            so even one-worker query contexts fork — the process
            boundary is what makes isolated timeouts enforceable) and
            shuts it down on :meth:`close`.
        pool_workers: default worker count of an owned pool.
        metrics: a :class:`repro.obs.MetricsRegistry`; ``None`` resolves
            to the process-wide registry per operation.
    """

    def __init__(
        self,
        *,
        options: ExplorationOptions | None = None,
        store=None,
        pool: WorkerPool | None = None,
        pool_workers: int | None = None,
        metrics=None,
    ) -> None:
        self._options = options or ExplorationOptions()
        self._store = resolve_store(store)
        self._pool = pool
        self._owns_pool = pool is None
        self._pool_workers = pool_workers
        self._metrics = metrics
        self._guard = threading.Lock()
        self._context_locks: dict = {}
        self._closed = False

    # -- accessors -------------------------------------------------------------

    @property
    def options(self) -> ExplorationOptions:
        """The session's default exploration options."""
        return self._options

    @property
    def store(self):
        """The resolved result store (``None`` when disabled)."""
        return self._store

    @property
    def pool(self) -> WorkerPool:
        """The session's worker pool (an owned pool is created lazily)."""
        self._ensure_open()
        with self._guard:
            if self._pool is None:
                self._pool = WorkerPool(
                    workers=self._pool_workers, use_processes=True, metrics=self._metrics
                )
            return self._pool

    def warm_context_keys(self) -> tuple:
        """The keys of the currently warm pool contexts (diagnostics)."""
        with self._guard:
            return self._pool.keys() if self._pool is not None else ()

    def _ensure_open(self) -> None:
        if self._closed:
            raise SessionError("the session has been closed")

    def _effective_store(self):
        # The store was resolved at construction; pass the resolved
        # object (or False) downward so queries never re-consult the
        # environment mid-session.
        return self._store if self._store is not None else False

    def _exploration_pool(self, options: ExplorationOptions):
        # Explorations borrow warm expansion workers only where the
        # engine would otherwise fork its own (sharded, single-node).
        if options.nodes == 1 and (options.shards > 1 or options.workers > 1):
            return self.pool
        return None

    def _lock_for(self, key) -> threading.Lock:
        with self._guard:
            lock = self._context_locks.get(key)
            if lock is None:
                lock = self._context_locks[key] = threading.Lock()
            return lock

    # -- queries ---------------------------------------------------------------

    def run_reachability(
        self,
        system: DMS,
        condition: Query | str,
        *,
        bound: int | None = None,
        options: ExplorationOptions | None = None,
        on_state: Callable[[object, int], None] | None = None,
    ) -> ReachabilityResult:
        """Run a reachability query inline, on the calling thread.

        Shares the session's store and (for sharded options) its warm
        expansion workers; see :func:`repro.api.run_reachability` for
        argument semantics.  Thread-safe.
        """
        self._ensure_open()
        effective = options or self._options
        registry = resolve_metrics(self._metrics)
        registry.counter("api_queries_total", path="inline").inc()
        with registry.histogram("api_query_seconds", path="inline").time():
            return api_query.run_reachability(
                system,
                condition,
                bound=bound,
                options=effective,
                pool=self._exploration_pool(effective),
                store=self._effective_store(),
                on_state=on_state,
            )

    def run_reachability_isolated(
        self,
        system: DMS,
        condition: Query | str,
        *,
        bound: int | None = None,
        options: ExplorationOptions | None = None,
        timeout: float | None = None,
    ) -> ReachabilityResult:
        """Run a reachability query on a warm pooled worker process.

        The worker is forked once per ``(system, graph)`` context and
        stays warm across calls; ``timeout`` seconds of wall clock kill
        it (:class:`~repro.errors.QueryTimeoutError`), after which the
        session respawns the worker lazily and keeps serving.  Verdicts
        are bit-identical to :meth:`run_reachability` — the worker
        forces the single-shard engine, and execution shape never
        changes results.  Where fork is unavailable the query degrades
        to the in-process fallback (``timeout`` is then unenforceable,
        matching the scheduler's sequential semantics).

        Best-first queries are inline-only: a heuristic callable cannot
        travel to a warm worker through the flat parameter dict.
        """
        self._ensure_open()
        effective = (options or self._options).replace(shards=1, workers=1, nodes=1)
        if effective.heuristic is not None:
            raise ModelCheckingError(
                "isolated queries cannot carry a search heuristic; "
                "use Session.run_reachability for best-first queries"
            )
        # Validate coordinator-side so a malformed condition raises the
        # same error type as the inline path instead of a wrapped
        # worker failure.
        api_query.instance_predicate(condition, system)
        key = ("api-query", system_hash(system), "dms" if bound is None else f"recency:{bound}")
        parameters = {
            "payload": "api-isolated",
            "condition_kind": "proposition" if isinstance(condition, str) else "query",
            "condition": condition if isinstance(condition, str) else _encode_condition(condition),
            "bound": bound,
            **effective.result_fields(),
        }
        registry = resolve_metrics(self._metrics)
        registry.counter("api_queries_total", path="isolated").inc()
        scheduler = SweepScheduler(
            parallel=1, pool=self.pool, timeout=timeout, context_key=key
        )
        with self._lock_for(key), registry.histogram("api_query_seconds", path="isolated").time():
            try:
                records = scheduler.run([parameters], self._isolated_measure(system))
            except SchedulerError as error:
                if "timeout:" in str(error):
                    registry.counter("api_query_timeouts_total").inc()
                    raise QueryTimeoutError(
                        f"reachability query exceeded its {timeout}s budget "
                        f"(worker killed; the session stays healthy)"
                    ) from error
                raise
        return records[0].measurements["result"]

    def _isolated_measure(self, system: DMS):
        """The per-context measure function isolated queries execute.

        Forked into the warm workers with ``system`` and the resolved
        store closed over (the store object is fork-safe); each call's
        condition and limits arrive through the parameter dict.
        """
        store = self._effective_store()

        def measure(parameters: dict) -> dict:
            condition = parameters["condition"]
            if parameters["condition_kind"] == "query":
                condition = pickle.loads(base64.b64decode(condition))
            options = ExplorationOptions(
                **{name: parameters[name] for name in ExplorationOptions.RESULT_FIELDS}
            )
            result = api_query.run_reachability(
                system, condition, bound=parameters["bound"], options=options, store=store
            )
            return {"result": result}

        return measure

    # -- convergence -----------------------------------------------------------

    def reachability_bound_sweep(
        self,
        system: DMS,
        condition: Query | str,
        bounds: tuple[int, ...] = (0, 1, 2, 3, 4),
        *,
        options: ExplorationOptions | None = None,
        on_point=None,
    ):
        """Sweep the recency bound, sharing the session's store and pool.

        Delegates to
        :func:`repro.modelcheck.convergence.reachability_bound_sweep`
        with the options passed whole, so every point honours their
        limits; ``on_point`` streams each completed bound (the service's
        convergence endpoint surfaces it as progress events).
        """
        self._ensure_open()
        from repro.modelcheck.convergence import reachability_bound_sweep

        effective = options or self._options
        return reachability_bound_sweep(
            system,
            condition,
            bounds,
            effective.max_depth,
            options=effective,
            pool=self._exploration_pool(effective),
            store=self._effective_store(),
            on_point=on_point,
        )

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Shut down an owned pool and refuse further queries (idempotent).

        A pool passed in by the caller is left running — its lifecycle
        belongs to whoever created it.
        """
        with self._guard:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None and self._owns_pool:
            pool.shutdown()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
