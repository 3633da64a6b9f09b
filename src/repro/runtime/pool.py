"""Persistent warm worker pools.

Forking expansion workers per exploration would pay a full ``fork`` +
teardown cycle each time; experiment sweeps would pay it once per sweep
*point*.  A :class:`WorkerPool` amortises that cost: fork-based workers
are spawned **once per context** — a ``(key, function)`` pair such as
one case study's successor closure, or one sweep's measure function —
and stay warm across successive explorations and sweeps.  Contexts are
health-checked and crashed workers are respawned lazily, with their
in-flight tasks resubmitted, so a killed worker never loses results.

The pool executes *pure* functions: a task may be executed more than
once (after a crash, or when a timeout races completion), and the first
completion wins.  All exploration and measurement functions in this
library are deterministic, so re-execution is invisible.

Crash-safety shapes the plumbing: every worker owns a **private pair of
pipes** (tasks in, results out) with exactly one reader and one writer
each, and the coordinator dispatches **one task at a time** per worker.
There are no shared queues and therefore no shared locks — a worker
SIGKILLed at any moment (even mid-``recv``) cannot poison
synchronisation state for its siblings or its replacement, and the task
it was running is precisely known and re-dispatched.  (A naive shared
``multiprocessing.Queue`` deadlocks here: a reader killed inside
``get()`` dies holding the queue's reader lock.)

Two context kinds share one API (``submit`` / ``events``):

* :class:`ProcessWorkerContext` — fork-based worker processes; the
  context function is inherited through fork (no pickling of systems or
  closures), payloads and results cross the pipes pickled.
* :class:`SerialWorkerContext` — the deterministic in-process fallback,
  used when fork is unavailable or one worker was requested.  Results
  are bit-identical either way: the sharded engine's level loop (and the
  scheduler's grid ordering) fix the result independently of *where*
  work ran.

``WorkerPool.expansion_backend`` adapts a context to the expansion
backend protocol of :class:`~repro.search.sharded.ShardedEngine`
(``expand``/``close``); ``close()`` on the adapter *releases* the
context (it stays warm in the pool) instead of tearing workers down —
only :meth:`WorkerPool.shutdown` does that.

Expansion contexts that fork processes also lease a shared-memory state
store (:mod:`repro.search.shm_interning`): its segment name is baked
into the workers at fork time, each worker owns one writer slot (slot
``index + 1``; crash-respawned replacements re-attach to the same slot),
and the segment is unlinked exactly when the context dies —
``release()``, ``close()``/``shutdown()``, the last auto-key lease drop,
or the pid-guarded GC finalizer.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import weakref
from collections import deque
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Iterable, Iterator

from repro.errors import WorkerPoolError
from repro.obs.metrics import resolve_metrics
from repro.search.shm_interning import (
    EncodedExpansion,
    SharedStateStore,
    attached_store,
    set_process_writer_slot,
    shared_memory_available,
)
from repro.search.sharded import _drain_batches, process_backend_available, usable_cpu_count

__all__ = [
    "DEFAULT_POOL_WORKERS",
    "PooledExpansionBackend",
    "ProcessWorkerContext",
    "SerialWorkerContext",
    "WorkerPool",
]

DEFAULT_POOL_WORKERS = max(1, min(4, usable_cpu_count()))

# How long one coordinator wait may block before it re-checks worker
# health and per-task deadlines.
_POLL_SECONDS = 0.05


def _worker_main(fn: Callable, task_rx, result_tx, writer_slot: int | None = None) -> None:
    """The body of one warm worker process.

    Serves ``(task_id, payload)`` items from its private task pipe until
    the ``None`` shutdown sentinel (or pipe EOF) arrives, answering
    ``(task_id, value, error)`` on its private result pipe.

    ``writer_slot`` is the shared-state-store slot this process may
    append to (one slot per worker index, so slots are single-writer
    even across crash-respawn generations).
    """
    if writer_slot is not None:
        set_process_writer_slot(writer_slot)
    while True:
        try:
            item = task_rx.recv()
        except (EOFError, OSError):
            break
        if item is None:
            break
        task_id, payload = item
        try:
            value = fn(payload)
            message = (task_id, value, None)
        except BaseException as error:  # noqa: BLE001 - the worker must survive task failures
            message = (task_id, None, f"{type(error).__name__}: {error}")
        try:
            result_tx.send(message)
        except (BrokenPipeError, OSError):
            break  # the coordinator is gone


class _Worker:
    """One worker process plus its private pipes and dispatch state."""

    __slots__ = ("process", "task_tx", "result_rx", "current", "sent_at")

    def __init__(self, fn: Callable, mp_context, writer_slot: int | None = None) -> None:
        task_rx, self.task_tx = mp_context.Pipe(duplex=False)
        self.result_rx, result_tx = mp_context.Pipe(duplex=False)
        self.process = mp_context.Process(
            target=_worker_main, args=(fn, task_rx, result_tx, writer_slot), daemon=True
        )
        self.process.start()
        # The parent's copies of the child ends must be closed so the
        # result pipe reports EOF when the worker dies.
        task_rx.close()
        result_tx.close()
        self.current: tuple[int, Any] | None = None  # (task_id, payload) in flight
        self.sent_at = 0.0

    def assign(self, task: tuple[int, Any]) -> None:
        self.current = task
        self.sent_at = time.monotonic()
        self.task_tx.send(task)

    def discard(self) -> None:
        """Close pipes and reap the process (it must already be dead/stopping)."""
        for connection in (self.task_tx, self.result_rx):
            try:
                connection.close()
            except OSError:
                pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=1.0)


class ProcessWorkerContext:
    """One warm fork-based worker group bound to a single pure function.

    ``metrics=`` accepts a :class:`repro.obs.MetricsRegistry`; ``None``
    resolves to the process-wide registry at each :meth:`events` drain.
    All measurement is coordinator-side — dispatch latency from the
    assign timestamps the context already keeps, respawns from
    :meth:`ensure_alive`, timeouts from the expiry path — so nothing
    extra ever crosses the worker pipes.
    """

    kind = "process"

    def __init__(self, key: Any, fn: Callable, workers: int, mp_context, metrics=None) -> None:
        if workers < 1:
            raise WorkerPoolError("a worker context needs at least one worker")
        self.key = key
        self._fn = fn
        self._mp = mp_context
        self._metrics = metrics
        self._workers: list[_Worker] = []
        self._next_task_id = 0
        self._backlog: deque[tuple[int, Any]] = deque()  # submitted, not dispatched
        self._pending: dict[int, Any] = {}  # task_id -> payload (until done)
        self._pinned: dict[int, int] = {}  # task_id -> worker index (pinned tasks only)
        self._closed = False
        self.grow(workers)

    # -- worker lifecycle ------------------------------------------------------

    def grow(self, workers: int) -> None:
        """Ensure at least ``workers`` live workers (never shrinks)."""
        self.ensure_alive()
        while len(self._workers) < workers:
            # Writer slot = worker index + 1 (slot 0 is the coordinator),
            # so shared-store appends stay single-writer per slot.
            self._workers.append(
                _Worker(self._fn, self._mp, writer_slot=len(self._workers) + 1)
            )

    def ensure_alive(self) -> list[int]:
        """Replace dead workers; returns the pids that had died.

        A dead worker's in-flight task goes back to the front of the
        backlog, so a crash costs a re-execution, never a lost result.
        The replacement inherits the dead worker's index and therefore
        its shared-store writer slot: it re-attaches the same segment,
        recovers the committed cursor and overwrites any unpublished
        tail the crash left behind.
        """
        dead_pids = []
        for index, worker in enumerate(self._workers):
            if not worker.process.is_alive():
                dead_pids.append(worker.process.pid)
                if worker.current is not None and worker.current[0] in self._pending:
                    self._backlog.appendleft(worker.current)
                worker.discard()
                self._workers[index] = _Worker(self._fn, self._mp, writer_slot=index + 1)
        if dead_pids:
            resolve_metrics(self._metrics).counter("pool_respawns_total").inc(len(dead_pids))
        return dead_pids

    def healthy(self) -> bool:
        """Whether every worker of the context is currently alive."""
        return bool(self._workers) and all(
            worker.process.is_alive() for worker in self._workers
        )

    def pids(self) -> tuple[int, ...]:
        """The pids of the live workers (sorted, for reuse assertions)."""
        return tuple(
            sorted(worker.process.pid for worker in self._workers if worker.process.is_alive())
        )

    @property
    def size(self) -> int:
        """Number of worker processes."""
        return len(self._workers)

    # -- task execution --------------------------------------------------------

    def submit(self, payload: Any, worker: int | None = None) -> int:
        """Queue one task; returns its id (results arrive via :meth:`events`).

        ``worker`` pins the task to the worker of that index (modulo the
        context's size); unpinned tasks go to whichever worker is idle
        first.  A pinned task waits for its worker even while another
        idles, so its cost never depends on which worker drew it.
        """
        if self._closed:
            raise WorkerPoolError("cannot submit to a shut-down worker context")
        task_id = self._next_task_id
        self._next_task_id += 1
        self._pending[task_id] = payload
        if worker is not None:
            self._pinned[task_id] = worker % len(self._workers)
        self._backlog.append((task_id, payload))
        return task_id

    def reset(self) -> None:
        """Discard all outstanding bookkeeping (tasks, not workers).

        For consumers that take over a context another consumer may have
        abandoned mid-:meth:`events` (an error raised out of the event
        loop): queued tasks are dropped and results of still-running
        tasks will be filtered as stale on arrival, so the new
        consumer's results cannot be contaminated.  Task ids are never
        reused, which is what makes the stale filter sound.
        """
        self._backlog.clear()
        self._pending.clear()
        self._pinned.clear()

    def events(self, task_timeout: float | None = None) -> Iterator[tuple[int, Any, str | None]]:
        """Yield ``(task_id, value, error)`` for every outstanding task.

        Completion order is whatever the workers produce; callers that
        need determinism order by task id (the scheduler) or replay in
        discovery order (the sharded engine).  Crashed workers are
        respawned and their tasks re-run transparently; a task running
        longer than ``task_timeout`` seconds has its worker killed and is
        reported with a ``"timeout: ..."`` error instead.
        """
        registry = resolve_metrics(self._metrics)
        record = registry if registry.enabled else None
        while self._pending:
            self.ensure_alive()
            self._dispatch()
            timed_out = self._expire(task_timeout)
            if timed_out is not None:
                if record is not None:
                    record.counter("pool_tasks_total", outcome="timeout").inc()
                yield timed_out
                continue
            ready = connection_wait(
                [worker.result_rx for worker in self._workers], timeout=_POLL_SECONDS
            )
            for connection in ready:
                worker = next(w for w in self._workers if w.result_rx is connection)
                try:
                    task_id, value, error = connection.recv()
                except (EOFError, OSError):
                    continue  # worker died; the next ensure_alive() recovers its task
                worker.current = None
                if task_id in self._pending:
                    del self._pending[task_id]
                    self._pinned.pop(task_id, None)
                    if record is not None:
                        record.histogram("pool_dispatch_seconds").observe(
                            time.monotonic() - worker.sent_at
                        )
                        record.counter(
                            "pool_tasks_total", outcome="ok" if error is None else "error"
                        ).inc()
                    yield task_id, value, error

    def _dispatch(self) -> None:
        """Hand backlog tasks to idle workers, one in flight per worker.

        One-at-a-time dispatch keeps every pipe write paired with a
        worker blocked in ``recv``, so the coordinator never blocks
        sending while a worker blocks sending a large result back.  An
        idle worker takes the oldest task that is unpinned or pinned to
        it.
        """
        backlog = self._backlog
        if not backlog:
            return
        pinned = self._pinned
        for index, worker in enumerate(self._workers):
            if not backlog:
                break
            if worker.current is not None or not worker.process.is_alive():
                continue
            for position, task in enumerate(backlog):
                if pinned.get(task[0], index) == index:
                    break
            else:
                continue
            del backlog[position]
            try:
                worker.assign(task)
            except (BrokenPipeError, OSError):
                backlog.appendleft(task)
                worker.current = None

    def _expire(self, task_timeout: float | None) -> tuple[int, Any, str] | None:
        """Kill the worker of the first over-deadline task; report the timeout."""
        if task_timeout is None:
            return None
        now = time.monotonic()
        for worker in self._workers:
            if worker.current is None or now - worker.sent_at <= task_timeout:
                continue
            task_id, _ = worker.current
            pid = worker.process.pid
            worker.current = None  # do not resubmit: the task is being reported
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            if task_id in self._pending:
                del self._pending[task_id]
                self._pinned.pop(task_id, None)
                return task_id, None, f"timeout: exceeded {task_timeout}s on worker {pid}"
        return None

    def shutdown(self) -> None:
        """Stop and join every worker; the context cannot be reused."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.task_tx.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=1.0)
            worker.discard()
        self._workers.clear()
        self._backlog.clear()
        self._pending.clear()


class SerialWorkerContext:
    """Deterministic in-process stand-in for :class:`ProcessWorkerContext`.

    Tasks run inline, in submission order, when :meth:`events` is
    consumed.  ``task_timeout`` cannot preempt in-process execution and
    is ignored; errors are reported through the same ``(task_id, value,
    error)`` protocol.
    """

    kind = "serial"

    def __init__(self, key: Any, fn: Callable, metrics=None) -> None:
        self.key = key
        self._fn = fn
        self._metrics = metrics
        self._queue: deque[tuple[int, Any]] = deque()
        self._next_task_id = 0
        self._closed = False

    size = 1

    def grow(self, workers: int) -> None:
        """Nothing to grow in-process."""

    def ensure_alive(self) -> list[int]:
        """The in-process context cannot crash independently."""
        return []

    def healthy(self) -> bool:
        """Always healthy (same process)."""
        return True

    def pids(self) -> tuple[int, ...]:
        """The coordinator's own pid."""
        return (os.getpid(),)

    def submit(self, payload: Any, worker: int | None = None) -> int:
        """Queue one task (same contract as the process context's; ``worker`` is moot)."""
        # Same lifecycle contract as the process context, so misuse
        # surfaces identically on platforms without fork.
        if self._closed:
            raise WorkerPoolError("cannot submit to a shut-down worker context")
        task_id = self._next_task_id
        self._next_task_id += 1
        self._queue.append((task_id, payload))
        return task_id

    def reset(self) -> None:
        """Discard queued tasks (mirrors :meth:`ProcessWorkerContext.reset`)."""
        self._queue.clear()

    def events(self, task_timeout: float | None = None) -> Iterator[tuple[int, Any, str | None]]:
        """Run queued tasks inline, yielding ``(task_id, value, error)``.

        ``task_timeout`` cannot preempt in-process execution and is
        ignored (see the class docstring).
        """
        registry = resolve_metrics(self._metrics)
        record = registry if registry.enabled else None
        while self._queue:
            task_id, payload = self._queue.popleft()
            started = time.monotonic() if record is not None else 0.0
            try:
                value, error = self._fn(payload), None
            except Exception as failure:  # noqa: BLE001 - mirror the worker protocol
                value, error = None, f"{type(failure).__name__}: {failure}"
            if record is not None:
                record.histogram("pool_dispatch_seconds").observe(time.monotonic() - started)
                record.counter("pool_tasks_total", outcome="ok" if error is None else "error").inc()
            yield task_id, value, error

    def shutdown(self) -> None:
        """Refuse further submissions and drop queued tasks."""
        self._closed = True
        self._queue.clear()


def _expansion_fn(successors: Callable[[Any], Iterable], store_name: str | None = None) -> Callable:
    """The per-batch expansion function a pooled context executes.

    The function handles both traffic shapes, so one warm context can
    serve engines with shared interning on *and* off: classic batches
    (``(ref, state)`` entries) expand inline and return plain pairs;
    id-only batches (``(ref, shared_id, inline_state)`` entries, the
    state inline only where the slab could not hold it) resolve states
    through the shared store named at context creation, intern fresh
    targets into this worker's slot and return an
    :class:`~repro.search.shm_interning.EncodedExpansion` blob.
    """

    def expand_batch(batch: list):
        if not batch or len(batch[0]) == 2:
            return [(ref, list(successors(state))) for ref, state in batch]
        if store_name is None:
            raise WorkerPoolError("id-only expansion batch without a shared store")
        store = attached_store(store_name)
        results = []
        for ref, shared_id, state in batch:
            if shared_id is not None:
                state = store.get(shared_id)
            else:
                store.put(state)  # give the return trip an id for it too
            edges = list(successors(state))
            for edge in edges:
                store.put(edge.target)
            results.append((ref, edges))
        return EncodedExpansion(store.dumps(results))

    return expand_batch


class PooledExpansionBackend:
    """Adapter from a warm worker context to the sharded-engine backend API.

    Satisfies the same ``expand(frontiers, batch_size)`` / ``close()``
    protocol as :class:`~repro.search.sharded.SerialExpansionBackend`;
    engine- and node-owned fork workers are leases on a private pool
    (:func:`~repro.search.sharded.owned_expansion_backend`).  For
    contexts leased under a caller-provided semantic key, ``close()``
    merely releases the lease — the workers stay warm in
    their :class:`WorkerPool` for the next exploration; auto-keyed
    contexts (keyed by closure identity, unreachable once the backend is
    gone) are torn down on ``close()`` or garbage collection instead.
    """

    def __init__(self, context, release_finalizer=None, store=None) -> None:
        self._context = context
        # The engine reads shared_store to decide whether this backend
        # moves ids (a SharedStateStore leased with the context) or
        # pickled states (None).
        self.shared_store = store
        # A weakref.finalize releasing the pool lease: single-fire, so
        # close() and GC cannot double-release, and detached once run —
        # a later collection can never tear down a successor context
        # re-registered under the same (reused) key.
        self._finalizer = release_finalizer

    @property
    def name(self) -> str:
        """``"pooled"`` on warm processes, ``"pooled-serial"`` on the fallback."""
        return "pooled" if self._context.kind == "process" else "pooled-serial"

    def worker_pids(self) -> tuple[int, ...]:
        """Pids of the warm workers serving this backend."""
        return self._context.pids()

    def expand(self, frontiers, batch_size: int) -> dict:
        """Expand every queued state on the warm workers; ``{state_id: [edges]}``."""
        context = self._context
        context.reset()  # shed any bookkeeping an abandoned consumer left behind
        context.ensure_alive()
        # Each batch goes to the worker of the shard that took it: the
        # schedule is the same in every repetition of an exploration, so
        # a worker meets the same states again and finds them in its
        # decode cache, and neither it nor the coordinator encodes or
        # decodes them twice, whichever worker is idle first.
        for shard, batch in _drain_batches(frontiers, batch_size):
            context.submit(batch, worker=shard)
        expansions: dict = {}
        failure: str | None = None
        # Drain *every* event even when one errors: leaving tasks pending
        # would leak them into the next exploration through this context.
        for _, value, error in context.events():
            if error is not None:
                failure = failure or error
            elif failure is None:
                if isinstance(value, EncodedExpansion):
                    if self.shared_store is None:
                        raise WorkerPoolError(
                            "received an id-encoded expansion without a shared store"
                        )
                    value = self.shared_store.loads(value.payload)
                for state_id, edges in value:
                    expansions[state_id] = edges
        if failure is not None:
            raise WorkerPoolError(f"pooled successor expansion failed: {failure}")
        return expansions

    def close(self) -> None:
        """Release the lease (idempotent).

        For auto-keyed contexts this drops one lease — the context is
        torn down when the *last* backend sharing it closes; semantic
        contexts stay warm until :meth:`WorkerPool.release`/``shutdown``.
        """
        if self._finalizer is not None:
            self._finalizer()  # runs at most once, then stays detached


class WorkerPool:
    """A registry of warm worker contexts, keyed by what they compute.

    One pool instance typically lives for a whole experiment session.
    Explorations borrow expansion backends with
    :meth:`expansion_backend`; the sweep scheduler and isolated session
    queries borrow generic contexts with :meth:`context`.  Contexts are created on first use —
    forking then, so the workers inherit the context function and
    whatever it closes over — and reused on every later request with the
    same key.  **The key must determine the function's semantics**: two
    functions registered under one key are assumed interchangeable, and
    the workers keep executing the one they were forked with.

    Args:
        workers: default worker count per context
            (``DEFAULT_POOL_WORKERS`` when omitted).
        use_processes: force (``True``) or forbid (``False``) process
            workers; default auto — processes exactly where the ``fork``
            start method exists and more than one worker is requested.
        metrics: a :class:`repro.obs.MetricsRegistry` handed to every
            context this pool creates; ``None`` (the default) resolves
            to the process-wide registry per drain, so the pool is
            uninstrumented unless one was installed.
    """

    def __init__(
        self,
        workers: int | None = None,
        use_processes: bool | None = None,
        metrics=None,
    ) -> None:
        if workers is not None and workers < 1:
            raise WorkerPoolError("the default worker count must be positive")
        self._default_workers = workers or DEFAULT_POOL_WORKERS
        self._use_processes = use_processes
        self._metrics = metrics
        self._contexts: dict = {}
        self._leases: dict = {}  # auto-keyed context -> outstanding backend leases
        self._stores: dict = {}  # context key -> SharedStateStore (same lifetime)
        self._closed = False
        # Registry mutations (context creation/upgrade, lease counting,
        # release) are serialised so concurrent sessions may share one
        # pool; reentrant because release() runs under _release_lease's
        # hold, and a GC-triggered finalizer may fire mid-creation.
        self._registry_lock = threading.RLock()
        self._finalizer = weakref.finalize(self, _shutdown_pool, self._contexts, self._stores)

    def uses_processes(self, workers: int | None = None) -> bool:
        """Whether a context with ``workers`` workers would fork processes."""
        count = workers or self._default_workers
        if self._use_processes is False:
            return False
        if not process_backend_available():
            return False
        return count > 1 or self._use_processes is True

    def context(self, key: Any, fn: Callable, workers: int | None = None):
        """The warm context registered under ``key`` (created on first use).

        An existing context is grown (never shrunk) when more workers
        are requested than it currently has; a context first created as
        the in-process fallback is upgraded to process workers when a
        later request would fork (``fn`` must match the key's semantics,
        as always).
        """
        with self._registry_lock:
            if self._closed:
                raise WorkerPoolError("the worker pool has been shut down")
            count = workers or self._default_workers
            existing = self._contexts.get(key)
            if existing is not None:
                if not (isinstance(existing, SerialWorkerContext) and self.uses_processes(count)):
                    existing.grow(count)
                    return existing
                existing.shutdown()  # upgrade: replace the serial stand-in with real workers
            if self.uses_processes(count):
                import multiprocessing

                created = ProcessWorkerContext(
                    key, fn, count, multiprocessing.get_context("fork"), metrics=self._metrics
                )
            else:
                created = SerialWorkerContext(key, fn, metrics=self._metrics)
            self._contexts[key] = created
            return created

    def expansion_backend(
        self,
        successors: Callable[[Any], Iterable],
        *,
        key: Any = None,
        workers: int | None = None,
        shared_interning: bool | None = None,
    ) -> PooledExpansionBackend:
        """Borrow a warm expansion backend for ``successors``.

        Without an explicit ``key`` the context is keyed by the identity
        of the successor callable — warm while that closure's backend
        lives (an engine, an explorer) and torn down when the backend is
        closed or garbage collected, so anonymous leases cannot
        accumulate worker processes.  Pass a semantic key such as
        ``("recency", system_hash(system), bound)`` to share warmth
        across explorer instances over the same context instead;
        semantic contexts live until :meth:`release` or :meth:`shutdown`.

        ``shared_interning`` selects id-only expansion traffic through a
        :class:`~repro.search.shm_interning.SharedStateStore` leased
        with the context (default auto: on whenever the context forks
        worker processes and shared memory is available).  The store is
        created *with* the context — its segment name is baked into the
        forked workers — lives exactly as long as it, and is unlinked by
        :meth:`release`, :meth:`shutdown` or the lease protocol's last
        drop, so a warm context serves engines with the knob on and off
        alike.
        """
        auto = key is None
        context_key = ("expand", id(successors)) if auto else key
        with self._registry_lock:
            store = self._store_for(context_key, workers)
            backend = PooledExpansionBackend(
                self.context(
                    context_key,
                    _expansion_fn(successors, store.name if store is not None else None),
                    workers,
                ),
                store=store if shared_interning is not False else None,
            )
            if auto:
                # Auto contexts are lease-counted: several backends over the
                # same closure share one context, torn down when the last
                # lease is dropped (by close() or by garbage collection).
                self._leases[context_key] = self._leases.get(context_key, 0) + 1
                backend._finalizer = weakref.finalize(backend, self._release_lease, context_key)
        return backend

    def _store_for(self, context_key: Any, workers: int | None) -> SharedStateStore | None:
        """The shared state store living with ``context_key``'s context.

        Created eagerly whenever the context will fork processes (the
        segment name must exist before the fork bakes it into the
        workers); slab pages are allocated lazily by the kernel, so an
        unused store costs address space only.  ``None`` where processes
        or shared memory are unavailable.
        """
        count = workers or self._default_workers
        if not self.uses_processes(count) or not shared_memory_available():
            return None
        store = self._stores.get(context_key)
        if store is not None:
            return store
        # A store is only honoured when it was created *together with*
        # its context: a warm process context forked without a store has
        # store_name=None baked into its workers, so handing it a
        # late-created store would turn the graceful pickled fallback
        # into hard failures on id-only batches.
        existing = self._contexts.get(context_key)
        if existing is not None and not (
            isinstance(existing, SerialWorkerContext) and self.uses_processes(count)
        ):
            return None  # warm context without a store (or not upgrading): stay pickled
        # Slot 0 is the coordinator; headroom beyond the requested
        # worker count covers later grow() calls and crash-respawned
        # replacements (a worker whose index outruns the slots degrades
        # to read-only, which only costs inline traffic, never
        # correctness).
        slots = max(count, self._default_workers) + 3
        store = SharedStateStore.create(slots=slots)
        if store is not None:
            self._stores[context_key] = store
        return store

    def shared_store(self, key: Any) -> SharedStateStore | None:
        """The store leased with ``key``'s context, if any."""
        return self._stores.get(key)

    # -- health and lifecycle --------------------------------------------------

    def keys(self) -> tuple:
        """The keys of the currently warm contexts."""
        return tuple(self._contexts)

    def worker_pids(self, key: Any) -> tuple[int, ...]:
        """The live worker pids of the context registered under ``key``."""
        return self._context_of(key).pids()

    def health_check(self, key: Any) -> bool:
        """Whether every worker of ``key``'s context is alive (no respawn)."""
        return self._context_of(key).healthy()

    def ensure(self, key: Any) -> list[int]:
        """Respawn any dead worker of ``key``'s context; returns dead pids."""
        return self._context_of(key).ensure_alive()

    def release(self, key: Any) -> bool:
        """Tear down the context registered under ``key`` (if any).

        Unconditional — outstanding leases on an auto-keyed context are
        forfeited.  The context's shared state store (when one was
        leased with it) is unlinked after the workers stop.  Returns
        whether a context was released; tolerant of unknown keys.
        """
        with self._registry_lock:
            self._leases.pop(key, None)
            context = self._contexts.pop(key, None)
            store = self._stores.pop(key, None)
        if context is not None:
            context.shutdown()
        if store is not None:
            store.destroy()
        return context is not None

    def _release_lease(self, key: Any) -> None:
        """Drop one auto-key lease; tear the context down on the last one."""
        with self._registry_lock:
            outstanding = self._leases.get(key)
            if outstanding is None:
                return  # context already force-released or shut down
            if outstanding > 1:
                self._leases[key] = outstanding - 1
                return
        self.release(key)

    def _context_of(self, key: Any):
        context = self._contexts.get(key)
        if context is None:
            raise WorkerPoolError(f"no warm context registered under key {key!r}")
        return context

    def shutdown(self) -> None:
        """Stop every context's workers and unlink every leased segment;
        the pool cannot be reused."""
        self._closed = True
        self._finalizer.detach()
        _shutdown_pool(self._contexts, self._stores)

    def close(self) -> None:
        """Alias of :meth:`shutdown` (context-manager symmetry)."""
        self.shutdown()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _shutdown_pool(contexts: dict, stores: dict) -> None:
    """Best-effort teardown shared by ``shutdown()`` and the GC finalizer.

    Workers stop before their segments are unlinked, so no worker ever
    observes a vanished store mid-expansion.
    """
    while contexts:
        _, context = contexts.popitem()
        try:
            context.shutdown()
        except Exception:  # noqa: BLE001 - teardown must never raise
            pass
    while stores:
        _, store = stores.popitem()
        try:
            store.destroy()
        except Exception:  # noqa: BLE001 - teardown must never raise
            pass
