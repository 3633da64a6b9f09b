"""The coordinator side of the two-level distributed exploration.

:class:`Coordinator` owns the TCP listener, the per-node
:class:`NodeHandle` channels and the context **lease**: after accepting
``hello`` handshakes it sends each agent one ``lease`` frame binding its
node index, local expansion configuration and (for agents that were not
forked with the successor closure) a picklable
:class:`~repro.distributed.context.ExplorationContext`.

:class:`DistributedEngine` drives the one partitioned level loop of
:mod:`repro.search.sharded` (:func:`~repro.search.sharded.run_levels`:
expand, walk, probe, commit) over a :class:`TcpTransport`: node ``i``
serves partition ``i``, so every intern table and partial result lives
on its node and the coordinator interns nothing but the root — which is
what lifts the single-machine memory ceiling (measured by
``BENCH_E17.json``).  Ownership is ``shard_of(state, nodes)`` evaluated
*only* in the coordinator process, so per-process hash randomisation
cannot split a state across nodes, and the merged result is
**bit-identical** to single-node, single-shard BFS for every node count,
retention mode and transport.

Health checks mirror the worker pool's: any frame refreshes a node's
``last_seen``, quiet nodes are pinged (agents answer from a receiver
thread even while expanding), and a node that misses the heartbeat
window — or whose socket closes, cleanly or mid-frame — raises
:class:`~repro.errors.NodeCrashError`, which the engine maps onto the
pool's crash-respawn semantics (respawn the agents, re-run the
exploration; successor functions are pure, so the retry is invisible).
"""

from __future__ import annotations

import socket
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.distributed.context import ExplorationContext
from repro.distributed.transport import PROTOCOL_VERSION, Channel
from repro.errors import DistributedError, NodeCrashError, SearchError
from repro.obs.metrics import resolve_metrics
from repro.search.engine import SearchResult
from repro.search.options import ExplorationOptions
from repro.search.sharded import DEFAULT_BATCH_SIZE, run_levels, search_partitions

__all__ = [
    "Coordinator",
    "DistributedEngine",
    "DistributedSummary",
    "NodeHandle",
    "TcpTransport",
]

# How often a quiet node is pinged, and how long it may stay silent
# before it is declared dead.  Agents answer pings from a dedicated
# receiver thread, so a healthy node's silence is bounded by round-trip
# time, not by expansion time.
PING_INTERVAL_SECONDS = 2.0
HEARTBEAT_TIMEOUT_SECONDS = 30.0

_POLL_SECONDS = 0.05
_ACCEPT_TIMEOUT_SECONDS = 120.0


class NodeHandle:
    """The coordinator's view of one connected node agent."""

    __slots__ = ("index", "channel", "pid", "process", "last_seen", "last_ping")

    def __init__(self, index: int, channel: Channel, pid: int) -> None:
        self.index = index
        self.channel = channel
        self.pid = pid
        self.process = None  # a launcher-owned multiprocessing.Process, when local
        self.last_seen = time.monotonic()
        self.last_ping = 0.0


class Coordinator:
    """Listener, handshakes, lease and health for a set of node agents.

    Create one directly (``Coordinator()`` binds an ephemeral loopback
    port) or with :meth:`listen` to both bind and wait for a fixed
    number of external agents — the shape the harness CLI uses.  The
    object is the ``transport=`` value callers hand to engines and
    explorers when their agents live outside the local launcher.
    """

    def __init__(self, address: tuple[str, int] = ("127.0.0.1", 0)) -> None:
        self._listener = socket.create_server(address)
        self._handles: list[NodeHandle] = []
        self.leased = False
        self.lease_state: tuple | None = None
        self._closed = False

    @classmethod
    def listen(
        cls,
        address: tuple[str, int],
        nodes: int,
        timeout: float = _ACCEPT_TIMEOUT_SECONDS,
    ) -> "Coordinator":
        """Bind ``address`` and block until ``nodes`` agents connected."""
        coordinator = cls(address)
        coordinator.accept_nodes(nodes, timeout=timeout)
        return coordinator

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — agents connect here."""
        name = self._listener.getsockname()
        return (name[0], name[1])

    @property
    def handles(self) -> list[NodeHandle]:
        """The connected node handles, in node-index order."""
        return self._handles

    @property
    def nodes(self) -> int:
        """Number of connected agents."""
        return len(self._handles)

    def accept_nodes(self, count: int, timeout: float = _ACCEPT_TIMEOUT_SECONDS) -> None:
        """Accept ``count`` agents and complete their ``hello`` handshakes."""
        if self._handles:
            raise DistributedError("agents were already accepted on this coordinator")
        deadline = time.monotonic() + timeout
        for index in range(count):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise NodeCrashError(
                    f"only {index} of {count} agents connected within {timeout:.0f}s"
                )
            self._listener.settimeout(remaining)
            try:
                sock, _ = self._listener.accept()
            except (TimeoutError, socket.timeout):
                raise NodeCrashError(
                    f"only {index} of {count} agents connected within {timeout:.0f}s"
                ) from None
            channel = Channel(sock)
            kind, data = channel.recv(timeout=min(remaining, 30.0))
            if kind != "hello" or data.get("protocol") != PROTOCOL_VERSION:
                channel.close()
                raise DistributedError(
                    f"agent handshake failed (got {kind!r}, protocol "
                    f"{data.get('protocol') if isinstance(data, dict) else data!r})"
                )
            self._handles.append(NodeHandle(index, channel, data.get("pid", -1)))

    def lease(self, config: dict, context: ExplorationContext | None = None) -> None:
        """Send every agent its lease (node index + config + context).

        ``context`` is ``None`` for fork-launched agents, which already
        inherited the successor closure; external agents require one.
        May be called again with a different config/context — agents
        recycle their expansion backend and rebind, so one long-lived
        coordinator can serve successive engines (each engine re-leases
        exactly when :attr:`lease_state` differs from what it needs).
        """
        TcpTransport(self, chunk_size=1).broadcast(
            "lease", lambda index: {**config, "node": index, "context": context}
        )
        self.leased = True
        self.lease_state = (tuple(sorted(config.items())), context)

    def close(self, shutdown_agents: bool = True) -> None:
        """Close the listener and every channel (idempotent).

        With ``shutdown_agents`` a best-effort ``shutdown`` frame is
        sent first so agents exit their serve loops promptly instead of
        waiting for EOF.
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            if shutdown_agents:
                try:
                    handle.channel.send("shutdown", {})
                except (DistributedError, OSError):
                    pass
            handle.channel.close()
        try:
            self._listener.close()
        except OSError:
            pass


@dataclass(frozen=True)
class DistributedSummary:
    """Counters of a distributed exploration, with no state collected.

    ``explore_summary`` leaves every intern table on its node and
    reports only sizes — the mode the E17 memory benchmark measures.

    Attributes:
        states: distinct states discovered cluster-wide.
        edges: edges generated (counted exactly as single-shard BFS).
        depth_reached: largest depth at which a state was visited.
        truncated: whether a limit cut the exploration short.
        coordinator_states: states resident in coordinator-side tables
            (the root only — the coordinator interns nothing else).
        node_states: per-node intern-table sizes, in node order.
    """

    states: int
    edges: int
    depth_reached: int
    truncated: bool
    coordinator_states: int
    node_states: tuple[int, ...]

    @property
    def max_node_states(self) -> int:
        """The largest single node table — the new per-process ceiling."""
        return max(self.node_states) if self.node_states else 0


class TcpTransport:
    """The level loop's transport over leased TCP node agents.

    Node ``i`` serves partition ``i`` of
    :func:`~repro.search.sharded.run_levels`.  :meth:`broadcast` awaits
    each node's reply frame of the request's kind, folding any ``metrics``
    snapshot in under a ``node=N`` label.  :meth:`expand` leases the
    level's refs out per owning node, one chunk at a time; an idle node
    steals the tail half of the fullest node's chunks, whose states are
    fetched from the straggler's receiver thread and re-sent inline.
    Every wait is health-checked (see the module docs).  On exiting its
    context the transport records the run's frame and byte traffic.
    """

    def __init__(
        self,
        coordinator: Coordinator,
        *,
        chunk_size: int,
        heartbeat_timeout: float = HEARTBEAT_TIMEOUT_SECONDS,
        record=None,
    ) -> None:
        self.count = coordinator.nodes
        self._handles = coordinator.handles
        self._chunk_size = chunk_size
        self._heartbeat_timeout = heartbeat_timeout
        self._record = record
        self._baseline = [_traffic(handle.channel) for handle in self._handles]
        for handle in self._handles:
            handle.last_seen = time.monotonic()  # silence counts from the start of the run

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._record is not None:
            for handle, before in zip(self._handles, self._baseline):
                _flush_traffic(self._record, handle.index, before, _traffic(handle.channel))

    def broadcast(self, kind: str, payload: Callable[[int], dict | None]) -> dict[int, Any]:
        """Send ``kind`` to every node whose payload is not ``None``; ``{index: reply}``."""
        pending = {}
        for handle in self._handles:
            data = payload(handle.index)
            if data is not None:
                handle.channel.send(kind, data)
                pending[handle.index] = handle
        replies: dict[int, Any] = {}
        while pending:
            for index, handle in list(pending.items()):
                frame = self._poll(handle)
                if frame is None:
                    self._check_health(handle)
                    continue
                reply_kind, data = frame
                if reply_kind == "pong":
                    continue
                if reply_kind == "error":
                    raise DistributedError(f"node {index}: {data['message']}")
                if reply_kind != kind:
                    raise DistributedError(f"node {index}: expected {kind!r}, got {reply_kind!r}")
                replies[index] = data
                del pending[index]
        if self._record is not None:
            for index in sorted(replies):
                self._record.fold(replies[index].get("metrics"), node=str(index))
        return replies

    def expand(self, level: list[tuple[int, int]]) -> dict:
        """Expand one level across the nodes; ``{ref: [edges]}`` for every ref."""
        handles = self._handles
        own: dict[int, deque] = {handle.index: deque() for handle in handles}
        grouped: dict[int, list] = {handle.index: [] for handle in handles}
        for ref in level:
            grouped[ref[0]].append(ref)
        for index, refs in grouped.items():
            for start in range(0, len(refs), self._chunk_size):
                own[index].append(refs[start : start + self._chunk_size])
        total = sum(len(queue) for queue in own.values())
        ready: dict[int, deque] = {handle.index: deque() for handle in handles}
        expanding: set[int] = set()
        fetching: dict[int, tuple[int, list]] = {}  # victim -> (thief, stolen chunks)
        expansions: dict = {}
        done = 0
        while done < total:
            for handle in handles:
                index = handle.index
                if index in expanding:
                    continue
                entries = None
                if ready[index]:
                    entries = ready[index].popleft()
                elif own[index]:
                    entries = [(ref, ref[1], None) for ref in own[index].popleft()]
                else:
                    self._try_steal(index, own, fetching)
                if entries is not None:
                    handle.channel.send("expand", {"entries": entries})
                    expanding.add(index)
            for handle in handles:
                # Busy nodes get a blocking poll slice; idle ones a
                # non-blocking drain, so their pongs keep them healthy.
                busy = handle.index in expanding or handle.index in fetching
                while True:
                    frame = self._poll(handle, timeout=_POLL_SECONDS if busy else 0.0)
                    if frame is None:
                        break
                    kind, data = frame
                    if kind == "pong":
                        continue
                    if kind == "error":
                        raise DistributedError(f"node {handle.index}: {data['message']}")
                    if kind == "expand" and handle.index in expanding:
                        expansions.update(data["results"])
                        expanding.discard(handle.index)
                        done += 1
                        break
                    if kind == "states" and handle.index in fetching:
                        thief, chunks = fetching.pop(handle.index)
                        states = iter(data["states"])
                        for chunk in chunks:
                            ready[thief].append([(ref, None, next(states)) for ref in chunk])
                        continue  # an expansion reply may still be queued behind
                    raise DistributedError(
                        f"node {handle.index}: unexpected {kind!r} during expansion"
                    )
                self._check_health(handle)
        return expansions

    def _try_steal(
        self, thief: int, own: dict[int, deque], fetching: dict[int, tuple[int, list]]
    ) -> None:
        """Rob the fullest node of the tail half of its unexpanded chunks."""
        if any(fetched_for == thief for fetched_for, _ in fetching.values()):
            return  # one outstanding steal per thief
        victim = None
        for index, queue in own.items():
            if index == thief or index in fetching or not queue:
                continue
            if victim is None or len(queue) > len(own[victim]):
                victim = index
        if victim is None or len(own[victim]) < 2:
            return  # nothing worth stealing: the victim keeps its last chunk
        count = len(own[victim]) // 2
        stolen = [own[victim].pop() for _ in range(count)]
        stolen.reverse()  # keep the tail segment in level order
        ids = [ref[1] for chunk in stolen for ref in chunk]
        self._handles[victim].channel.send("fetch", {"ids": ids})
        fetching[victim] = (thief, stolen)
        if self._record is not None:
            self._record.counter("dist_steals_total").inc()

    def _poll(self, handle: NodeHandle, timeout: float = _POLL_SECONDS) -> tuple[str, Any] | None:
        """One frame from ``handle`` within a poll slice, annotated on crash."""
        try:
            frame = handle.channel.try_recv(timeout)
        except NodeCrashError as error:
            raise NodeCrashError(f"node {handle.index} (pid {handle.pid}): {error}") from error
        if frame is not None:
            handle.last_seen = time.monotonic()
            if frame[0] == "pong" and handle.last_ping:
                if self._record is not None:
                    self._record.histogram("dist_heartbeat_seconds").observe(
                        handle.last_seen - handle.last_ping
                    )
                handle.last_ping = 0.0
        return frame

    def _check_health(self, handle: NodeHandle) -> None:
        """Ping a quiet node; declare it dead past the heartbeat window."""
        now = time.monotonic()
        quiet = now - handle.last_seen
        if quiet > self._heartbeat_timeout:
            raise NodeCrashError(
                f"node {handle.index} (pid {handle.pid}) missed heartbeats for "
                f"{quiet:.1f}s"
            )
        if handle.process is not None and not handle.process.is_alive():
            raise NodeCrashError(f"node {handle.index} (pid {handle.pid}) process died")
        if quiet > PING_INTERVAL_SECONDS and now - handle.last_ping > PING_INTERVAL_SECONDS:
            handle.last_ping = now
            handle.channel.send("ping", {})


class DistributedEngine:
    """Two-level distributed BFS over TCP node agents (see module docs).

    Drop-in for :class:`~repro.search.sharded.ShardedEngine` semantics:
    :meth:`explore` and :meth:`search` return results bit-identical to
    the single-shard engine's, while intern tables and expansion run on
    ``options.nodes`` agent processes.  Normally reached through a
    ``ShardedEngine`` whose options ask for ``nodes > 1`` (and
    everything layered on it) rather than instantiated directly.

    Args:
        successors: deterministic, pure successor function (as for the
            sharded engine).  With the default localhost transport the
            agents inherit it through fork; with an external
            :class:`Coordinator` a picklable ``context`` must describe
            it instead.
        options: the :class:`~repro.search.options.ExplorationOptions`
            of every exploration: limits, retention, the strategy (must
            be ``"bfs"`` — the scheme is level-synchronous) and the
            shape.  ``nodes`` agents each own one hash partition;
            ``shards``, ``workers`` and ``shared_interning`` are each
            node's *local* shard queues, expansion processes and
            id-only traffic knob (``None`` = auto, exactly as
            node-locally sharded engines decide it); ``transport`` is
            ``None``/``"tcp"`` to fork a localhost cluster owned by the
            engine, or a :class:`Coordinator` with accepted agents that
            is borrowed and left running on :meth:`close`.
        batch_size: states per expansion task, as for the sharded engine.
        context: picklable successor recipe for external agents.
        retries: how many times a crashed exploration is re-run on a
            respawned local cluster before the crash propagates.
        heartbeat_timeout: seconds of node silence tolerated before a
            crash is declared.
        metrics: a :class:`repro.obs.MetricsRegistry`; ``None`` (the
            default) resolves to the process-wide registry per run.
            When enabled, the lease asks each agent to keep a local
            registry whose snapshot rides back on the collect/summarize
            reply and is folded in with a ``node=N`` label; the
            coordinator itself records the level loop's counters,
            frame/byte traffic, heartbeat round-trips, lease and steal
            events.
    """

    def __init__(
        self,
        successors: Callable[[Any], Iterable],
        options: ExplorationOptions,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        context: ExplorationContext | None = None,
        retries: int = 1,
        heartbeat_timeout: float = HEARTBEAT_TIMEOUT_SECONDS,
        metrics=None,
    ) -> None:
        if options.strategy != "bfs":
            raise SearchError(
                "distributed exploration is level-synchronous and supports only the "
                f"'bfs' strategy (got {options.strategy!r})"
            )
        self._successors = successors
        self.options = options
        self._batch_size = max(1, batch_size)
        self._context = context
        self._retries = retries
        self._heartbeat_timeout = heartbeat_timeout
        self._metrics = metrics
        self._launcher = None
        self._coordinator: Coordinator | None = None
        self._finalizer = None

    # -- cluster lifecycle -------------------------------------------------------

    def _lease_config(self) -> dict:
        options = self.options
        return {
            "nodes": options.nodes,
            "local_shards": options.shards,
            "local_workers": options.workers,
            "batch_size": self._batch_size,
            "shared_interning": options.shared_interning,
            "metrics": resolve_metrics(self._metrics).enabled,
        }

    def _ensure_cluster(self) -> Coordinator:
        """The leased coordinator, launching a localhost cluster on first use."""
        nodes, transport = self.options.nodes, self.options.transport
        if self._coordinator is None:
            if isinstance(transport, Coordinator):
                self._coordinator = transport
            elif transport in (None, "tcp"):
                from repro.distributed.launcher import LocalCluster

                self._launcher = LocalCluster(nodes, self._successors)
                self._coordinator = self._launcher.coordinator
                self._finalizer = weakref.finalize(self, _close_launcher, self._launcher)
            else:
                raise SearchError(
                    f"unknown distributed transport {transport!r}; expected None, "
                    "'tcp' or a Coordinator"
                )
        if self._coordinator.nodes != nodes:
            raise DistributedError(
                f"the coordinator has {self._coordinator.nodes} agents but the engine "
                f"was configured for {nodes} nodes"
            )
        context = self._context
        if self._launcher is None and context is None:
            # External agents cannot inherit the closure; try the
            # picklable wrapper and let pickling errors surface with
            # a pointer at the context mechanism.
            from repro.distributed.context import CallableContext

            context = CallableContext(self._successors)
        if self._launcher is not None:
            context = None  # fork-launched agents inherited the closure
        config = self._lease_config()
        desired = (tuple(sorted(config.items())), context)
        # Re-lease whenever this engine's context or local config is not
        # what the agents currently hold — a shared external coordinator
        # may have been leased by a different engine (or sweep point)
        # since, and serving a stale successor function would be wrong,
        # not just slow.
        if not self._coordinator.leased or self._coordinator.lease_state != desired:
            self._coordinator.lease(config, context=context)
            registry = resolve_metrics(self._metrics)
            if registry.enabled:
                registry.counter("dist_leases_total").inc()
        return self._coordinator

    def close(self) -> None:
        """Release the cluster (idempotent).

        An engine-owned localhost cluster is shut down; a borrowed
        :class:`Coordinator` is left connected for its owner.
        """
        launcher, self._launcher = self._launcher, None
        self._coordinator = None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if launcher is not None:
            launcher.close()

    def __enter__(self) -> "DistributedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _on_nodes(self, work: Callable[[TcpTransport, Any], Any]) -> Any:
        """Run ``work(transport, record)`` on the leased cluster, recovering crashes.

        A crashed exploration is re-run on a respawned local cluster:
        this is the pool's crash-respawn contract lifted to node
        granularity — a node's intern table dies with it, so the finest
        sound re-execution unit is the whole exploration, which is pure
        and therefore repeats bit-identically.
        """
        attempt = 0
        while True:
            coordinator = self._ensure_cluster()
            registry = resolve_metrics(self._metrics)
            record = registry if registry.enabled else None
            try:
                with TcpTransport(
                    coordinator,
                    chunk_size=self._batch_size * self.options.workers,
                    heartbeat_timeout=self._heartbeat_timeout,
                    record=record,
                ) as transport:
                    return work(transport, record)
            except NodeCrashError:
                attempt += 1
                if self._launcher is None or attempt > self._retries:
                    raise
                self._launcher.restart()
                self._coordinator = self._launcher.coordinator

    # -- public entry points -----------------------------------------------------

    def explore(
        self,
        initial: Any,
        on_state: Callable[[Any, int], None] | None = None,
    ) -> SearchResult:
        """Explore every reachable state within the limits (merged result).

        ``on_state`` fires in global discovery order, exactly as under
        the single-shard engine.
        """
        return self.search(initial, None, on_state=on_state)[1]

    def search(
        self,
        initial: Any,
        predicate: Callable[[Any], bool] | None,
        on_state: Callable[[Any, int], None] | None = None,
    ) -> tuple[list | None, SearchResult]:
        """Search for a state satisfying ``predicate`` (``None``: just explore).

        Same contract as :meth:`ShardedEngine.search
        <repro.search.sharded.ShardedEngine.search>`: the witness is the
        one single-shard BFS finds, reconstructed from the merged parent
        map.  ``on_state`` fires coordinator-side in global discovery
        order for each newly interned state.
        """
        return self._on_nodes(
            lambda transport, record: search_partitions(
                transport, initial, self.options,
                predicate=predicate, on_state=on_state, record=record,
            )
        )

    def explore_summary(self, initial: Any) -> DistributedSummary:
        """Explore, but leave every state on its node and return counters.

        The memory-mode entry point: node tables are never collected, so
        the coordinator's resident interned states stay at the root.
        """

        def summarize(transport: TcpTransport, record) -> DistributedSummary:
            run = run_levels(transport, initial, self.options, record=record)
            replies = transport.broadcast("summarize", lambda index: {})
            return DistributedSummary(
                states=run.states,
                edges=run.edges,
                depth_reached=run.depth_reached,
                truncated=run.truncated,
                coordinator_states=1,  # the pinned root; nothing else is coordinator-resident
                node_states=tuple(replies[index]["states"] for index in sorted(replies)),
            )

        return self._on_nodes(summarize)


def _traffic(channel: Channel) -> tuple[int, int, int, int]:
    """The channel's cumulative (frames out, bytes out, frames in, bytes in)."""
    return (
        channel.frames_sent,
        channel.bytes_sent,
        channel.frames_received,
        channel.bytes_received,
    )


def _flush_traffic(
    record, node: int, before: tuple[int, int, int, int], after: tuple[int, int, int, int]
) -> None:
    """Record one run's frame/byte deltas for one node channel."""
    names = ("dist_frames_total", "dist_bytes_total") * 2
    directions = ("sent", "sent", "received", "received")
    for name, direction, old, new in zip(names, directions, before, after):
        record.counter(name, direction=direction, node=str(node)).inc(new - old)


def _close_launcher(launcher) -> None:
    """GC backstop for engines dropped without :meth:`DistributedEngine.close`."""
    try:
        launcher.close()
    except Exception:  # noqa: BLE001 - finalizers must never raise
        pass
