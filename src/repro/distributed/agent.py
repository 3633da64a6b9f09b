"""The node side of the two-level distributed exploration.

A :class:`NodeAgent` is a frame loop around one
:class:`~repro.search.sharded.Partition` — the node's share of the
exploration state: its **own** intern table (mirrored into a node-local
:class:`~repro.search.shm_interning.SharedStateStore` when the node
expands on worker processes), the partial
:class:`~repro.search.engine.SearchResult` of the hash-partition it owns,
and a node-local expansion backend
(:func:`~repro.search.sharded.owned_expansion_backend`: fork workers
leased from a private :class:`repro.runtime.WorkerPool`, or the serial
fallback) behind :class:`~repro.search.sharded.ShardFrontiers` stealing
across ``local_shards`` queues.  The coordinator never holds these
states; that is what moves the intern-table memory ceiling from one
machine to the cluster.

The agent serves the coordinator's frames in arrival order on its main
thread, answering each request with a frame of the same kind.  A small
**receiver thread** answers latency-sensitive frames — ``ping``
(heartbeat) and ``fetch`` (work-stealing state reads) — immediately,
even while the main thread is deep in an expansion, so a straggling
node can be health-checked and robbed of its tail without waiting for
its current batch.

Run an agent from the command line with::

    PYTHONPATH=src python -m repro.harness --agent --coordinator HOST:PORT

which blocks until the coordinator shuts the lease down or the
connection drops.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
from typing import Any, Callable, Iterable

from repro.distributed.transport import PROTOCOL_VERSION, Channel
from repro.errors import DistributedError
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.search.sharded import DEFAULT_BATCH_SIZE, Partition, owned_expansion_backend

__all__ = ["NodeAgent", "run_agent"]

# How long a freshly connected agent waits for its lease before giving
# up: generous, because an operator may start agents well before the
# coordinating experiment.
LEASE_TIMEOUT_SECONDS = 600.0


class NodeAgent:
    """One node process of a distributed exploration (see module docs).

    Args:
        channel: the framed connection to the coordinator.
        successors: the successor function, when the agent was forked by
            the localhost launcher (inherited closure).  Agents started
            independently pass ``None`` and receive a picklable
            :class:`~repro.distributed.context.ExplorationContext` in
            the lease instead.
    """

    def __init__(
        self, channel: Channel, successors: Callable[[Any], Iterable] | None = None
    ) -> None:
        self._channel = channel
        self._successors = successors
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._index = 0
        self._backend = None
        self._partition: Partition | None = None

    def serve(self) -> None:
        """Handshake, then serve coordinator frames until shutdown/EOF."""
        self._channel.send("hello", {"protocol": PROTOCOL_VERSION, "pid": os.getpid()})
        kind, data = self._channel.recv(timeout=LEASE_TIMEOUT_SECONDS)
        if kind != "lease":
            raise DistributedError(f"expected a lease, got {kind!r}")
        self._channel.send("lease", self._apply_lease(data))
        receiver = threading.Thread(target=self._receive_loop, daemon=True)
        receiver.start()
        try:
            while True:
                item = self._queue.get()
                if item is None:
                    break
                kind, data = item
                if kind == "shutdown":
                    self._channel.send("bye", {})
                    break
                try:
                    if kind == "lease":
                        reply = self._apply_lease(data)
                    else:
                        reply = self._partition.handle(kind, data)
                    self._channel.send(kind, reply)
                except Exception as error:  # noqa: BLE001 - report, let the coordinator decide
                    self._channel.send(
                        "error", {"message": f"{type(error).__name__}: {error}"}
                    )
        finally:
            self._close_backend()
            self._channel.close()

    def _receive_loop(self) -> None:
        """Read frames; answer ping/fetch inline, queue the rest in order.

        The receiver must never die silently: whatever kills it — the
        coordinator vanishing, or an unpicklable inbound frame (version
        skew) — the ``None`` sentinel unblocks the main loop so the
        agent process exits instead of hanging in ``queue.get()``.
        """
        try:
            while True:
                kind, data = self._channel.recv(timeout=None)
                if kind == "ping":
                    self._channel.send("pong", {})
                elif kind == "fetch":
                    # Stolen states are read by id from levels committed
                    # earlier, so the concurrent main thread never
                    # mutates the entries being read.
                    try:
                        table = self._partition.table
                        states = [table.state_of(i) for i in data["ids"]]
                    except Exception as error:  # noqa: BLE001 - report, stay alive
                        self._channel.send(
                            "error", {"message": f"fetch failed: {type(error).__name__}: {error}"}
                        )
                    else:
                        self._channel.send("states", {"states": states})
                else:
                    self._queue.put((kind, data))
                    if kind == "shutdown":
                        return
        except (DistributedError, OSError):
            pass  # coordinator is gone: a normal teardown
        except BaseException as error:  # noqa: BLE001 - e.g. unpickling version skew
            try:
                self._channel.send(
                    "error", {"message": f"receive failed: {type(error).__name__}: {error}"}
                )
            except (DistributedError, OSError):
                pass
        finally:
            self._queue.put(None)  # unblock the main loop unconditionally

    def _apply_lease(self, lease: dict) -> dict:
        """Bind the node index, successor function, backend and partition.

        A long-lived coordinator re-leases for each engine it serves
        (another system, bound or local configuration), so the previous
        backend and store are recycled first.
        """
        self._close_backend()
        self._index = lease["node"]
        context = lease.get("context")
        if context is not None:
            self._successors = context.successors()
        if self._successors is None:
            raise DistributedError(
                "the lease carried no exploration context and the agent was not "
                "forked with a successor function"
            )
        self._backend = owned_expansion_backend(
            self._successors, max(1, lease.get("local_workers", 1)), lease.get("shared_interning")
        )
        self._partition = Partition(
            self._backend,
            shards=max(1, lease.get("local_shards", 1)),
            batch_size=max(1, lease.get("batch_size", DEFAULT_BATCH_SIZE)),
            metrics=MetricsRegistry() if lease.get("metrics") else NULL_REGISTRY,
            detach=True,
        )
        return {"node": self._index}

    def _close_backend(self) -> None:
        backend, self._backend = self._backend, None
        if backend is not None:
            try:
                backend.close()
            except Exception:  # noqa: BLE001 - teardown must never raise
                pass


def run_agent(
    address: tuple[str, int], successors: Callable[[Any], Iterable] | None = None
) -> None:
    """Connect to a coordinator at ``address`` and serve until released.

    The entry point behind ``python -m repro.harness --agent`` and the
    localhost launcher's forked processes.
    """
    sock = socket.create_connection(address, timeout=LEASE_TIMEOUT_SECONDS)
    sock.settimeout(None)
    NodeAgent(Channel(sock), successors=successors).serve()
