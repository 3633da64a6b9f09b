"""Localhost multi-process launcher for CI and single-machine runs.

A :class:`LocalCluster` binds a coordinator on an ephemeral loopback
port, forks ``nodes`` agent processes that connect back to it over
**real TCP sockets**, and completes the hello handshakes — so CI (and
the default transport of ``ExplorationOptions(nodes=...)`` on every
entry point) exercises the genuine wire protocol, framing, heartbeats
and frontier exchange without a cluster.  The agents inherit the
successor closure through fork, exactly like pool workers, so no
context needs to pickle.

The cluster maps node death onto the worker pool's crash-respawn
semantics at node granularity: :meth:`restart` tears everything down and
brings up a fresh coordinator plus fresh agents, and the engine re-runs
the (pure, deterministic) exploration on them.  Closing the cluster
closes every socket; an agent whose coordinator vanishes sees EOF and
exits on its own, so leaked agent processes cannot outlive a crashed
coordinator either.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, Iterable

from repro.distributed.agent import run_agent
from repro.distributed.coordinator import Coordinator
from repro.errors import DistributedError
from repro.search.sharded import process_backend_available

__all__ = ["LocalCluster"]

_START_TIMEOUT_SECONDS = 60.0


def _agent_main(address: tuple[str, int], successors) -> None:
    """Body of one forked localhost agent process."""
    try:
        run_agent(address, successors)
    except DistributedError:
        pass  # the coordinator went away first: a normal teardown race


class LocalCluster:
    """A coordinator plus ``nodes`` forked localhost agents (see module docs).

    Args:
        nodes: number of agent processes to fork.
        successors: the successor function the agents inherit.
        address: the ``(host, port)`` to bind — port 0 (the default)
            picks an ephemeral loopback port.

    The cluster is a context manager; :meth:`close` shuts the agents
    down and joins them.  It raises :class:`DistributedError` where the
    ``fork`` start method is unavailable — callers decide whether to
    fall back to a single-node exploration.
    """

    def __init__(
        self,
        nodes: int,
        successors: Callable[[Any], Iterable],
        *,
        address: tuple[str, int] = ("127.0.0.1", 0),
    ) -> None:
        if nodes < 1:
            raise DistributedError("a local cluster needs at least one node")
        if not process_backend_available():
            raise DistributedError(
                "the localhost cluster launcher requires the 'fork' start method"
            )
        self._nodes = nodes
        self._successors = successors
        self._address = address
        self._processes: list = []
        self.coordinator: Coordinator | None = None
        self._start()

    def _start(self) -> None:
        coordinator = Coordinator(self._address)
        context = multiprocessing.get_context("fork")
        processes = []
        try:
            for _ in range(self._nodes):
                # Agents are deliberately *not* daemonic: their own
                # node-local expansion may fork worker processes.
                process = context.Process(
                    target=_agent_main,
                    args=(coordinator.address, self._successors),
                    daemon=False,
                )
                process.start()
                processes.append(process)
            coordinator.accept_nodes(self._nodes, timeout=_START_TIMEOUT_SECONDS)
        except BaseException:
            for process in processes:
                if process.is_alive():
                    process.terminate()
            coordinator.close(shutdown_agents=False)
            raise
        by_pid = {process.pid: process for process in processes}
        for handle in coordinator.handles:
            handle.process = by_pid.get(handle.pid)
        self._processes = processes
        self.coordinator = coordinator

    @property
    def nodes(self) -> int:
        """Number of agent processes."""
        return self._nodes

    def agent_pids(self) -> tuple[int, ...]:
        """The pids of the live agent processes (sorted)."""
        return tuple(
            sorted(process.pid for process in self._processes if process.is_alive())
        )

    def restart(self) -> None:
        """Respawn the whole cluster (fresh coordinator, fresh agents).

        A node's intern table dies with its process, so the respawn
        granularity is the cluster; the engine then re-runs its (pure)
        exploration and gets the identical result.
        """
        self.close()
        self._start()

    def close(self) -> None:
        """Shut the agents down and join them (idempotent)."""
        coordinator, self.coordinator = self.coordinator, None
        if coordinator is not None:
            coordinator.close(shutdown_agents=True)
        processes, self._processes = self._processes, []
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
