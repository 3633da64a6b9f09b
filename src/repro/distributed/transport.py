"""Length-prefixed frame transport for the coordinator/agent protocol.

One frame is a 4-byte little-endian payload length followed by a pickled
``(kind, data)`` pair — ``kind`` is a short message-type string, ``data``
an arbitrary picklable payload.  The framing is symmetric: both the
coordinator and the node agents speak it over ordinary TCP sockets (the
``PROTOCOL_VERSION`` is checked once in the ``hello``/``lease``
handshake, not per frame).

Failure semantics are strict and explicit:

* a cleanly closed socket with an **empty** receive buffer raises
  :class:`~repro.errors.NodeCrashError` ("connection closed") — the peer
  is gone;
* a socket closed **mid-frame** (a torn frame: the length prefix or the
  payload arrived partially) also raises :class:`NodeCrashError`, with
  the torn byte counts — frames are all-or-nothing, a half-read frame is
  never delivered and never resynchronised;
* a frame longer than :data:`MAX_FRAME_BYTES` raises
  :class:`~repro.errors.DistributedError` before any allocation — a
  corrupted length prefix cannot make the receiver allocate gigabytes.

:class:`Channel` buffers partial reads across :meth:`Channel.try_recv`
timeouts, so polling with short timeouts (the coordinator's dispatch
loop) never drops bytes.  Sends are serialised by a lock so an agent's
receiver thread (ping/fetch replies) and main loop can share one socket.

The payload is ``pickle`` — the transport authenticates nothing and must
only ever be pointed at trusted peers on a trusted network (the same
trust model as ``multiprocessing``'s own connection machinery).
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import time
from typing import Any

from repro.errors import DistributedError, NodeCrashError

__all__ = [
    "Channel",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
]

# 3: database instances pickle as their {relation: rows} index.
PROTOCOL_VERSION = 3

# A corrupt length prefix must not trigger a huge allocation; real level
# frames on the case studies are a few MB at most.
MAX_FRAME_BYTES = 1 << 30

_LEN = struct.Struct("<I")
_CHUNK = 1 << 16


class Channel:
    """One framed, buffered, thread-safe-for-send view of a socket.

    Receiving is single-consumer: exactly one thread may call
    :meth:`recv`/:meth:`try_recv` (the coordinator's dispatch loop, or
    the agent's receiver thread).  Sending may happen from several
    threads — every frame is written under a lock in one ``sendall``.

    The channel keeps cumulative traffic counters (``frames_sent``,
    ``frames_received``, ``bytes_sent``, ``bytes_received`` — plain
    integer adds on paths that already pickle or copy the payload); the
    coordinator flushes their deltas into the metrics registry at the
    end of each distributed run.
    """

    def __init__(self, sock: socket.socket) -> None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (tests drive Channels over socketpairs)
        self._sock = sock
        self._buffer = bytearray()
        self._send_lock = threading.Lock()
        self._closed = False
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, kind: str, data: Any = None) -> None:
        """Write one ``(kind, data)`` frame (atomic under the send lock)."""
        payload = pickle.dumps((kind, data), protocol=pickle.HIGHEST_PROTOCOL)
        if len(payload) > MAX_FRAME_BYTES:
            raise DistributedError(
                f"refusing to send a {len(payload)}-byte frame (kind {kind!r}); "
                f"the frame limit is {MAX_FRAME_BYTES} bytes"
            )
        frame = _LEN.pack(len(payload)) + payload
        try:
            with self._send_lock:
                self._sock.sendall(frame)
                self.frames_sent += 1
                self.bytes_sent += len(frame)
        except OSError as error:
            raise NodeCrashError(f"peer went away while sending {kind!r}: {error}") from error

    def try_recv(self, timeout: float) -> tuple[str, Any] | None:
        """One frame, or ``None`` when ``timeout`` elapses first.

        Partial reads are kept in the channel buffer across calls, so a
        timeout never tears a frame; only a *closed* socket mid-frame
        does, and that raises.  A ``timeout`` of zero is a non-blocking
        drain: whatever the kernel already buffered is read, nothing is
        waited for.
        """
        deadline = time.monotonic() + timeout
        while True:
            frame = self._extract()
            if frame is not None:
                return frame
            remaining = deadline - time.monotonic()
            if remaining <= 0 and timeout > 0:
                return None
            try:
                self._sock.settimeout(max(remaining, 0.0))
                chunk = self._sock.recv(_CHUNK)
            except (BlockingIOError, InterruptedError, TimeoutError, socket.timeout):
                return None
            except OSError as error:
                raise NodeCrashError(f"peer socket failed: {error}") from error
            if not chunk:
                if self._buffer:
                    raise NodeCrashError(
                        f"connection closed mid-frame ({len(self._buffer)} bytes of a "
                        "torn frame discarded)"
                    )
                raise NodeCrashError("connection closed")
            self._buffer.extend(chunk)

    def recv(self, timeout: float | None = None) -> tuple[str, Any]:
        """One frame, blocking up to ``timeout`` seconds (``None`` = forever)."""
        if timeout is None:
            while True:
                frame = self.try_recv(60.0)
                if frame is not None:
                    return frame
        frame = self.try_recv(timeout)
        if frame is None:
            raise NodeCrashError(f"no frame within {timeout:.1f}s")
        return frame

    def _extract(self) -> tuple[str, Any] | None:
        """Decode one complete frame from the buffer, if present."""
        if len(self._buffer) < _LEN.size:
            return None
        (length,) = _LEN.unpack_from(self._buffer, 0)
        if length > MAX_FRAME_BYTES:
            raise DistributedError(
                f"incoming frame claims {length} bytes (limit {MAX_FRAME_BYTES}); "
                "stream is corrupt"
            )
        if len(self._buffer) < _LEN.size + length:
            return None
        payload = bytes(self._buffer[_LEN.size : _LEN.size + length])
        del self._buffer[: _LEN.size + length]
        self.frames_received += 1
        self.bytes_received += _LEN.size + length
        frame = pickle.loads(payload)
        if not (isinstance(frame, tuple) and len(frame) == 2 and isinstance(frame[0], str)):
            raise DistributedError("malformed frame: expected a (kind, data) pair")
        return frame

    def close(self) -> None:
        """Close the underlying socket (idempotent, never raises)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
