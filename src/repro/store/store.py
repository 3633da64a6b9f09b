"""The content-addressed result store: SQLite index + on-disk blobs.

Layout (everything under one root directory)::

    <root>/index.sqlite          -- the entry index (one row per key)
    <root>/blobs/<key>.pkl       -- one pickle blob per entry

The index row records what each blob *is* — its kind (``result`` or
``subgraph``), the family (system display name), the canonical hashes
(system, schema, exploration base) and the canonical key parameters —
while the blob holds the pickled payload itself.  Keys are sha256
digests of canonical parameter assignments (:mod:`repro.store.canonical`),
so a lookup is one indexed ``SELECT`` plus one file read: repeat
queries are served in O(lookup), independent of exploration cost.

Self-repair: a stale index row whose blob is missing, or a blob that no
longer unpickles (corrupt, truncated, written by an incompatible
version), is treated as a **miss** — the row and blob are deleted and
the caller simply recomputes and re-saves.  Blobs are written to a
temporary file and atomically renamed, so a killed writer can leave a
stale temp file at worst, never a half-written blob under a live key.

Concurrency: the store is safe to share across forked sweep workers.
Connections are opened lazily **per process** (a
:class:`ResultStore` pickles/forks as a plain path holder), SQLite
serialises writers with a generous busy timeout (the index runs in
write-ahead-log mode, so its ``-wal``/``-shm`` files sit next to it
while a connection is open), and last-writer-wins
semantics are correct here because two writers racing on one key are by
construction writing the same content.

Invalidation: :meth:`ResultStore.invalidate_schema_change` prunes every
entry of a family whose schema hash differs from the current one —
changing a system's schema orphans its old explorations wholesale.  An
*action-set* change needs no invalidation: old entries keep their own
content addresses (still correct for the old system), and old subgraphs
remain useful as delta-verification bases (:mod:`repro.store.capture`)
because eligibility is checked per action hash, not per system.
"""

from __future__ import annotations

import os
import pickle
import sqlite3
import time
from pathlib import Path

from repro.errors import StoreError
from repro.obs.metrics import resolve_metrics

__all__ = ["KIND_RESULT", "KIND_SUBGRAPH", "ResultStore"]

KIND_RESULT = "result"
KIND_SUBGRAPH = "subgraph"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    key TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    family TEXT NOT NULL,
    system_hash TEXT NOT NULL,
    schema_hash TEXT NOT NULL,
    base_hash TEXT NOT NULL,
    graph TEXT NOT NULL,
    parameters TEXT NOT NULL,
    blob TEXT NOT NULL,
    size INTEGER NOT NULL,
    created REAL NOT NULL,
    hits INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS entries_delta
    ON entries (kind, graph, base_hash, created);
CREATE INDEX IF NOT EXISTS entries_family
    ON entries (family, schema_hash);
"""


#: Seconds a connection waits for another process's lock.
_BUSY_TIMEOUT = 30.0


def _enable_wal(connection: sqlite3.Connection) -> None:
    """Switch the index to write-ahead logging, waiting out other writers.

    The mode is kept in the file, so only the first opening of a fresh
    index switches it.  That switch needs the file to itself, and SQLite
    reports a lock held by another connection at once instead of calling
    the busy handler, so it is retried here within the busy timeout.
    """
    deadline = time.monotonic() + _BUSY_TIMEOUT
    while True:
        try:
            connection.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as error:
            if "locked" not in str(error) or time.monotonic() >= deadline:
                raise
            time.sleep(0.005)


class ResultStore:
    """A content-addressed store of exploration results and subgraphs.

    Args:
        root: the store directory (created on first use).

    Instances hold no open resources until used and survive ``fork``
    and pickling: the SQLite connection is opened lazily per process.

    Besides the persistent per-entry hit counts in the index, the store
    keeps **session counters** — per-kind hits/misses/saves and
    self-repairs since this instance (in this process) was created —
    surfaced by :meth:`stats` under ``"session"`` and mirrored into the
    process-wide metrics registry as ``store_lookups_total``,
    ``store_saves_total`` and ``store_repairs_total``.  Pickling resets
    them, and a forked worker counts in its own copy: its parent folds
    the worker's counts in with :meth:`absorb_session`.
    """

    def __init__(self, root: str | Path) -> None:
        self._root = Path(root)
        self._connections: dict[int, sqlite3.Connection] = {}
        self.reset_session()

    def reset_session(self) -> None:
        """Zero the session counters."""
        self._session_hits: dict[str, int] = {}
        self._session_misses: dict[str, int] = {}
        self._session_saves: dict[str, int] = {}
        self._session_repairs = 0

    def session(self) -> dict:
        """A copy of the session counters: per-kind hits, misses and saves, and repairs."""
        return {
            "hits": dict(self._session_hits),
            "misses": dict(self._session_misses),
            "saves": dict(self._session_saves),
            "repairs": self._session_repairs,
        }

    def absorb_session(self, session: dict) -> None:
        """Add counters another process's copy of this store collected (:meth:`session`)."""
        for name, totals in (
            ("hits", self._session_hits),
            ("misses", self._session_misses),
            ("saves", self._session_saves),
        ):
            for kind, count in session[name].items():
                totals[kind] = totals.get(kind, 0) + count
        self._session_repairs += session["repairs"]

    def __getstate__(self) -> dict:
        return {"root": str(self._root)}

    def __setstate__(self, state: dict) -> None:
        self._root = Path(state["root"])
        self._connections = {}
        self.reset_session()

    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self._root

    @property
    def blob_directory(self) -> Path:
        """The directory holding the pickle blobs."""
        return self._root / "blobs"

    def _connection(self) -> sqlite3.Connection:
        pid = os.getpid()
        connection = self._connections.get(pid)
        if connection is not None:
            return connection
        self._root.mkdir(parents=True, exist_ok=True)
        connection = sqlite3.connect(self._root / "index.sqlite", timeout=_BUSY_TIMEOUT)
        # A write-ahead log synced only at checkpoints: a commit (every
        # save, and every hit's count) waits for no fsync, which on a
        # busy shared disk can take tens of milliseconds.  The index
        # stays consistent through any crash; a power loss can only drop
        # the last commits, and their points are recomputed like a miss.
        _enable_wal(connection)
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.executescript(_SCHEMA)
        connection.commit()
        # Drop connections inherited from a parent process: SQLite
        # handles must not be shared across a fork.
        self._connections = {pid: connection}
        return connection

    def close(self) -> None:
        """Close this process's connection (reopened lazily on next use)."""
        connection = self._connections.pop(os.getpid(), None)
        if connection is not None:
            connection.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- save / load -----------------------------------------------------------

    def _blob_path(self, key: str) -> Path:
        if not key or any(character in key for character in "/\\."):
            raise StoreError(f"malformed store key {key!r}")
        return self.blob_directory / f"{key}.pkl"

    def save(
        self,
        key: str,
        kind: str,
        payload,
        *,
        family: str,
        system_hash: str,
        schema_hash: str,
        base_hash: str,
        graph: str,
        parameters: str,
    ) -> None:
        """Persist one payload under its content key (last writer wins).

        The blob is written to a temp file and atomically renamed before
        the index row is inserted, so a reader never sees a live key
        pointing at a half-written blob.
        """
        if kind not in (KIND_RESULT, KIND_SUBGRAPH):
            raise StoreError(f"unknown entry kind {kind!r}")
        blob_path = self._blob_path(key)
        blob_path.parent.mkdir(parents=True, exist_ok=True)
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        temporary = blob_path.with_name(f"{key}.{os.getpid()}.tmp")
        temporary.write_bytes(data)
        os.replace(temporary, blob_path)
        connection = self._connection()
        connection.execute(
            "INSERT OR REPLACE INTO entries "
            "(key, kind, family, system_hash, schema_hash, base_hash, graph, "
            " parameters, blob, size, created, hits) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
            " COALESCE((SELECT hits FROM entries WHERE key = ?), 0))",
            (
                key, kind, family, system_hash, schema_hash, base_hash, graph,
                parameters, blob_path.name, len(data), time.time(), key,
            ),
        )
        connection.commit()
        self._session_saves[kind] = self._session_saves.get(kind, 0) + 1
        registry = resolve_metrics(None)
        if registry.enabled:
            registry.counter("store_saves_total", kind=kind).inc()

    def load(self, key: str, kind: str | None = None):
        """The payload stored under ``key``, or ``None`` on a miss.

        A stale row (missing blob) or a corrupt blob is self-repaired:
        the entry is discarded and the lookup reports a miss, so the
        caller recomputes and re-saves.  Hits are counted — persistently
        per entry, and per kind in the session counters (``kind`` labels
        a miss that has no row to read the kind from; a present row's
        own kind wins).
        """
        connection = self._connection()
        row = connection.execute("SELECT blob, kind FROM entries WHERE key = ?", (key,)).fetchone()
        if row is None:
            self._count_lookup(kind or "unknown", "miss")
            return None
        blob_path = self.blob_directory / row[0]
        try:
            payload = pickle.loads(blob_path.read_bytes())
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ImportError,
                IndexError, MemoryError, ValueError):
            self.discard(key)
            self._session_repairs += 1
            registry = resolve_metrics(None)
            if registry.enabled:
                registry.counter("store_repairs_total").inc()
            self._count_lookup(row[1], "miss")
            return None
        connection.execute("UPDATE entries SET hits = hits + 1 WHERE key = ?", (key,))
        connection.commit()
        self._count_lookup(row[1], "hit")
        return payload

    def _count_lookup(self, kind: str, outcome: str) -> None:
        """Bump the session and registry counters for one lookup."""
        target = self._session_hits if outcome == "hit" else self._session_misses
        target[kind] = target.get(kind, 0) + 1
        registry = resolve_metrics(None)
        if registry.enabled:
            registry.counter("store_lookups_total", kind=kind, outcome=outcome).inc()

    def discard(self, key: str) -> None:
        """Drop one entry (row and blob; missing pieces are fine)."""
        connection = self._connection()
        row = connection.execute("SELECT blob FROM entries WHERE key = ?", (key,)).fetchone()
        connection.execute("DELETE FROM entries WHERE key = ?", (key,))
        connection.commit()
        if row is not None:
            try:
                (self.blob_directory / row[0]).unlink()
            except FileNotFoundError:
                pass

    # -- delta bases and invalidation ------------------------------------------

    def delta_base(self, graph: str, base_hash: str):
        """The freshest valid subgraph over the same exploration base.

        Scans matching ``subgraph`` entries newest-first and returns the
        first payload that still loads (self-repairing stale rows along
        the way), or ``None``.  Eligibility is *base*-level — same graph
        kind and same (schema, initial instance, constraints) hash;
        per-action validity is the caller's job
        (:class:`repro.store.capture.DeltaSuccessors`).
        """
        connection = self._connection()
        keys = [
            row[0]
            for row in connection.execute(
                "SELECT key FROM entries "
                "WHERE kind = ? AND graph = ? AND base_hash = ? "
                "ORDER BY created DESC, rowid DESC",
                (KIND_SUBGRAPH, graph, base_hash),
            )
        ]
        for key in keys:
            payload = self.load(key, kind=KIND_SUBGRAPH)
            if payload is not None:
                return payload
        return None

    def invalidate_schema_change(self, family: str, schema_hash: str) -> int:
        """Prune every entry of ``family`` recorded under a *different* schema.

        Returns the number of entries dropped.  Called on every save, so
        redefining a named system's schema retires its stale cache
        wholesale while leaving other families untouched.
        """
        connection = self._connection()
        stale = [
            row[0]
            for row in connection.execute(
                "SELECT key FROM entries WHERE family = ? AND schema_hash != ?",
                (family, schema_hash),
            )
        ]
        for key in stale:
            self.discard(key)
        return len(stale)

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        """Aggregate statistics: entry counts per kind, hits, stored bytes.

        The ``"session"`` sub-dict holds this instance's in-process
        per-kind lookup/save counters and self-repair count — what the
        harness prints under ``--store-stats`` next to the persistent
        totals.
        """
        connection = self._connection()
        entries, size, hits = connection.execute(
            "SELECT COUNT(*), COALESCE(SUM(size), 0), COALESCE(SUM(hits), 0) FROM entries"
        ).fetchone()
        by_kind = dict(
            connection.execute("SELECT kind, COUNT(*) FROM entries GROUP BY kind")
        )
        return {
            "root": str(self._root),
            "entries": entries,
            "results": by_kind.get(KIND_RESULT, 0),
            "subgraphs": by_kind.get(KIND_SUBGRAPH, 0),
            "hits": hits,
            "bytes": size,
            "session": self.session(),
        }

    def keys(self) -> list[str]:
        """Every stored key (insertion order)."""
        connection = self._connection()
        return [row[0] for row in connection.execute("SELECT key FROM entries ORDER BY rowid")]

    def clear(self) -> None:
        """Drop every entry (the root directory itself is kept)."""
        for key in self.keys():
            self.discard(key)
