"""Shared-memory interning of exploration states.

The sharded engine's expansion traffic used to be dominated by
serialization: every frontier state crossed the worker pipes pickled per
batch, and every generated edge shipped its source *and* target
configuration back fully pickled (:mod:`repro.search.sharded`,
:mod:`repro.runtime.pool`).  This module cuts that traffic down to
integer ids:

* a :class:`SharedStateStore` is an **append-only slab of canonical
  state encodings** in a :mod:`multiprocessing.shared_memory` segment,
  readable by every process that attaches it;
* the coordinator and each expansion worker own **one writer slot**
  each — appends never contend, so a worker SIGKILLed mid-append cannot
  poison a lock or corrupt a sibling's entries (the classic crash
  hazard of shared mutable state);
* a :class:`SharedInternTable` is the :class:`~repro.search.interning.InternTable`
  variant the coordinator explores with: same API, same dense local
  ids in discovery order (results stay bit-identical to the local
  table), but every canonical state is mirrored into the store so the
  engine can ship ``(local_id, shared_id)`` pairs instead of pickled
  states;
* workers resolve ids through a per-process cache, **deserializing a
  configuration at most once per process** — and at most once per
  process *lifetime*, not per exploration, because the segment lives
  with the warm worker context;
* edges travel back in an :class:`EncodedExpansion` blob whose pickler
  replaces every store-resident configuration (the edge sources and the
  freshly interned targets) with its shared id.

Id contract
-----------

A shared id is ``writer_slot * slot_bytes + byte_offset``: globally
unique, stable for the lifetime of the segment, and decodable by any
attached process without an index lookup.  Two racing writers may append
*equal* states under different ids; :meth:`SharedStateStore.get`
canonicalises on read (the first id seen for a value becomes its
canonical id and object), so duplicates cost a little slab space, never
correctness.  Publication is ordered by the messages that carry the
ids: a process only ever reads an id it received over a pipe, and the
sender committed the entry before sending, so readers never observe a
partially written entry.

Crash semantics
---------------

Writer slots are single-writer: a crashed worker leaves at most an
*uncommitted* tail in its own region, which its respawned replacement
(re-attached to the same segment, bound to the same slot) simply
overwrites after recovering the committed cursor from the slot header.
Segments are owned by whoever created them — a :class:`repro.runtime.WorkerPool`
context or an engine-owned backend — and are unlinked when that owner
is closed or shut down; a pid-guarded GC finalizer backstops forgotten
owners, and forked children can never unlink their parent's segment.

When :mod:`multiprocessing.shared_memory` is unavailable (or disabled
via ``REPRO_NO_SHM=1``), every entry point degrades to the classic
pickled traffic with identical results — see
:func:`shared_memory_available`.
"""

from __future__ import annotations

import itertools
import os
import pickle
import struct
import weakref
from io import BytesIO
from typing import Any, Iterator

from repro.errors import SearchError
from repro.search.interning import InternTable

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic builds without _posixshmem
    _shared_memory = None

__all__ = [
    "DEFAULT_SLOT_BYTES",
    "EncodedExpansion",
    "SharedInternTable",
    "SharedStateStore",
    "attached_store",
    "set_process_writer_slot",
    "shared_memory_available",
]

# One writer slot's data region.  Slab pages are allocated lazily by the
# kernel (tmpfs), so generous defaults cost address space, not memory.
DEFAULT_SLOT_BYTES = 8 * 1024 * 1024

SEGMENT_PREFIX = "repro_shm_"

_MAGIC = 0x53484D31  # "SHM1"
_HEADER = struct.Struct("<IIQ")  # magic, slots, slot_bytes
_SLOT_HEADER = struct.Struct("<QQ")  # bytes used, entries committed
_LEN = struct.Struct("<I")
_HEADER_SIZE = 64  # the segment header, padded to a cache line
_SLOT_HEADER_SIZE = 64  # each slot header, padded to a cache line

_COUNTER = itertools.count()


def shared_memory_available() -> bool:
    """Whether shared-memory interning can run here.

    False on platforms without :mod:`multiprocessing.shared_memory` and
    under the ``REPRO_NO_SHM=1`` kill switch (used by the fallback
    tests and available as an operational escape hatch).  Callers fall
    back to classic pickled expansion traffic with identical results.
    """
    if os.environ.get("REPRO_NO_SHM", "") not in ("", "0"):
        return False
    return _shared_memory is not None


def _maybe_unlink(name: str, creator_pid: int) -> None:
    """Unlink ``name`` if running in the process that created it.

    Fork-inherited finalizers must never unlink the parent's segment;
    the pid guard makes the GC backstop safe in every child.
    """
    if os.getpid() != creator_pid or _shared_memory is None:
        return
    try:
        segment = _shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return
    try:
        segment.close()
        segment.unlink()
    except (FileNotFoundError, OSError):  # raced with an explicit destroy()
        pass


class EncodedExpansion:
    """A worker's expansion result with states replaced by shared ids.

    The payload is produced by :meth:`SharedStateStore.dumps` and decoded
    by :meth:`SharedStateStore.loads`; wrapping it marks the value so the
    expansion backends know to decode it against the store instead of
    using it directly.
    """

    __slots__ = ("payload",)

    def __init__(self, payload: bytes) -> None:
        self.payload = payload


class SharedStateStore:
    """A cross-process append-only slab of pickled canonical states.

    One instance is a *view* of the segment from one process: it tracks
    which slot (if any) this process may append to, plus the process'
    decode caches.  Use :meth:`create` in the owning coordinator,
    :func:`attached_store` in workers.
    """

    def __init__(self, segment, writer_slot: int | None, owner: bool) -> None:
        buffer = segment.buf
        magic, slots, slot_bytes = _HEADER.unpack_from(buffer, 0)
        if magic != _MAGIC:
            raise SearchError(f"segment {segment.name!r} is not a shared state store")
        self._segment = segment
        self._slots = slots
        self._slot_bytes = slot_bytes
        self._owner = owner
        self._pid = os.getpid()
        if writer_slot is not None and not (0 <= writer_slot < slots):
            writer_slot = None  # more workers than slots: degrade to read-only
        self._writer_slot = writer_slot
        self._used, self._count = self._recover_cursor() if writer_slot is not None else (0, 0)
        self._by_id: dict[int, Any] = {}  # shared id -> canonical state
        self._to_id: dict[Any, int] = {}  # canonical state -> canonical shared id
        self._state_types: set[type] = set()
        self._finalizer = (
            weakref.finalize(self, _maybe_unlink, segment.name, self._pid) if owner else None
        )

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(
        cls, slots: int, slot_bytes: int = DEFAULT_SLOT_BYTES
    ) -> "SharedStateStore | None":
        """Create a fresh segment with ``slots`` writer slots (slot 0 = caller).

        Returns ``None`` when shared memory is unavailable or the
        segment cannot be allocated — callers fall back to pickled
        traffic instead of failing the exploration.
        """
        if not shared_memory_available() or slots < 1 or slot_bytes < 16:
            return None
        size = _HEADER_SIZE + slots * (_SLOT_HEADER_SIZE + slot_bytes)
        name = f"{SEGMENT_PREFIX}{os.getpid()}_{next(_COUNTER)}"
        try:
            segment = _shared_memory.SharedMemory(name=name, create=True, size=size)
        except (OSError, ValueError):  # no /dev/shm, exhausted, or name clash
            return None
        _HEADER.pack_into(segment.buf, 0, _MAGIC, slots, slot_bytes)
        for slot in range(slots):
            _SLOT_HEADER.pack_into(segment.buf, cls._slot_header_offset_of(slot, slot_bytes), 0, 0)
        store = cls(segment, writer_slot=0, owner=True)
        _ATTACHED[segment.name] = store
        return store

    @classmethod
    def attach(cls, name: str, writer_slot: int | None = None) -> "SharedStateStore":
        """Attach an existing segment (raises if it was destroyed)."""
        if _shared_memory is None:
            raise SearchError("multiprocessing.shared_memory is unavailable")
        segment = _shared_memory.SharedMemory(name=name)
        return cls(segment, writer_slot=writer_slot, owner=False)

    def _rebind_after_fork(self, writer_slot: int | None) -> "SharedStateStore":
        """A fork-inherited view rebound to this process (and its slot).

        The child inherits the parent's mapping *and* decode caches —
        free warm state — but must never write the parent's slot.
        """
        clone = object.__new__(type(self))
        clone._segment = self._segment
        clone._slots = self._slots
        clone._slot_bytes = self._slot_bytes
        clone._owner = False
        clone._pid = os.getpid()
        if writer_slot is not None and not (0 <= writer_slot < self._slots):
            writer_slot = None
        clone._writer_slot = writer_slot
        clone._used, clone._count = (
            clone._recover_cursor() if writer_slot is not None else (0, 0)
        )
        clone._by_id = dict(self._by_id)
        clone._to_id = dict(self._to_id)
        clone._state_types = set(self._state_types)
        clone._finalizer = None
        return clone

    # -- segment geometry ------------------------------------------------------

    @staticmethod
    def _slot_header_offset_of(slot: int, slot_bytes: int) -> int:
        return _HEADER_SIZE + slot * (_SLOT_HEADER_SIZE + slot_bytes)

    def _slot_header_offset(self, slot: int) -> int:
        return self._slot_header_offset_of(slot, self._slot_bytes)

    def _slot_data_offset(self, slot: int) -> int:
        return self._slot_header_offset(slot) + _SLOT_HEADER_SIZE

    def _recover_cursor(self) -> tuple[int, int]:
        """The committed (used, count) of the own slot, from the slot header.

        A respawned writer resumes exactly after the last committed
        entry; whatever a crashed predecessor wrote past it was never
        published and is overwritten.
        """
        return _SLOT_HEADER.unpack_from(self._segment.buf, self._slot_header_offset(self._writer_slot))

    # -- properties ------------------------------------------------------------

    @property
    def name(self) -> str:
        """The segment name (attach key; the file under ``/dev/shm``)."""
        return self._segment.name

    @property
    def slots(self) -> int:
        """Number of writer slots."""
        return self._slots

    @property
    def writer_slot(self) -> int | None:
        """This process' writer slot (``None`` = read-only view)."""
        return self._writer_slot

    def __len__(self) -> int:
        """Total committed entries across all slots (diagnostic)."""
        buffer = self._segment.buf
        return sum(
            _SLOT_HEADER.unpack_from(buffer, self._slot_header_offset(slot))[1]
            for slot in range(self._slots)
        )

    # -- appending and reading -------------------------------------------------

    def put(self, state: Any) -> int | None:
        """Intern ``state``; returns its canonical shared id.

        Returns the existing id when this process has already seen an
        equal state (no encoding, no append).  Returns ``None`` when the
        view is read-only or the slot is full — the caller then ships
        the state inline (pickled), which is always correct.
        """
        existing = self._to_id.get(state)
        if existing is not None:
            return existing
        if self._writer_slot is None:
            return None
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        needed = _LEN.size + len(payload)
        if self._used + needed > self._slot_bytes or self._count >= (1 << 32) - 1:
            return None  # slot full: degrade to inline traffic
        buffer = self._segment.buf
        offset = self._used
        base = self._slot_data_offset(self._writer_slot)
        _LEN.pack_into(buffer, base + offset, len(payload))
        buffer[base + offset + _LEN.size : base + offset + needed] = payload
        self._used += needed
        self._count += 1
        # Publish *after* the payload is in place: the slot header is the
        # commit point a respawned replacement recovers from.
        _SLOT_HEADER.pack_into(
            buffer, self._slot_header_offset(self._writer_slot), self._used, self._count
        )
        shared_id = self._writer_slot * self._slot_bytes + offset
        self._to_id[state] = shared_id
        self._by_id[shared_id] = state
        self._state_types.add(type(state))
        return shared_id

    def id_for(self, state: Any) -> int | None:
        """The canonical shared id of ``state`` if this process knows it."""
        return self._to_id.get(state)

    def get(self, shared_id: int) -> Any:
        """The canonical state stored under ``shared_id``.

        Decodes at most once per process and id; equal states reached
        under different ids resolve to one canonical object, so
        downstream equality checks hit the identity fast path.
        """
        state = self._by_id.get(shared_id)
        if state is not None:
            return state
        slot, offset = divmod(shared_id, self._slot_bytes)
        if not (0 <= slot < self._slots) or offset + _LEN.size > self._slot_bytes:
            raise SearchError(f"shared id {shared_id} is outside segment {self.name!r}")
        base = self._slot_data_offset(slot)
        buffer = self._segment.buf
        (length,) = _LEN.unpack_from(buffer, base + offset)
        if offset + _LEN.size + length > self._slot_bytes:
            raise SearchError(f"shared id {shared_id} does not address a committed entry")
        start = base + offset + _LEN.size
        state = pickle.loads(bytes(buffer[start : start + length]))
        canonical_id = self._to_id.get(state)
        if canonical_id is not None:  # a racing writer appended an equal state
            state = self._by_id[canonical_id]
        else:
            self._to_id[state] = shared_id
        self._by_id[shared_id] = state
        self._state_types.add(type(state))
        return state

    # -- id-packed pickling ----------------------------------------------------

    def dumps(self, value: Any) -> bytes:
        """Pickle ``value`` with store-resident states replaced by their ids."""
        to_id = self._to_id
        state_types = self._state_types

        def persistent_id(obj: Any) -> int | None:
            if type(obj) in state_types:
                # States can be builtin containers (tuples, frozensets);
                # the type probe then also matches unrelated plumbing
                # values, which may hold unhashable members — those are
                # simply not interned.
                try:
                    return to_id.get(obj)
                except TypeError:
                    return None
            return None

        sink = BytesIO()
        pickler = pickle.Pickler(sink, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = persistent_id
        pickler.dump(value)
        return sink.getvalue()

    def loads(self, payload: bytes) -> Any:
        """Decode a :meth:`dumps` payload, resolving ids through the cache."""
        unpickler = pickle.Unpickler(BytesIO(payload))
        unpickler.persistent_load = self.get
        return unpickler.load()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Drop this process' mapping (the segment itself stays)."""
        try:
            self._segment.close()
        except (OSError, BufferError):
            pass

    def destroy(self) -> None:
        """Unlink the segment (owner only; idempotent).

        After this no process can attach anymore; processes still
        holding a mapping keep it until they close.
        """
        if self._finalizer is not None:
            self._finalizer.detach()
        _ATTACHED.pop(self.name, None)
        if not self._owner or self._pid != os.getpid():
            return
        try:
            self._segment.unlink()
        except (FileNotFoundError, OSError):
            pass
        self.close()


# -- per-process worker attachment ---------------------------------------------

# Expansion workers bind one writer slot per process, assigned by their
# warm worker context before the first batch executes.  ``None`` means read-only (states ship inline).
_PROCESS_WRITER_SLOT: int | None = None

# Store views by segment name.  Fork-inherited entries are detected by
# pid and rebound (keeping the inherited decode caches) on first use.
_ATTACHED: dict[str, SharedStateStore] = {}


def set_process_writer_slot(slot: int | None) -> None:
    """Declare the writer slot this worker process appends to."""
    global _PROCESS_WRITER_SLOT
    _PROCESS_WRITER_SLOT = slot


def attached_store(name: str) -> SharedStateStore:
    """This process' view of segment ``name`` (attach/rebind on first use)."""
    store = _ATTACHED.get(name)
    if store is not None and store._pid == os.getpid():
        return store
    if store is not None:
        store = store._rebind_after_fork(_PROCESS_WRITER_SLOT)
    else:
        store = SharedStateStore.attach(name, writer_slot=_PROCESS_WRITER_SLOT)
    _ATTACHED[name] = store
    return store


# -- the InternTable variant ---------------------------------------------------


class SharedInternTable(InternTable):
    """An :class:`InternTable` that mirrors canonical states into a store.

    Drop-in for the local table — same dense local ids in the same
    discovery order, so explorations behave bit-identically — plus the
    shared-id bookkeeping the engine and :meth:`SearchResult.merge
    <repro.search.engine.SearchResult.merge>` use to move ids instead of
    states: :meth:`shared_id_of` maps a local id to the state's shared
    id (``None`` for states the slab could not hold, which travel
    inline), :meth:`local_of_shared` inverts it, and
    :meth:`intern_shared` unions by id without re-hashing states.
    """

    __slots__ = ("_store", "_shared_ids", "_from_shared")

    def __init__(self, store: SharedStateStore) -> None:
        super().__init__()
        self._store = store
        self._shared_ids: list[int | None] = []  # local id -> canonical shared id
        self._from_shared: dict[int, int] = {}  # canonical shared id -> local id

    @property
    def store(self) -> SharedStateStore:
        """The backing shared store."""
        return self._store

    def intern(self, state: Any) -> tuple[int, Any, bool]:
        """Intern structurally, mirroring new canonical states into the store.

        Same id/canonical/is_new contract as :meth:`InternTable.intern`;
        a state the slab cannot hold is still interned locally (its
        shared id stays ``None`` and it travels inline).
        """
        existing = self._ids.get(state)
        if existing is not None:
            return existing, self._states[existing], False
        shared_id = self._store.put(state)
        canonical = self._store.get(shared_id) if shared_id is not None else state
        return self._append(canonical, shared_id)

    def intern_shared(self, shared_id: int | None, state: Any) -> tuple[int, Any, bool]:
        """Intern by shared id — an integer probe instead of a deep hash.

        ``state`` is only consulted when ``shared_id`` is ``None`` (an
        inline state that never made it into the slab), falling back to
        the structural path.
        """
        if shared_id is None:
            return self.intern(state)
        canonical = self._store.get(shared_id)
        canonical_id = self._store.id_for(canonical)
        if canonical_id is not None:
            shared_id = canonical_id
        local = self._from_shared.get(shared_id)
        if local is not None:
            return local, self._states[local], False
        existing = self._ids.get(canonical)  # seen earlier as an inline state
        if existing is not None:
            self._from_shared[shared_id] = existing
            return existing, self._states[existing], False
        return self._append(canonical, shared_id)

    def _append(self, canonical: Any, shared_id: int | None) -> tuple[int, Any, bool]:
        local = len(self._states)
        self._ids[canonical] = local
        self._states.append(canonical)
        self._shared_ids.append(shared_id)
        if shared_id is not None:
            self._from_shared[shared_id] = local
        return local, canonical, True

    def shared_id_of(self, local_id: int) -> int | None:
        """The shared id mirrored for ``local_id`` (``None`` = inline)."""
        return self._shared_ids[local_id]

    def local_of_shared(self, shared_id: int) -> int | None:
        """The local id holding ``shared_id``'s state, if interned here."""
        local = self._from_shared.get(shared_id)
        if local is not None:
            return local
        canonical_id = self._store.id_for(self._store.get(shared_id))
        if canonical_id is None or canonical_id == shared_id:
            return None
        return self._from_shared.get(canonical_id)

    def shared_entries(self) -> Iterator[tuple[int, int | None]]:
        """``(local_id, shared_id)`` pairs in discovery order."""
        return enumerate(self._shared_ids)
