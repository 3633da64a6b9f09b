"""In-memory spans around calls into the verifier, recorded from outside.

A :class:`Recorder` keeps, per thread, a stack of open frames and a
table of aggregates ``name -> [calls, busy seconds, self seconds]``.
Every wrapped call pushes a frame; when it returns, its duration is
added to its own row and charged to the enclosing frame as child time,
so a row's self time is its busy time minus the part its wrapped
children cover.  Functions hit hundreds of thousands of times per run
(``DatabaseInstance.holds``, ``satisfies``) only aggregate; coarse
functions (``span=True``) additionally keep one record per call —
``(name, start, end, parent)`` — written out when the run ends.

Wrappers are installed by :func:`install` before any worker process is
forked.  A forked worker inherits them; an after-fork hook clears the
copied parent state and a ``multiprocessing`` finalizer writes the
worker's table to ``worker-<pid>.json`` in the recorder's directory when
the worker exits normally, which the parent folds in with
:meth:`Recorder.worker_tables`.  Workers forked during set-up carry
set-up work in their rows; :meth:`Recorder.begin_window` bumps an epoch
byte in memory shared with every worker, and a worker drops its rows
when it next starts a top-level call under a new epoch.
"""

from __future__ import annotations

import importlib
import itertools
import json
import mmap
import os
import sys
import threading
from dataclasses import dataclass, field
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter
from typing import Callable


class Recorder:
    """Per-thread frame stacks and aggregate tables for one process.

    Args:
        directory: where forked workers write their tables on exit.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._ids = itertools.count(1)
        self._epoch = mmap.mmap(-1, 1)
        self._seen = 0
        mp_util.register_after_fork(self, Recorder._after_fork)

    # -- per-thread state ------------------------------------------------------

    def state(self) -> tuple[list, dict]:
        """This thread's ``(frame stack, aggregate table)``."""
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
            return state

    def next_id(self) -> int:
        """A fresh span id (ids are unique within one process)."""
        return next(self._ids)

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the call count of row ``name`` (a pure counter)."""
        table = self.state()[1]
        row = table.get(name)
        if row is None:
            row = table[name] = [0, 0.0, 0.0]
        row[0] += amount

    def reset(self) -> None:
        """Forget every row and span recorded so far in this process."""
        with self._lock:
            for table in self._tables:
                table.clear()
        self.spans.clear()

    def begin_window(self) -> None:
        """Start the measured window here and in every forked worker."""
        self._seen = self._epoch[0] = (self._epoch[0] + 1) % 256
        self.reset()

    def sync(self) -> None:
        """Drop rows recorded before the current window (workers only)."""
        if self._epoch[0] != self._seen:
            self._seen = self._epoch[0]
            self.reset()

    def table(self) -> dict[str, list]:
        """This process's rows, summed over its threads."""
        merged: dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, busy, own) in list(table.items()):
                row = merged.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += busy
                row[2] += own
        return merged

    # -- forked workers --------------------------------------------------------

    def _after_fork(self) -> None:
        # Runs in the child right after fork: only the forking thread
        # survives, and it may be inside wrapped frames it will never
        # return to, so its stack and every copied row start empty.
        self.pid = os.getpid()
        self.spans.clear()
        state = getattr(self._local, "state", None)
        self._lock = threading.Lock()
        self._tables = []
        if state is not None:
            state[0].clear()
            state[1].clear()
            self._tables.append(state[1])
        mp_util.Finalize(None, self._write_worker_table, exitpriority=10)

    def _write_worker_table(self) -> None:
        path = self.directory / f"worker-{self.pid}.json"
        document = {"pid": self.pid, "table": self.table(), "spans": self.span_records()}
        path.write_text(json.dumps(document))

    def worker_tables(self) -> list[tuple[dict, list[dict]]]:
        """``(table, spans)`` of every worker that has exited (files removed)."""
        found = []
        for path in sorted(self.directory.glob("worker-*.json")):
            document = json.loads(path.read_text())
            found.append((document["table"], document["spans"]))
            path.unlink()
        return found

    def span_records(self) -> list[dict]:
        """This process's spans as JSON-ready dicts."""
        return [
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "pid": self.pid,
                "thread": thread,
            }
            for span_id, name, start, end, parent, thread in self.spans
        ]

    def write_spans(self, path: Path, worker_spans: list[list[dict]] = ()) -> int:
        """Write this process's and the workers' spans as JSON lines."""
        records = self.span_records() + [span for spans in worker_spans for span in spans]
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return len(records)


def _close(
    recorder: Recorder, stack: list, table: dict, name: str, frame: list, start: float
) -> None:
    """Pop ``frame`` and charge its duration to its row and its parent."""
    duration = perf_counter() - start
    stack.pop()
    if stack:
        stack[-1][0] += duration
    row = table.get(name)
    if row is None:
        row = table[name] = [0, 0.0, 0.0]
    row[1] += duration
    row[2] += duration - frame[0]
    if frame[1]:
        parent = next((outer[1] for outer in reversed(stack) if outer[1]), None)
        recorder.spans.append(
            (frame[1], name, start, start + duration, parent, threading.get_ident())
        )


def timed(recorder: Recorder, name: str, function: Callable, *, span: bool = False, on_result=None):
    """Wrap a plain function (or method) so each call is one frame.

    ``on_result(recorder, result, args)`` runs after a call returns,
    for counts derived from the result.
    """

    def wrapper(*args, **kwargs):
        stack, table = recorder.state()
        if not stack:
            recorder.sync()
        frame = [0.0, recorder.next_id() if span else 0, name]
        stack.append(frame)
        start = perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            _close(recorder, stack, table, name, frame, start)
            table[name][0] += 1
        if on_result is not None:
            on_result(recorder, result, args)
        return result

    wrapper.__wrapped__ = function
    return wrapper


def timed_generator(recorder: Recorder, name: str, function: Callable):
    """Wrap a generator function: each resumption is one frame.

    Creating the generator counts one call; busy time is the sum of the
    resumptions, which is where a generator does its work.
    """

    def wrapper(*args, **kwargs):
        inner = function(*args, **kwargs)
        recorder.count(name)
        while True:
            stack, table = recorder.state()
            if not stack:
                recorder.sync()
            frame = [0.0, 0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                _close(recorder, stack, table, name, frame, start)
            yield item

    wrapper.__wrapped__ = function
    return wrapper


def timed_coroutine(recorder: Recorder, name: str, function: Callable):
    """Wrap an ``async`` function: one span per call, outside the stacks.

    Coroutines of concurrent requests interleave on one event-loop
    thread, so their spans cannot nest on a thread stack; their busy
    time is wall time per call and their self time is derived by the
    caller from the aggregate rows of their known children.
    """

    async def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return await function(*args, **kwargs)
        finally:
            end = perf_counter()
            table = recorder.state()[1]
            row = table.get(name)
            if row is None:
                row = table[name] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start
            recorder.spans.append(
                (recorder.next_id(), name, start, end, None, threading.get_ident())
            )

    wrapper.__wrapped__ = function
    return wrapper


@dataclass(frozen=True)
class Probe:
    """One wrapped callable.

    Attributes:
        name: the row the calls land in.
        module: the module defining the callable.
        attribute: ``"function_name"`` or ``"Class.method"``.
        kind: ``"call"``, ``"generator"`` or ``"coroutine"``.
        span: keep one span record per call (coarse functions only).
        sites: for module functions, the importing modules to patch
            (empty = every ``repro`` module holding the function).
        site_wrappers: ``{module: factory}`` — at that site the plain
            wrapper is passed through ``factory(recorder, wrapper)``,
            for site-specific counts.
        on_result: see :func:`timed`.
    """

    name: str
    module: str
    attribute: str
    kind: str = "call"
    span: bool = False
    sites: tuple[str, ...] = ()
    site_wrappers: dict = field(default_factory=dict)
    on_result: Callable | None = None


def _wrap(recorder: Recorder, probe: Probe, original: Callable) -> Callable:
    if probe.kind == "generator":
        return timed_generator(recorder, probe.name, original)
    if probe.kind == "coroutine":
        return timed_coroutine(recorder, probe.name, original)
    return timed(recorder, probe.name, original, span=probe.span, on_result=probe.on_result)


def install(recorder: Recorder, probes: tuple[Probe, ...]) -> Callable[[], None]:
    """Patch every probe where it is looked up; returns the undo function.

    A function imported by name (``from repro.fol.evaluator import
    satisfies``) is a separate binding in each importing module, so a
    module-level function is replaced in its defining module *and* in
    every loaded ``repro`` module that holds the same object.  Methods
    are replaced on their class.
    """
    undo: list[tuple[object, str, object]] = []
    for probe in probes:
        module = importlib.import_module(probe.module)
        if "." in probe.attribute:
            class_name, method = probe.attribute.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            undo.append((owner, method, original))
            setattr(owner, method, _wrap(recorder, probe, original))
            continue
        original = getattr(module, probe.attribute)
        plain = _wrap(recorder, probe, original)
        holders = [
            (name, vars(loaded))
            for name, loaded in list(sys.modules.items())
            if loaded is not None and (name == "repro" or name.startswith("repro."))
        ]
        for name, namespace in holders:
            if probe.sites and name not in probe.sites and name != probe.module:
                continue
            for attribute, value in list(namespace.items()):
                if value is not original:
                    continue
                factory = probe.site_wrappers.get(name)
                replacement = factory(recorder, plain) if factory else plain
                undo.append((sys.modules[name], attribute, original))
                setattr(sys.modules[name], attribute, replacement)

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall
