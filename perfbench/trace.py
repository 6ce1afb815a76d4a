"""Span recorder for the traced benchmark run.

The benchmark measures each layer from outside: it wraps the public
functions a layer exposes, records one span per call, and rolls the
spans up into per-layer counts and self times.  Nothing under ``src/``
is changed; the wrappers are installed by patching each name where its
caller looks it up (a module global or a class attribute).

A span is ``(name, start_ns, end_ns, parent)``.  Spans are kept in
memory in per-thread columnar buffers and written out when the process
ends.  Self time is a span's duration minus the durations of its child
spans (children run sequentially inside their parent on one thread).

Coroutines and generators are timed by *busy* time: only the time spent
inside the code, summed over every resume, counts — an ``await`` on a
socket or a consumer working between two ``next()`` calls is not the
layer's work.  Such a span is recorded with ``end = start + busy`` and
never becomes the parent of another span, so suspension cannot corrupt
the parent chain of whatever the event loop runs in between.
"""

from __future__ import annotations

import functools
import json
import threading
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Optional

__all__ = ["SpanRecorder", "SpanTable", "rollup"]

NO_PARENT = -1


class _ThreadBuffer:
    __slots__ = ("name", "start", "end", "parent", "stack")

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack: list[int] = []


class SpanRecorder:
    """Records spans from wrapped callables, one buffer per thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._buffers_lock = threading.Lock()
        #: Undo list for :meth:`patch`: (owner, attribute, original).
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _ThreadBuffer()
            with self._buffers_lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A synchronous callable that records one span per call."""
        nid = self.name_id(name)
        get_buffer = self._buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = get_buffer()
            stack = buf.stack
            index = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else NO_PARENT)
            buf.end.append(0)
            stack.append(index)
            buf.start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[index] = perf_counter_ns()
                stack.pop()

        return traced

    def record_busy(self, nid: int, start: int, busy: int) -> None:
        """Record a busy-time span (see the module docstring)."""
        buf = self._buffer()
        stack = buf.stack
        buf.name.append(nid)
        buf.parent.append(stack[-1] if stack else NO_PARENT)
        buf.start.append(start)
        buf.end.append(start + busy)

    def wrap_coroutine(
        self, name: str, fn: Callable, keep: Optional[Callable[[Any], bool]] = None
    ) -> Callable:
        """An ``async def`` whose span is the busy time of its awaits.
        With *keep*, only calls whose result satisfies it are recorded."""
        nid = self.name_id(name)
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _BusyAwaitable(fn(*args, **kwargs), recorder, nid, keep)

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A generator function whose span is the busy time of its steps."""
        nid = self.name_id(name)
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            busy = 0
            start: Optional[int] = None
            try:
                while True:
                    t0 = perf_counter_ns()
                    if start is None:
                        start = t0
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += perf_counter_ns() - t0
                        return
                    busy += perf_counter_ns() - t0
                    yield item
            finally:
                if start is not None:
                    recorder.record_busy(nid, start, busy)

        return traced

    def patch(
        self,
        owner: Any,
        attribute: str,
        name: str,
        kind: str = "sync",
        replacement: Optional[Callable] = None,
        keep: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a traced wrapper of itself
        (or of *replacement*, a stand-in that calls the original).
        *keep* filters a coroutine's spans by result."""
        original = getattr(owner, attribute)
        target = replacement if replacement is not None else original
        if kind == "coroutine":
            wrapper = self.wrap_coroutine(name, target, keep)
        else:
            wrapper = {"sync": self.wrap, "generator": self.wrap_generator}[kind](name, target)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def unpatch(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- output ------------------------------------------------------------

    def table(self) -> "SpanTable":
        """All spans so far, buffers concatenated with parents rebased."""
        table = SpanTable(list(self.names))
        with self._buffers_lock:
            buffers = list(self._buffers)
        for buf in buffers:
            n = min(len(buf.name), len(buf.start), len(buf.end), len(buf.parent))
            base = len(table.start)
            table.name.extend(buf.name[:n])
            table.start.extend(buf.start[:n])
            table.end.extend(buf.end[:n])
            table.parent.extend(
                p + base if p != NO_PARENT else NO_PARENT for p in buf.parent[:n]
            )
        return table


class _BusyAwaitable:
    """Drives a coroutine, timing each resume; see the module docstring."""

    __slots__ = ("_coro", "_recorder", "_nid", "_keep")

    def __init__(self, coro, recorder: SpanRecorder, nid: int, keep) -> None:
        self._coro = coro
        self._recorder = recorder
        self._nid = nid
        self._keep = keep

    def __await__(self):
        coro = self._coro
        busy = 0
        start: Optional[int] = None
        value: Any = None
        error: Optional[BaseException] = None
        kept = self._keep is None
        try:
            while True:
                t0 = perf_counter_ns()
                if start is None:
                    start = t0
                try:
                    if error is not None:
                        pending, error = error, None
                        yielded = coro.throw(pending)
                    else:
                        yielded = coro.send(value)
                except StopIteration as stop:
                    busy += perf_counter_ns() - t0
                    kept = kept or self._keep(stop.value)
                    return stop.value
                busy += perf_counter_ns() - t0
                try:
                    value = yield yielded
                except BaseException as exc:  # forwarded into the coroutine
                    error, value = exc, None
        finally:
            if start is not None and kept:
                self._recorder.record_busy(self._nid, start, busy)


class SpanTable:
    """Columnar spans: ``name`` ids into ``names``, times in ns."""

    def __init__(self, names: list[str]) -> None:
        self.names = names
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")

    def __len__(self) -> int:
        return len(self.start)

    def save(self, path: Path) -> None:
        header = json.dumps({"names": self.names, "count": len(self)}).encode()
        with open(path, "wb") as out:
            out.write(len(header).to_bytes(4, "little"))
            out.write(header)
            for column in (self.name, self.start, self.end, self.parent):
                column.tofile(out)

    @classmethod
    def load(cls, path: Path) -> "SpanTable":
        with open(path, "rb") as src:
            size = int.from_bytes(src.read(4), "little")
            header = json.loads(src.read(size))
            table = cls(header["names"])
            for column in (table.name, table.start, table.end, table.parent):
                column.fromfile(src, header["count"])
        return table


def rollup(table: SpanTable) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``.

    Self time is the span's duration minus its direct children's
    durations (clamped at zero).
    """
    n = len(table)
    child_ns = [0] * n
    starts, ends, parents = table.start, table.end, table.parent
    for i in range(n):
        p = parents[i]
        if p != NO_PARENT:
            child_ns[p] += ends[i] - starts[i]
    out: dict[str, dict[str, float]] = {}
    names = table.names
    for i in range(n):
        name = names[table.name[i]]
        duration = ends[i] - starts[i]
        entry = out.get(name)
        if entry is None:
            entry = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        entry["calls"] += 1
        entry["total_s"] += duration / 1e9
        entry["self_s"] += max(0, duration - child_ns[i]) / 1e9
    return out

