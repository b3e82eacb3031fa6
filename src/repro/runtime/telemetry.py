"""Telemetry: an event stream, its metrics registry and a JSONL sink.

The engine, the SA annealer and the experiment flow all talk to one
:class:`Telemetry` object.  Events are plain dicts; a sink (usually
:class:`JsonlSink`) receives each event as it is emitted, and the object
also keeps an in-memory buffer so tests can interrogate a run without
parsing the trace file.  Counts live in the telemetry's
:class:`~repro.obs.metrics.MetricsRegistry` (``telemetry.metrics``), the
one counter store, whose snapshots ride the trace as ``metrics`` events.

A context-local *active* telemetry makes instrumentation non-invasive:
deep code (the annealer's temperature loop) calls ``get_telemetry()``,
which returns a no-op singleton unless a caller installed a real one via
``using_telemetry(...)`` in the same thread/task context (engines running
concurrently on different threads therefore never see each other's
telemetry).  Worker processes collect events locally and the
engine re-emits them in the parent, so a trace file is always written from
a single process.

The higher-level observability layer (:mod:`repro.obs`) builds on the
primitives kept here: the ambient *span* context variable (every emitted
event is stamped with the id of the enclosing span, see
:mod:`repro.obs.spans`) and the ``epoch`` wall-clock anchor that lets the
engine rebase worker-relative timestamps onto the parent timeline.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, List, Optional

#: The ambient span id (see :mod:`repro.obs.spans`).  Lives here, not in
#: ``repro.obs``, so that :meth:`Telemetry.emit` can stamp events without
#: importing the observability layer.
_SPAN: ContextVar[Optional[str]] = ContextVar("repro_span", default=None)


def current_span_id() -> Optional[str]:
    """Id of the innermost active span, or ``None`` outside any span."""
    return _SPAN.get()


class Telemetry:
    """Event buffer + metrics registry, optionally forwarding to a sink."""

    enabled = True

    def __init__(self, sink: Optional[Callable[[dict], None]] = None) -> None:
        self._sink = sink
        self._lock = threading.Lock()
        self._start = time.perf_counter()
        #: Wall-clock time of creation; lets a parent process rebase the
        #: relative ``t`` of events collected under a *different* Telemetry
        #: (``ingest(offset=child.epoch - parent.epoch)``).
        self.epoch = time.time()
        self.events: List[dict] = []
        self._metrics = None

    # -- events ------------------------------------------------------------

    def emit(self, event_name: str, **fields) -> dict:
        """Record one event; ``t`` is seconds since this object's creation.

        Events emitted inside an active span (see :func:`repro.obs.spans.span`)
        are stamped with its id as ``span`` unless the caller supplies one.
        (The positional parameter is deliberately *not* called ``name`` —
        span events carry a ``name`` field of their own.)
        """
        event = {"event": event_name, "t": round(time.perf_counter() - self._start, 6)}
        span_id = _SPAN.get()
        if span_id is not None:
            event["span"] = span_id
        event.update(fields)
        with self._lock:
            self.events.append(event)
        if self._sink is not None:
            self._sink(event)
        return event

    def ingest(self, events: Iterable[dict], offset: float = 0.0, **extra) -> None:
        """Re-emit events collected elsewhere (e.g. in a worker process).

        ``offset`` (seconds) is added to each event's ``t``, rebasing
        timestamps recorded against another telemetry's start onto this
        one's timeline (pass ``child.epoch - self.epoch``).
        """
        for event in events:
            merged = dict(event)
            if offset and isinstance(merged.get("t"), (int, float)):
                merged["t"] = round(merged["t"] + offset, 6)
            merged.update(extra)
            with self._lock:
                self.events.append(merged)
            if self._sink is not None:
                self._sink(merged)

    def events_named(self, name: str) -> List[dict]:
        with self._lock:
            return [event for event in self.events if event.get("event") == name]

    # -- metrics registry --------------------------------------------------

    @property
    def metrics(self):
        """This telemetry's :class:`~repro.obs.metrics.MetricsRegistry`.

        Created lazily on first use; the no-op telemetry returns the null
        registry, so instrumented code pays only an attribute lookup when
        observability is disabled.
        """
        if self._metrics is None:
            from ..obs.metrics import NULL_REGISTRY, MetricsRegistry

            with self._lock:  # one registry even when threads race here
                if self._metrics is None:
                    self._metrics = MetricsRegistry(self) if self.enabled else NULL_REGISTRY
        return self._metrics


class _NullTelemetry(Telemetry):
    """Discards everything; the default active telemetry."""

    enabled = False

    def emit(self, event_name: str, **fields) -> dict:  # pragma: no cover - trivial
        return {}

    def ingest(self, events, offset: float = 0.0, **extra) -> None:
        pass


NULL = _NullTelemetry()

#: :class:`JsonlSink` writes its buffer every this many events ...
FLUSH_EVERY = 64
#: ... or on the first event this many seconds after its last write.
FLUSH_SECONDS = 1.0


class JsonlSink:
    """Write events to a JSONL file, one object per line.

    One sink = one trace: opening truncates any previous file at the path,
    so a trace always holds a single run with one ``trace.meta`` stamp and
    one rooted span tree (appending across runs would trip the
    ``span.multiple-roots`` check and double every stats counter).

    Writes are buffered: lines accumulate in memory and hit the disk every
    :data:`FLUSH_EVERY` events, on :meth:`flush`, and on :meth:`close` — one
    ``write`` syscall per batch instead of one per event.  A wall-clock
    deadline (:data:`FLUSH_SECONDS`) bounds how stale the file can be
    regardless of batch fill: a slow event stream — one ``sa.step`` per
    temperature tier during a long anneal — still reaches a ``tail -f`` within a second of the *next* event instead
    of lagging up to 63 events behind.  The deadline is checked on event
    arrival (no timer thread); a sink that stops receiving events entirely
    flushes on :meth:`flush`/:meth:`close` as before.  The underlying
    file opens lazily on the first flush; ``close()`` is idempotent and a
    finalizer flushes any tail events should an exception path skip it.
    """

    def __init__(self, path) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._buffer: List[str] = []
        self._handle = None
        self._closed = False
        self._last_flush = time.monotonic()
        parent = os.path.dirname(os.fspath(path))
        if parent:
            os.makedirs(parent, exist_ok=True)

    def __call__(self, event: dict) -> None:
        line = json.dumps(event, sort_keys=True, default=str)
        with self._lock:
            if self._closed:
                raise ValueError(f"JsonlSink({self.path}) is closed")
            self._buffer.append(line)
            if len(self._buffer) >= FLUSH_EVERY or (
                time.monotonic() - self._last_flush >= FLUSH_SECONDS
            ):
                self._flush_locked()

    def _flush_locked(self) -> None:
        self._last_flush = time.monotonic()
        if not self._buffer:
            return
        if self._handle is None:
            self._handle = open(self.path, "w", encoding="utf-8")
        self._handle.write("".join(line + "\n" for line in self._buffer))
        self._handle.flush()
        self._buffer.clear()

    def flush(self) -> None:
        """Write any buffered events to disk now."""
        with self._lock:
            if not self._closed:
                self._flush_locked()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            try:
                self._flush_locked()
            finally:
                self._closed = True
                if self._handle is not None and not self._handle.closed:
                    self._handle.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety net
        try:
            self.close()
        except Exception:
            pass


# Context-local, not a process global: the serving daemon runs engines on
# background threads concurrently, and a shared global would let their
# scoped set/restore pairs interleave — thread A restoring while thread B
# is active leaves B's telemetry installed forever.  A ContextVar isolates
# each thread (and each asyncio task) completely.
_active: ContextVar[Telemetry] = ContextVar("repro_telemetry", default=NULL)


def get_telemetry() -> Telemetry:
    """The currently active telemetry (a no-op unless one was installed)."""
    return _active.get()


def set_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """Install *telemetry* as the active object; returns the previous one.

    Context-local: the installation is visible in the current thread (and
    anything that inherits its context, e.g. ``asyncio.to_thread``), not
    in threads started beforehand.
    """
    previous = _active.get()
    _active.set(telemetry if telemetry is not None else NULL)
    return previous


@contextmanager
def using_telemetry(telemetry: Optional[Telemetry]):
    """Scope *telemetry* as the active object for a ``with`` block."""
    token = _active.set(telemetry if telemetry is not None else NULL)
    try:
        yield telemetry
    finally:
        _active.reset(token)
