"""Metrics registry: the one counter store.

Named counters, gauges and fixed-bucket histograms.  Every count the
library keeps lives in one of these instruments: a
:class:`MetricsRegistry` hangs off each
:class:`~repro.runtime.telemetry.Telemetry` (``telemetry.metrics``), and
calling :meth:`MetricsRegistry.flush` emits one ``metrics`` event carrying
a snapshot of every instrument, so metric series survive the trip from
pool workers to the parent trace like any other event.  The live
aggregate behind ``/metrics`` (:class:`repro.obs.live.LiveRegistry`)
stores the same instrument classes, each carrying an optional label set.

Each registry owns one lock that its instruments take on every update,
so a reader on another thread (the daemon's ``/healthz``) never sees a
half-recorded histogram.  The *disabled* path stays a single attribute
lookup and lock-free: ``telemetry.metrics`` returns
:data:`NULL_REGISTRY` on the no-op telemetry, whose instruments discard
everything.

Histograms use **fixed buckets** declared at creation: recording is a
bisect over the bound list and the snapshot is bounded in size no matter
how many values were recorded — exactly what a 16k-move SA delta series
needs.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from typing import Dict, Optional, Sequence, Tuple

#: Schema version of the ``metrics`` event payload.
METRICS_VERSION = 1

#: Default histogram bounds for SA cost deltas (costs are normalized near
#: 1.0, so genuine Eq.-3 deltas land between 1e-4 and 1e-1 in magnitude).
SA_DELTA_BUCKETS = (
    -0.1, -0.03, -0.01, -0.003, -0.001, -0.0001, 0.0,
    0.0001, 0.001, 0.003, 0.01, 0.03, 0.1,
)

#: Default bounds for engine queue-wait seconds.
QUEUE_WAIT_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0)

#: A label set: sorted ``(name, value)`` pairs (empty when unlabeled).
Labels = Tuple[Tuple[str, str], ...]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value", "_registry")
    kind = "counter"

    def __init__(self, name: str, registry, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._registry = registry

    def inc(self, amount: float = 1) -> None:
        registry = self._registry
        with registry.lock:
            self.value += amount
            registry.dirty = True

    def fold(self, snap: dict) -> None:
        """Add another counter's snapshot (or delta) to this one."""
        self.inc(float(snap.get("value", 0.0)))

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A last-write-wins measurement (plus running min/max)."""

    __slots__ = ("name", "labels", "value", "min", "max", "_registry")
    kind = "gauge"

    def __init__(self, name: str, registry, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: Optional[float] = None
        self.min = math.inf
        self.max = -math.inf
        self._registry = registry

    def set(self, value: float) -> None:
        self.fold({"value": value, "min": value, "max": value})

    def fold(self, snap: dict) -> None:
        """Take another gauge's value and widen min/max by its range."""
        registry = self._registry
        with registry.lock:
            if snap.get("value") is not None:
                self.value = snap["value"]
            if snap.get("min") is not None and snap["min"] < self.min:
                self.min = snap["min"]
            if snap.get("max") is not None and snap["max"] > self.max:
                self.max = snap["max"]
            registry.dirty = True

    def snapshot(self) -> dict:
        with self._registry.lock:
            return {
                "kind": self.kind,
                "value": self.value,
                "min": self.min if self.value is not None else None,
                "max": self.max if self.value is not None else None,
            }


class Histogram:
    """Fixed-bucket distribution: ``len(bounds) + 1`` counts.

    ``counts[i]`` covers ``bounds[i-1] < v <= bounds[i]``; the final bucket
    is the overflow above the last bound.
    """

    __slots__ = (
        "name", "labels", "bounds", "counts", "count", "total", "min", "max",
        "_registry",
    )
    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float], registry,
                 labels: Labels = ()) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted and non-empty: {bounds!r}")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._registry = registry

    def record(self, value: float) -> None:
        registry = self._registry
        with registry.lock:
            self.counts[bisect_right(self.bounds, value)] += 1
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            registry.dirty = True

    def fold(self, snap: dict) -> None:
        """Add another histogram's snapshot (or delta) with equal bounds."""
        if tuple(float(b) for b in snap["bounds"]) != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        counts = [int(c) for c in snap["counts"]]
        if len(counts) != len(self.counts):
            raise ValueError("histogram snapshot has the wrong bucket count")
        registry = self._registry
        with registry.lock:
            for i, c in enumerate(counts):
                self.counts[i] += c
            self.count += int(snap.get("count", sum(counts)))
            self.total += float(snap.get("sum", 0.0))
            if snap.get("min") is not None and snap["min"] < self.min:
                self.min = snap["min"]
            if snap.get("max") is not None and snap["max"] > self.max:
                self.max = snap["max"]
            registry.dirty = True

    def snapshot(self) -> dict:
        with self._registry.lock:
            return {
                "kind": self.kind,
                "bounds": list(self.bounds),
                "counts": list(self.counts),
                "count": self.count,
                "sum": self.total,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None,
            }


#: Instrument class per kind, for registries that build them by name.
INSTRUMENTS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """Named instruments attached to one telemetry object.

    Instruments are memoized by name; asking for the same name with a
    different instrument type is a programming error and raises.
    :meth:`flush` emits a ``metrics`` event with the full snapshot — only
    when something was recorded since the previous flush, so redundant
    flush points (worker exit, engine end) cost nothing.
    """

    def __init__(self, telemetry=None) -> None:
        self._telemetry = telemetry
        self._instruments: Dict[str, object] = {}
        self.lock = threading.Lock()
        self.dirty = False

    def _get(self, name: str, kind: str, *args):
        with self.lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = INSTRUMENTS[kind](name, *args, self)
                self._instruments[name] = instrument
        if instrument.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {instrument.kind}, "
                f"requested {kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, "gauge")

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        return self._get(name, "histogram", bounds)

    def snapshot(self) -> Dict[str, dict]:
        with self.lock:
            instruments = sorted(self._instruments.items())
        return {name: instrument.snapshot() for name, instrument in instruments}

    def counters(self) -> Dict[str, float]:
        """Every counter's current value by name."""
        return {
            name: snap["value"]
            for name, snap in self.snapshot().items()
            if snap["kind"] == "counter"
        }

    def flush(self, **fields) -> Optional[dict]:
        """Emit the registry snapshot as one ``metrics`` event.

        No-op (returns ``None``) when nothing was recorded since the last
        flush or no telemetry is attached.
        """
        if not self.dirty or self._telemetry is None:
            return None
        self.dirty = False
        return self._telemetry.emit(
            "metrics", version=METRICS_VERSION, metrics=self.snapshot(), **fields
        )


class _NullInstrument:
    """Accepts every record and keeps nothing."""

    __slots__ = ()
    kind = "null"

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def record(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class _NullRegistry(MetricsRegistry):
    """The registry of the no-op telemetry: every instrument discards."""

    def __init__(self) -> None:
        super().__init__(telemetry=None)

    def counter(self, name: str):
        return _NULL_INSTRUMENT

    def gauge(self, name: str):
        return _NULL_INSTRUMENT

    def histogram(self, name: str, bounds: Sequence[float]):
        return _NULL_INSTRUMENT

    def flush(self, **fields) -> None:
        return None


NULL_REGISTRY = _NullRegistry()
