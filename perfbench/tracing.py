"""In-memory spans recorded by the benchmark around calls into the program.

The benchmark traces from outside: it opens a span around each public call
it makes and, while :func:`instrument_evaluate` is active, around the three
callees ``api.evaluate`` reaches through ``repro.flow.metrics``.  Spans are
kept in memory and written out as JSONL once the run ends.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span in ``Tracer.spans``, ``None`` at the root.
    parent: Optional[int]
    #: The design or request the span belongs to.
    op: Optional[str]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``span()`` nests on one thread, ``record()`` on any."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._lock = threading.Lock()

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        op: Optional[str] = None,
    ) -> int:
        """Add a finished span; returns its index for use as a parent."""
        with self._lock:
            self.spans.append(Span(name, start, end, parent, op))
            return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        index = self.record(name, self.clock(), float("nan"), parent, op)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent and overlapping children are
    merged first, so concurrent children are not subtracted twice.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.seconds - covered)
    return result


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """``{name: {"busy": s, "self": s, "count": n}}`` summed over spans."""
    totals: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name, {"busy": 0.0, "self": 0.0, "count": 0})
        entry["busy"] += span.seconds
        entry["self"] += own
        entry["count"] += 1
    return totals


@contextlib.contextmanager
def instrument_evaluate(tracer: Tracer):
    """Open spans around the routing and power callees of ``api.evaluate``.

    ``repro.flow.metrics.measure`` looks its callees up in its module
    namespace at call time, so replacing them there (and the analyzer's
    method on its class) times every call; the originals are restored on
    exit.
    """
    from repro.flow import metrics
    from repro.power import IRDropAnalyzer

    def timed(name, function):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return function(*args, **kwargs)

        return wrapper

    saved = (
        metrics.max_density_of_design,
        metrics.total_flyline_length_of_design,
        IRDropAnalyzer.max_drop,
    )
    metrics.max_density_of_design = timed("routing.density", saved[0])
    metrics.total_flyline_length_of_design = timed("routing.wirelength", saved[1])
    IRDropAnalyzer.max_drop = timed("power.ir", saved[2])
    try:
        yield
    finally:
        (
            metrics.max_density_of_design,
            metrics.total_flyline_length_of_design,
            IRDropAnalyzer.max_drop,
        ) = saved


#: The program's own spans inside the exchange stage (array backend:
#: build, anneal, polish; object backend: anneal and its polish).
KERNEL_SPANS = ("kernel.build", "sa.anneal", "kernel.polish", "exchange.polish")


def kernel_seconds(telemetry_path: Path) -> float:
    """Seconds of the program's kernel spans in one ``telemetry=`` JSONL trace."""
    total = 0.0
    with open(telemetry_path, encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            if event.get("event") == "span.end" and event.get("name") in KERNEL_SPANS:
                total += float(event["seconds"])
    return total
