"""Order statistics and the open-loop schedule, free of any program import."""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only when at least this many samples lie
#: beyond it.  On a shared two-core host, the slow phases of the host
#: stretch the top tenth of a 240-request run: its p90 (24 beyond) moved
#: by 17-26% (IQR / median) from run to run and its p75 (60 beyond) by 6%.
MIN_SAMPLES_BEYOND = 60


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (NumPy's default ``linear`` rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with ``MIN_SAMPLES_BEYOND`` samples past it.

    Below that sample size no percentile above the median is supported,
    so the median is returned and the tail reads the same as the median.
    """
    best = PERCENTILE_LADDER[0]
    for pct in PERCENTILE_LADDER:
        # Rounded: 100 - 99.9 is not exactly 0.1 in binary floating point.
        if round(count * (100.0 - pct) / 100.0, 9) >= MIN_SAMPLES_BEYOND:
            best = pct
    return best


def mean(values: Sequence[float], empty: float) -> float:
    """Arithmetic mean, or *empty* when there is nothing to average."""
    return sum(values) / len(values) if values else empty


# -- open-loop request generation --------------------------------------------


@dataclass(frozen=True)
class Sample:
    """One request of an open loop: when it was due, sent and answered."""

    index: int
    due: float
    sent: float
    done: float
    outcome: object

    @property
    def latency(self) -> float:
        """Seconds from the scheduled send time to the reply."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the generator sent this request after its due time."""
        return self.sent - self.due


def run_open_loop(
    offsets: Sequence[float],
    send: Callable[[int, int], object],
    connections: int,
    join_timeout: Optional[float] = None,
) -> List[Sample]:
    """Send request ``i`` at ``start + offsets[i]`` over *connections* lanes.

    ``send(lane, i)`` performs request ``i`` on connection *lane* and
    blocks until its reply.  The schedule never adapts to the replies: a
    request whose lane is still busy at its due time goes out late, and
    its latency is counted from the due time, so a stall shows in every
    request it delays.
    """
    lock = threading.Lock()
    cursor = iter(range(len(offsets)))
    samples: List[Optional[Sample]] = [None] * len(offsets)
    start = time.perf_counter()

    def lane(lane_id: int) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + offsets[index]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            try:
                outcome = send(lane_id, index)
            except Exception as exc:  # noqa: BLE001 - recorded as a failed request
                outcome = exc
            samples[index] = Sample(index, due, sent, time.perf_counter(), outcome)

    threads = [
        threading.Thread(target=lane, args=(lane_id,), daemon=True)
        for lane_id in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(join_timeout)
    if any(thread.is_alive() for thread in threads):
        raise TimeoutError("an open-loop lane did not finish in time")
    return [sample for sample in samples if sample is not None]
