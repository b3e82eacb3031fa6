"""Metric names, units and the result line every run prints last."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

#: End-to-end metrics, printed by every run with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "codesign_s_p50": "s",
    "codesign_s_tail": "s",
    "fingers_per_s": "1/s",
    "ir_drop_ratio": "ratio",
    "omega_ratio": "ratio",
    "density_after": "tracks",
    "eq3_cost": "ratio",
    "ok_frac": "ratio",
}

#: Per-layer metrics, printed by every run with ``--trace 1``.  A layer a
#: workload does not reach reads 0.
PER_LAYER = {
    "exchange.busy_s": "s",
    "exchange.calls": "count",
    "exchange.us_per_move": "us",
    "exchange.moves_proposed": "count",
    "exchange.kernel_s": "s",
    "exchange.self_s": "s",
    "exchange.moves_accepted": "count",
    "exchange.accept_ratio": "ratio",
    "exchange.uphill_accepted": "count",
    "exchange.improved_frac": "ratio",
    "routing.density_s": "s",
    "routing.wirelength_s": "s",
    "power.ir_s": "s",
    "power.solves": "count",
    "flow.evaluate_s": "s",
    "flow.evaluate_self_s": "s",
    "flow.overhead_s": "s",
    "assign.busy_s": "s",
    "assign.calls": "count",
    "circuits.build_s": "s",
    "trace.overhead_s": "s",
    "trace.unexplained_s": "s",
    "serve.requests": "count",
    "serve.submitted": "count",
    "serve.deduped": "count",
    "serve.rejected": "count",
    "serve.failed": "count",
    "serve.batches": "count",
    "serve.batch_size_mean": "count",
    "serve.dedup_frac": "ratio",
    "serve.queue_pending_max": "count",
    "serve.worker_utilization": "ratio",
    "runtime.cache_hit_ratio": "ratio",
    "runtime.cache_lookups": "count",
    "client.sent": "count",
    "client.late_ms_p99": "ms",
}


@dataclass
class Outcome:
    """Operations attempted and failed, the metrics measured, and notes."""

    attempted: int = 0
    failed: int = 0
    #: Operations that completed correctly but missed the latency limit.
    late: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def succeed(self) -> None:
        self.attempted += 1

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.note(f"FAILED {why}")

    def note(self, message: str) -> None:
        self.notes.append(message)

    def ok_frac(self) -> float:
        """Operations that passed every check in time, over those attempted."""
        if not self.attempted:
            return 0.0
        return (self.attempted - self.failed - self.late) / self.attempted

    def result(self, trace: bool) -> dict:
        """The final JSON object: every metric of the mode, with its unit."""
        table = PER_LAYER if trace else END_TO_END
        unknown = set(self.metrics) - set(END_TO_END) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"unregistered metrics: {sorted(unknown)}")
        missing = [name for name in table if name not in self.metrics]
        if missing and not trace:
            raise KeyError(f"end-to-end metrics not measured: {missing}")
        return {
            "correct": self.attempted > 0 and self.failed == 0,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if self.attempted else 1,
            "metrics": {
                name: {"value": float(self.metrics.get(name, 0.0)), "unit": unit}
                for name, unit in table.items()
            },
        }

    def print_notes(self) -> None:
        for message in self.notes:
            print(message)
