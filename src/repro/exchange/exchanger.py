"""The finger/pad exchange method (paper Fig. 14).

Takes the assignments produced by a congestion-driven assigner (usually DFA)
and anneals adjacent, legality-preserving swaps to simultaneously improve
core IR-drop (via the compact proxy), bonding-wire interleaving (stacking
ICs) and keep the package density in check (Eq. 2's ID penalty).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..assign import check_legal
from ..package import NetType, PackageDesign
from .annealer import SAParams, SAStats, SimulatedAnnealer
from .cost import CostWeights


@dataclass
class ExchangeResult:
    """Everything the exchange step produced."""

    before: Dict
    after: Dict
    stats: SAStats = None
    cost_breakdown_before: Dict[str, float] = field(default_factory=dict)
    cost_breakdown_after: Dict[str, float] = field(default_factory=dict)
    omega_before: int = 0
    omega_after: int = 0

    @property
    def bonding_improvement(self) -> float:
        """Relative omega improvement (Table 3's last column)."""
        if self.omega_before <= 0:
            return 0.0
        return (self.omega_before - self.omega_after) / self.omega_before


class FingerPadExchanger:
    """SA-driven exchange over a whole design (2-D and stacking ICs).

    The anneal runs on :class:`~repro.kernels.ArrayExchangeKernel` — flat
    NumPy state with O(1) swap deltas that also reports its own breakdowns
    and omega.  ``demand`` weights the IR proxy by a per-fraction demand
    (:func:`~repro.power.weighted_compact_cost`); ``None`` is the paper's
    uniform gap-spread proxy.  The object model it mirrors move for move
    survives as the reference oracle, :func:`repro.verify.reference_exchange`.
    """

    def __init__(
        self,
        design: PackageDesign,
        weights: Optional[CostWeights] = None,
        params: Optional[SAParams] = None,
        net_type: Optional[NetType] = NetType.POWER,
        power_only: Optional[bool] = None,
        demand=None,
        track_all_rows: bool = True,
        split_networks: bool = False,
        polish_passes: int = 20,
        wl_resync_interval: Optional[int] = None,
        checkpoint=None,
    ) -> None:
        self.design = design
        self.weights = weights or CostWeights()
        if isinstance(params, str):
            # Schedule names ("tuned", "fast", ...) resolve against the
            # design size; lazy import because presets imports this package.
            from ..presets import resolve_sa_params

            params = resolve_sa_params(params, design)
        self.params = params or SAParams()
        self.net_type = net_type
        self.power_only = power_only
        self.demand = demand
        self.track_all_rows = track_all_rows
        self.split_networks = split_networks
        self.polish_passes = polish_passes
        #: Wirelength resync cadence override (None = the kernel's
        #: default); the fuzzer pins tiny values so short anneals still
        #: cross resync boundaries.
        self.wl_resync_interval = wl_resync_interval
        #: Optional :class:`~repro.exchange.checkpoint.SACheckpointer`:
        #: the anneal periodically persists its full state and resumes
        #: bit-identically after a crash.
        self.checkpoint = checkpoint

    def run(self, assignments: Dict, seed: Optional[int] = None) -> ExchangeResult:
        """Anneal from *assignments*; the input objects are not mutated.

        The kernel reports its own breakdowns and omega.
        """
        import time

        from ..kernels import ArrayExchangeKernel
        from ..obs.spans import span
        from ..runtime.telemetry import get_telemetry

        telemetry = get_telemetry()
        before = {side: assignment.copy() for side, assignment in assignments.items()}
        with span("kernel.build", telemetry):
            kernel = ArrayExchangeKernel(
                self.design,
                before,
                weights=self.weights,
                net_type=self.net_type,
                demand=self.demand,
                track_all_rows=self.track_all_rows,
                split_networks=self.split_networks,
                power_only=self.power_only,
                wl_resync_interval=self.wl_resync_interval,
            )
        with span("kernel.report", telemetry):  # still at the baseline
            breakdown_before = kernel.breakdown()
            omega_before = kernel.omega()
        checkpoint = self.checkpoint
        if checkpoint is not None:
            from .checkpoint import decode_arrays, encode_arrays

            checkpoint.bind(
                capture=kernel.checkpoint_state,
                restore=kernel.restore_checkpoint,
                encode=encode_arrays,
                decode=decode_arrays,
            )
            if checkpoint.run_key is None:
                checkpoint.run_key = self._checkpoint_run_key(kernel, seed)
        annealer = SimulatedAnnealer(self.params)
        anneal_started = time.perf_counter()
        with span("sa.anneal", telemetry):
            stats = annealer.optimize(
                propose=kernel.propose,
                apply=kernel.apply,
                undo=kernel.undo,
                cost=kernel.cost,
                seed=seed,
                snapshot=kernel.snapshot,
                checkpoint=checkpoint,
                curve_label=self.design.name,
            )
        anneal_seconds = time.perf_counter() - anneal_started
        if stats.best_snapshot is not None:
            kernel.restore(stats.best_snapshot)
        if self.polish_passes:
            with span("kernel.polish", telemetry):
                kernel.polish(self.polish_passes)
        if telemetry.enabled:
            telemetry.emit(
                "kernel.stats",
                proposed=stats.proposed,
                swaps=kernel.swap_count,
                resyncs=kernel.resync_count,
                us_per_move=round(anneal_seconds * 1e6 / stats.proposed, 3)
                if stats.proposed
                else 0.0,
                seconds=round(anneal_seconds, 6),
            )
            telemetry.metrics.counter("kernel.resyncs").inc(kernel.resync_count)
        with span("kernel.report", telemetry):
            after = kernel.assignments()
            for assignment in after.values():
                check_legal(assignment)
            return ExchangeResult(
                before=before,
                after=after,
                stats=stats,
                cost_breakdown_before=breakdown_before,
                cost_breakdown_after=kernel.breakdown(),
                omega_before=omega_before,
                omega_after=kernel.omega(),
            )

    def _checkpoint_run_key(self, kernel, seed: Optional[int]) -> str:
        """Identity of one anneal: seed + schedule + weights + baseline.

        A checkpoint whose run key differs answers a different question
        (other seed, other circuit, other schedule) and must read as
        absent rather than resume.
        """
        import hashlib
        import json

        params = self.params
        payload = {
            "seed": seed,
            "schedule": [
                params.initial_temp,
                params.final_temp,
                params.cooling,
                params.moves_per_temp,
            ],
            "weights": [
                self.weights.ir,
                self.weights.density,
                self.weights.bonding,
                self.weights.wirelength,
            ],
            "orders": {
                str(side): order for side, order in kernel.orders().items()
            },
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
