"""The finger/pad exchange method (paper Fig. 14).

Takes the assignments produced by a congestion-driven assigner (usually DFA)
and anneals adjacent, legality-preserving swaps to simultaneously improve
core IR-drop (via the compact proxy), bonding-wire interleaving (stacking
ICs) and keep the package density in check (Eq. 2's ID penalty).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..assign import Assignment, check_legal
from ..package import NetType, PackageDesign
from .annealer import SAParams, SAStats, SimulatedAnnealer
from .bonding import omega_of_design
from .cost import CostWeights, ExchangeCost
from .fastcost import CachedExchangeCost
from .moves import MoveGenerator


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

    ``backend`` selects the cost/move machinery the anneal runs on:

    ``"array"``
        :class:`~repro.kernels.ArrayExchangeKernel` — flat NumPy state
        with O(1) swap deltas that also reports its own breakdowns and
        omega; the production path.
    ``"object"``
        :class:`CachedExchangeCost` over ``Assignment`` objects — the
        reference oracle, move-for-move identical to ``"array"`` under a
        shared seed (proven by ``tests/test_kernels.py``); the only
        backend that accepts a custom ``ir_proxy``.
    ``"exact"``
        :class:`ExchangeCost` re-derived from scratch every move; only
        useful for debugging the caches.
    ``"auto"`` (default)
        ``"array"`` at every size, ``"object"`` when a custom ``ir_proxy``
        is injected (see :func:`repro.kernels.resolve_backend`).
    """

    def __init__(
        self,
        design: PackageDesign,
        weights: Optional[CostWeights] = None,
        params: Optional[SAParams] = None,
        net_type: Optional[NetType] = NetType.POWER,
        power_only: Optional[bool] = None,
        ir_proxy=None,
        track_all_rows: bool = True,
        split_networks: bool = False,
        polish_passes: int = 20,
        backend: str = "auto",
        incremental: Optional[bool] = None,
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
        self.ir_proxy = ir_proxy
        self.track_all_rows = track_all_rows
        self.split_networks = split_networks
        self.polish_passes = polish_passes
        #: Array-backend wirelength resync cadence override (None = the
        #: kernel's default); the fuzzer pins tiny values so short anneals
        #: still cross resync boundaries.
        self.wl_resync_interval = wl_resync_interval
        #: Optional :class:`~repro.exchange.checkpoint.SACheckpointer`:
        #: the anneal periodically persists its full state and resumes
        #: bit-identically after a crash.  Array backend only — the object
        #: backend's cost caches have no captured-state form.
        self.checkpoint = checkpoint
        if incremental is not None:
            warnings.warn(
                "FingerPadExchanger(incremental=...) is deprecated; pass "
                "backend='object' (incremental caches) or backend='exact' "
                "(from-scratch re-evaluation) instead",
                DeprecationWarning,
                stacklevel=2,
            )
            backend = "object" if incremental else "exact"
        from ..kernels import resolve_backend

        self.backend = resolve_backend(backend, design, ir_proxy=ir_proxy)

    @property
    def incremental(self) -> bool:
        """Deprecated alias kept for old callers: True unless ``exact``."""
        return self.backend != "exact"

    def run(self, assignments: Dict, seed: Optional[int] = None) -> ExchangeResult:
        """Anneal from *assignments*; the input objects are not mutated."""
        if self.backend == "array":
            return self._run_array(assignments, seed)
        return self._run_object(assignments, seed)

    def _run_array(self, assignments: Dict, seed: Optional[int]) -> ExchangeResult:
        """Anneal on the flat-array kernel; it reports its own breakdowns."""
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
        with span("sa.anneal", telemetry, backend="array"):
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
                backend="array",
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

    def _run_object(self, assignments: Dict, seed: Optional[int]) -> ExchangeResult:
        if self.checkpoint is not None:
            from ..errors import ExchangeError

            raise ExchangeError(
                "SA checkpointing requires backend='array'; the object "
                "backend's cost caches have no captured-state form"
            )
        before = {side: assignment.copy() for side, assignment in assignments.items()}
        working = {side: assignment.copy() for side, assignment in assignments.items()}

        incremental = self.backend == "object"
        cost_class = CachedExchangeCost if incremental else ExchangeCost
        cost = cost_class(
            self.design,
            before,
            weights=self.weights,
            net_type=self.net_type,
            ir_proxy=self.ir_proxy,
            track_all_rows=self.track_all_rows,
            split_networks=self.split_networks,
        )
        moves = MoveGenerator(
            self.design, working, power_only=self.power_only
        )
        annealer = SimulatedAnnealer(self.params)

        def snapshot() -> Dict:
            return {side: assignment.order for side, assignment in working.items()}

        def apply(move) -> None:
            moves.apply(move)
            if self.incremental:
                cost.mark_dirty(move.side)

        def undo(move) -> None:
            moves.undo(move)
            if self.incremental:
                cost.mark_dirty(move.side)

        from ..obs.spans import span
        from ..runtime.telemetry import get_telemetry

        telemetry = get_telemetry()
        with span("sa.anneal", telemetry, backend=self.backend):
            stats = annealer.optimize(
                propose=moves.propose,
                apply=apply,
                undo=undo,
                cost=lambda: cost.total(working),
                seed=seed,
                snapshot=snapshot,
                curve_label=self.design.name,
            )

        # Restore the best state seen during the anneal.
        best_orders = stats.best_snapshot
        after = {
            side: Assignment(working[side].quadrant, best_orders[side])
            for side in working
        }
        if self.polish_passes:
            with span("exchange.polish", telemetry):
                self._polish(after, cost)
        for assignment in after.values():
            check_legal(assignment)

        psi = self.design.stacking.tier_count
        return ExchangeResult(
            before=before,
            after=after,
            stats=stats,
            cost_breakdown_before=cost.breakdown(before),
            cost_breakdown_after=cost.breakdown(after),
            omega_before=omega_of_design(before, psi),
            omega_after=omega_of_design(after, psi),
        )

    def _polish(self, assignments: Dict, cost) -> None:
        """Zero-temperature finish: sweep every adjacent legal swap.

        Accepting only strict improvements until a full sweep finds none
        (or the pass budget runs out) leaves the result locally optimal
        under the exact Eq.-3 cost — the SA explores, the polish converges.
        """
        from ..assign import swap_is_legal

        def dirty(side) -> None:
            if self.incremental:
                cost.mark_dirty(side)

        if self.incremental:
            cost.mark_all_dirty()  # the polish operates on a fresh dict
        current = cost.total(assignments)
        for __ in range(self.polish_passes):
            improved = False
            for side, assignment in assignments.items():
                for slot in range(1, assignment.slot_count):
                    if not swap_is_legal(assignment, slot, slot + 1):
                        continue
                    assignment.swap_slots(slot, slot + 1)
                    dirty(side)
                    candidate = cost.total(assignments)
                    if candidate < current - 1e-12:
                        current = candidate
                        improved = True
                    else:
                        assignment.swap_slots(slot, slot + 1)
                        dirty(side)
            if not improved:
                break
