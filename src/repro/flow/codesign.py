"""The two-step chip-package co-design flow (paper Fig. 1(B)).

Step 1: a congestion-driven finger/pad assignment (DFA by default) solves
the wire congestion problem of the package routing.  Step 2: the finger/pad
exchange improves core IR-drop (and bonding wires for stacking ICs) while
suppressing the density increase.  This module chains both steps over a
whole design and measures every stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..assign import Assigner, DFAAssigner, assign_design
from ..errors import FlowError
from ..exchange import (
    CostWeights,
    ExchangeResult,
    FingerPadExchanger,
    SAParams,
)
from ..package import NetType, PackageDesign
from ..power import PowerGridConfig
from .metrics import DesignMetrics, improvement_ratio, measure


@dataclass
class CoDesignResult:
    """Everything the two-step flow produced for one design.

    ``metrics_initial``/``metrics_final`` are ``None`` when the flow was
    run without measurement; the derived properties raise
    :class:`~repro.errors.FlowError` in that case rather than crashing
    with an ``AttributeError`` deep inside a ratio computation.
    """

    design: PackageDesign
    assignments_initial: Dict
    assignments_final: Dict
    exchange: ExchangeResult
    metrics_initial: Optional[DesignMetrics] = None
    metrics_final: Optional[DesignMetrics] = None
    extra: Dict = field(default_factory=dict)

    def _metrics(self) -> tuple:
        if self.metrics_initial is None or self.metrics_final is None:
            missing = [
                name
                for name, value in (
                    ("metrics_initial", self.metrics_initial),
                    ("metrics_final", self.metrics_final),
                )
                if value is None
            ]
            raise FlowError(
                f"co-design result has no {' or '.join(missing)}; "
                "the flow was run without measurement"
            )
        return self.metrics_initial, self.metrics_final

    @property
    def ir_improvement(self) -> float:
        """Table 3's "Improved IR-drop" ratio (0.1061 = 10.61%)."""
        initial, final = self._metrics()
        return improvement_ratio(initial.max_ir_drop, final.max_ir_drop)

    @property
    def bonding_improvement(self) -> float:
        """Table 3's "Improved Bonding wire" ratio."""
        return self.exchange.bonding_improvement

    @property
    def density_after_assignment(self) -> int:
        return self._metrics()[0].max_density

    @property
    def density_after_exchange(self) -> int:
        return self._metrics()[1].max_density


class CoDesignFlow:
    """Configurable two-step flow: assignment then exchange.

    ``verify`` selects the recovery policy (see :mod:`repro.verify.policy`):
    ``off`` runs the pre-verification flow; ``strict`` re-checks the design
    on ingest and each assignment stage on output, raising
    :class:`~repro.errors.VerificationError` on any violation; ``repair``
    re-legalizes an illegal assignment in place and only raises when the
    repair did not restore the invariants; ``degrade`` additionally falls
    back to the deterministic IFA assigner when the configured assigner's
    output cannot be repaired.
    """

    def __init__(
        self,
        assigner: Optional[Assigner] = None,
        weights: Optional[CostWeights] = None,
        sa_params: Optional[SAParams] = None,
        grid_config: Optional[PowerGridConfig] = None,
        net_type: Optional[NetType] = NetType.POWER,
        verify: str = "off",
    ) -> None:
        from ..verify import normalize

        self.assigner = assigner or DFAAssigner()
        self.weights = weights
        self.sa_params = sa_params
        self.grid_config = grid_config
        self.net_type = net_type
        self.verify = normalize(verify)

    def run(
        self, design: PackageDesign, seed: Optional[int] = 0
    ) -> CoDesignResult:
        """Run both steps on *design* and measure before/after."""
        from ..obs.spans import span
        from ..runtime.telemetry import get_telemetry

        telemetry = get_telemetry()
        verifying = self.verify != "off"
        with span("flow.run", telemetry, design=design.name):
            if verifying:
                from ..verify import check_design

                # A malformed design has no automatic repair; every active
                # policy refuses to compute numbers from one.
                check_design(design).raise_if_errors()

            with span("flow.assign", telemetry):
                initial = assign_design(self.assigner, design, seed=seed)
            if verifying:
                initial = self._verified_assignments(
                    design, initial, stage="assignment", seed=seed
                )

            exchanger = FingerPadExchanger(
                design,
                weights=self.weights,
                params=self.sa_params,
                net_type=self.net_type,
            )
            with span("flow.exchange", telemetry):
                exchange = exchanger.run(initial, seed=seed)
            if verifying:
                self._verified_assignments(
                    design,
                    exchange.after,
                    stage="exchange",
                    seed=seed,
                    baseline=exchange.before,
                    degradable=False,
                )
            with span("flow.measure", telemetry):
                metrics_initial = measure(
                    design,
                    exchange.before,
                    grid_config=self.grid_config,
                    net_type=self.net_type,
                )
                metrics_final = measure(
                    design,
                    exchange.after,
                    grid_config=self.grid_config,
                    net_type=self.net_type,
                )
            if verifying:
                from ..verify import check_power_values

                check_power_values(
                    {
                        "max_ir_drop_initial": metrics_initial.max_ir_drop,
                        "max_ir_drop_final": metrics_final.max_ir_drop,
                    }
                ).raise_if_errors()
        return CoDesignResult(
            design=design,
            assignments_initial=exchange.before,
            assignments_final=exchange.after,
            exchange=exchange,
            metrics_initial=metrics_initial,
            metrics_final=metrics_final,
        )

    def _verified_assignments(
        self,
        design: PackageDesign,
        assignments: Dict,
        stage: str,
        seed: Optional[int],
        baseline: Optional[Dict] = None,
        degradable: bool = True,
    ) -> Dict:
        """Apply the recovery policy to one stage's assignments.

        Returns the (possibly repaired or degraded) assignments; raises
        :class:`~repro.errors.VerificationError` when the policy is strict
        or nothing restored the invariants.
        """
        from ..runtime.telemetry import get_telemetry
        from ..verify import (
            DEGRADE,
            REPAIR,
            check_assignments,
            repair_assignments,
        )

        report = check_assignments(design, assignments, baseline=baseline)
        if report.ok:
            return assignments
        telemetry = get_telemetry()
        telemetry.emit(
            "verify.violation",
            stage=stage,
            policy=self.verify,
            codes=report.codes("error"),
        )
        if self.verify in (REPAIR, DEGRADE):
            moved = repair_assignments(design, assignments)
            repaired = check_assignments(design, assignments, baseline=baseline)
            telemetry.emit(
                "verify.repair",
                stage=stage,
                moved=sum(moved.values()),
                ok=repaired.ok,
            )
            if repaired.ok:
                return assignments
            if self.verify == DEGRADE and degradable:
                from ..assign import IFAAssigner

                fallback = assign_design(IFAAssigner(), design, seed=seed)
                check_assignments(design, fallback).raise_if_errors()
                telemetry.emit("verify.degrade", stage=stage, fallback="IFA")
                telemetry.metrics.counter("verify.degraded").inc()
                return fallback
            repaired.raise_if_errors()
        report.raise_if_errors()
        return assignments
