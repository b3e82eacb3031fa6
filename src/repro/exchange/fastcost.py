"""Cached Eq.-3 evaluation for the SA inner loop.

A full :class:`~repro.exchange.cost.ExchangeCost` evaluation walks every
net of every quadrant (pad fractions, section runs, omega groups) — but an
adjacent swap only touches *one* side.  This wrapper keeps per-side caches
of the three ingredients and recomputes only the side a move dirtied,
cutting the per-move cost by roughly the quadrant count (4x on the paper's
packages) while producing *bit-identical* totals
(``tests/test_fastcost.py`` checks equivalence move by move).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..errors import NonFiniteCostError
from ..package import NetType
from .bonding import omega_of_assignment
from .cost import CostWeights, ExchangeCost


class CachedExchangeCost:
    """Drop-in for :class:`ExchangeCost` with per-side memoization.

    The caller must report mutations via :meth:`mark_dirty`; missing a
    notification silently serves stale values, so the exchanger owns all
    calls.
    """

    def __init__(
        self,
        design,
        baseline_assignments: Dict,
        weights: Optional[CostWeights] = None,
        net_type: Optional[NetType] = NetType.POWER,
        ir_proxy=None,
        track_all_rows: bool = True,
        split_networks: bool = False,
    ) -> None:
        self._exact = ExchangeCost(
            design,
            baseline_assignments,
            weights=weights,
            net_type=net_type,
            ir_proxy=ir_proxy,
            track_all_rows=track_all_rows,
            split_networks=split_networks,
        )
        self.design = design
        self.weights = self._exact.weights
        self.psi = self._exact.psi
        self._dirty = {side for side, __ in design}
        # caches, keyed by side
        self._fractions: Dict = {}
        self._fractions_by_net: Dict = {}
        self._section_id: Dict = {}
        self._omega: Dict = {}
        self._wirelength: Dict = {}

    # -- cache maintenance ------------------------------------------------------

    def mark_dirty(self, side) -> None:
        """Invalidate the caches of one side after a swap there."""
        self._dirty.add(side)

    def _refresh(self, assignments: Dict) -> None:
        # design order, not set order: it fixes the caches' summation
        # order, so float totals do not depend on the string-hash seed
        for side in [side for side in self.design.sides if side in self._dirty]:
            assignment = assignments[side]
            quadrant = self.design.quadrants[side]
            exact = self._exact
            # pad fractions of this side, per network
            power, ground = [], []
            for net in quadrant.netlist:
                if net.net_type is NetType.POWER:
                    power.append(
                        self.design.ring_position(side, assignment.slot_of(net.id))
                    )
                elif net.net_type is NetType.GROUND:
                    ground.append(
                        self.design.ring_position(side, assignment.slot_of(net.id))
                    )
            self._fractions_by_net[side] = {
                NetType.POWER: power,
                NetType.GROUND: ground,
            }
            self._section_id[side] = exact.sections.trackers[side].increased_density(
                assignment
            )
            self._omega[side] = omega_of_assignment(assignment, self.psi)
            if exact._wl_initial is not None:
                from ..routing.wirelength import total_flyline_length

                self._wirelength[side] = total_flyline_length(assignment)
        self._dirty.clear()

    # -- collected terms ----------------------------------------------------------

    def _collect_fractions(self, net_type) -> list:
        collected = []
        for side in self.design.sides:
            by_net = self._fractions_by_net[side]
            if net_type is None:
                collected.extend(by_net[NetType.POWER])
                collected.extend(by_net[NetType.GROUND])
            else:
                collected.extend(by_net[net_type])
        return collected

    def ir_term(self, assignments: Dict) -> float:
        self._refresh(assignments)
        exact = self._exact
        if exact.split_networks:
            raw = sum(
                exact.ir_proxy(self._collect_fractions(network))
                for network in (NetType.POWER, NetType.GROUND)
            )
        else:
            raw = exact.ir_proxy(self._collect_fractions(exact.net_type))
        return raw / exact._ir_initial

    def density_term(self, assignments: Dict) -> float:
        self._refresh(assignments)
        return float(max(self._section_id.values()))

    def bonding_term(self, assignments: Dict) -> float:
        self._refresh(assignments)
        return sum(self._omega.values()) / self._exact._omega_initial

    def wirelength_term(self, assignments: Dict) -> float:
        if self._exact._wl_initial is None:
            return 0.0
        self._refresh(assignments)
        return sum(self._wirelength.values()) / self._exact._wl_initial

    def total(self, assignments: Dict) -> float:
        value = self.weights.ir * self.ir_term(assignments)
        value += self.weights.density * self.density_term(assignments)
        if self.psi > 1:
            value += self.weights.bonding * self.bonding_term(assignments)
        if self.weights.wirelength > 0:
            value += self.weights.wirelength * self.wirelength_term(assignments)
        if not math.isfinite(value):
            # Name the poisoned term: a NaN total silently accepted by the
            # SA loop would corrupt every later delta.
            terms = {
                "ir": self.ir_term(assignments),
                "density": self.density_term(assignments),
            }
            if self.psi > 1:
                terms["bonding"] = self.bonding_term(assignments)
            if self.weights.wirelength > 0:
                terms["wirelength"] = self.wirelength_term(assignments)
            bad = [name for name, term in terms.items() if not math.isfinite(term)]
            raise NonFiniteCostError(
                f"exchange cost is non-finite ({value!r}); "
                f"offending term(s): {', '.join(bad) or 'total only'}"
            )
        return value

    def breakdown(self, assignments: Dict) -> Dict[str, float]:
        self.mark_all_dirty()
        result = {
            "ir": self.ir_term(assignments),
            "density": self.density_term(assignments),
        }
        if self.psi > 1:
            result["bonding"] = self.bonding_term(assignments)
        if self.weights.wirelength > 0:
            result["wirelength"] = self.wirelength_term(assignments)
        result["total"] = self.total(assignments)
        return result

    def mark_all_dirty(self) -> None:
        """Invalidate everything (used when whole assignments are replaced)."""
        self._dirty = {side for side, __ in self.design}
