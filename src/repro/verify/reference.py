"""The object-model exchange: the reference the array kernel is diffed against.

:class:`~repro.exchange.FingerPadExchanger` anneals on the flat-array
kernel only.  This module keeps the object-model run it replaced —
:class:`~repro.exchange.MoveGenerator` over ``Assignment`` objects, scored
by :class:`~repro.exchange.CachedExchangeCost` (per-side caches) or
:class:`~repro.exchange.ExchangeCost` (from scratch every move) — as one
function.  Under a shared seed it walks the same accept/reject trace as the
kernel and reports the same breakdowns and omega; the parity tests, the
``backends`` fuzz oracle and the kernel benchmarks compare against it.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..assign import Assignment, check_legal, swap_is_legal
# Submodule imports: repro.exchange's package init reaches this module
# through the runtime (checkpoint -> runtime -> verify) before it finishes.
from ..exchange.annealer import SAParams, SimulatedAnnealer
from ..exchange.bonding import omega_of_design
from ..exchange.cost import CostWeights
from ..exchange.exchanger import ExchangeResult
from ..exchange.fastcost import CachedExchangeCost
from ..exchange.moves import MoveGenerator
from ..package import NetType

__all__ = ["reference_exchange"]


def reference_exchange(
    design,
    assignments: Dict,
    weights: Optional[CostWeights] = None,
    params: Optional[SAParams] = None,
    net_type: Optional[NetType] = NetType.POWER,
    power_only: Optional[bool] = None,
    ir_proxy=None,
    track_all_rows: bool = True,
    split_networks: bool = False,
    polish_passes: int = 20,
    seed: Optional[int] = None,
    cost_class=CachedExchangeCost,
) -> ExchangeResult:
    """Anneal + polish *assignments* on the object model.

    Takes :class:`~repro.exchange.FingerPadExchanger`'s options, with
    ``ir_proxy`` (fractions -> raw proxy, e.g. a
    :func:`~repro.power.weighted_compact_cost` closure) in place of
    ``demand``.  ``cost_class`` is ``CachedExchangeCost`` or
    ``ExchangeCost``; the input assignments are not mutated.
    """
    weights = weights or CostWeights()
    before = {side: assignment.copy() for side, assignment in assignments.items()}
    working = {side: assignment.copy() for side, assignment in assignments.items()}
    cost = cost_class(
        design,
        before,
        weights=weights,
        net_type=net_type,
        ir_proxy=ir_proxy,
        track_all_rows=track_all_rows,
        split_networks=split_networks,
    )
    # Only the cached cost needs mutation notices; ExchangeCost re-derives.
    dirty = getattr(cost, "mark_dirty", lambda side: None)
    moves = MoveGenerator(design, working, power_only=power_only)

    def apply(move) -> None:
        moves.apply(move)
        dirty(move.side)

    def undo(move) -> None:
        moves.undo(move)
        dirty(move.side)

    stats = SimulatedAnnealer(params or SAParams()).optimize(
        propose=moves.propose,
        apply=apply,
        undo=undo,
        cost=lambda: cost.total(working),
        seed=seed,
        snapshot=lambda: {side: a.order for side, a in working.items()},
        curve_label=design.name,
    )
    after = {
        side: Assignment(working[side].quadrant, stats.best_snapshot[side])
        for side in working
    }
    if polish_passes:
        _polish(after, cost, polish_passes)
    for assignment in after.values():
        check_legal(assignment)
    psi = design.stacking.tier_count
    return ExchangeResult(
        before=before,
        after=after,
        stats=stats,
        cost_breakdown_before=cost.breakdown(before),
        cost_breakdown_after=cost.breakdown(after),
        omega_before=omega_of_design(before, psi),
        omega_after=omega_of_design(after, psi),
    )


def _polish(assignments: Dict, cost, passes: int) -> None:
    """Zero-temperature finish: sweep every adjacent legal swap.

    Accepting only strict improvements until a full sweep finds none (or
    the pass budget runs out) leaves the result locally optimal under the
    Eq.-3 cost; the kernel's ``polish`` runs the same sweep.
    """
    dirty = getattr(cost, "mark_dirty", lambda side: None)
    if hasattr(cost, "mark_all_dirty"):
        cost.mark_all_dirty()  # the polish operates on a fresh dict
    current = cost.total(assignments)
    for __ in range(passes):
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
