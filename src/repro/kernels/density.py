"""Array-backed pre-route congestion estimation (ROADMAP item 1, stage b).

``repro.routing.density`` walks Python objects: for every watched line it
re-collects the passing nets, sorts their slots and splits them at the via
slots — O(rows * n log n) with large constants.  This kernel computes the
identical run/interval structure with three vectorized passes over flat
int arrays (slot permutation, ball rows, via order), sharing the
``searchsorted`` + ``bincount`` core that ``kernels.state.row_run_counts``
already proved against the object model.

Values are *identical* (they are integer counts), which the
``density_parity`` fuzz oracle and ``tests/test_kernels.py`` assert run for
run against :func:`repro.routing.density.density_map`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..package import Quadrant

__all__ = [
    "quadrant_run_arrays",
    "max_density_of_order",
    "design_max_density",
]


def _flatten(quadrant: Quadrant, order) -> Tuple[np.ndarray, np.ndarray]:
    """``(slot_of, ball_row)`` keyed by net index, from a finger order.

    ``order`` is the assignment's net-id list, leftmost slot first.  Net
    indices follow netlist order, matching ``kernels.state``.
    """
    netlist = list(quadrant.netlist)
    index_of = {net.id: k for k, net in enumerate(netlist)}
    count = len(netlist)
    slot_of = np.empty(count, dtype=np.int64)
    for slot, net_id in enumerate(order):
        slot_of[index_of[net_id]] = slot
    rows = np.fromiter(
        (quadrant.ball_row(net.id) for net in netlist),
        dtype=np.int64,
        count=count,
    )
    return slot_of, rows


def quadrant_run_arrays(
    quadrant: Quadrant, order
) -> List[Tuple[int, np.ndarray, np.ndarray]]:
    """Per watched line: ``(row, wire_counts, interval_counts)`` arrays.

    Mirrors :func:`repro.routing.density.run_partition` for every line
    ``2 .. row_count``: one leftmost run, ``m - 1`` interior runs (one
    interval each) and the rightmost run with two intervals (the free via
    candidate splits it).
    """
    slot_of, rows = _flatten(quadrant, order)
    index_of = {net.id: k for k, net in enumerate(quadrant.netlist)}
    result: List[Tuple[int, np.ndarray, np.ndarray]] = []
    for row in range(2, quadrant.row_count + 1):
        via_nets = np.fromiter(
            (index_of[net_id] for net_id in quadrant.row_nets(row)),
            dtype=np.int64,
        )
        via_slots = np.sort(slot_of[via_nets])
        passing_slots = slot_of[rows < row]
        run_of = np.searchsorted(via_slots, passing_slots, side="left")
        counts = np.bincount(run_of, minlength=len(via_nets) + 1)
        intervals = np.ones(len(via_nets) + 1, dtype=np.int64)
        intervals[-1] = 2
        result.append((row, counts.astype(np.int64), intervals))
    return result


def max_density_of_order(quadrant: Quadrant, order) -> int:
    """Maximum run density of one quadrant order (paper Table 2's metric)."""
    peak = 0
    for _row, counts, intervals in quadrant_run_arrays(quadrant, order):
        if counts.size:
            # ceil(w / i) for integer counts, vectorized.
            densities = -(-counts // intervals)
            peak = max(peak, int(densities.max()))
    return peak


def design_max_density(assignments: Dict) -> int:
    """Maximum density across every quadrant of a design."""
    return max(
        max_density_of_order(assignment.quadrant, assignment.order)
        for assignment in assignments.values()
    )
