"""Array-backed pipeline kernels (``repro.kernels``).

The production path of every pipeline stage: flat NumPy state plus
vectorized inner loops, proven move-for-move (exchange), order-identical
(assignment) or value-identical (density, IR solve) to the object model,
which survives only as the tests' and the fuzzer's reference oracle
(:func:`repro.verify.reference_exchange`, ``IFAAssigner.assign`` /
``DFAAssigner.assign``, ``density_map``, ``FDSolver._solve_object``).

Stage kernels:

* :mod:`.exchange` — SA finger/pad exchange with O(1) Eq.-3 move deltas;
* :mod:`.assign` — IFA (linked-list O(n)) and DFA (closed-form rank
  recurrence) finger orders;
* :mod:`.density` — run/interval congestion accumulation on int arrays;
* :mod:`.irsolve` — factor-once / re-solve-many FD power-grid solver.
"""

from __future__ import annotations

from .assign import dfa_order, ifa_order
from .density import design_max_density, max_density_of_order
from .exchange import WL_RESYNC_INTERVAL, ArrayExchangeKernel
from .irsolve import GridFactorization, factorize_grid
from .state import SideArrays, WatchedRow, build_side_arrays, row_run_counts

__all__ = [
    "ArrayExchangeKernel",
    "WL_RESYNC_INTERVAL",
    "SideArrays",
    "WatchedRow",
    "build_side_arrays",
    "row_run_counts",
    "dfa_order",
    "ifa_order",
    "design_max_density",
    "max_density_of_order",
    "GridFactorization",
    "factorize_grid",
]
