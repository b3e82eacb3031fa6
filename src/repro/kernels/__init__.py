"""Array-backed pipeline kernels (``repro.kernels``).

High-throughput mirrors of the object-model pipeline stages: flat NumPy
state plus vectorized inner loops, proven move-for-move (exchange),
order-identical (assignment) or value-identical (density, IR solve) to
the object backend, which survives as the tests' and the fuzzer's
reference oracle.  ``resolve_backend`` implements the ``backend="auto"``
policy used by :class:`~repro.exchange.FingerPadExchanger`;
``resolve_stage_backend`` is the per-stage variant shared by the staged
assignment/density entry points.

Stage kernels:

* :mod:`.exchange` — SA finger/pad exchange with O(1) Eq.-3 move deltas;
* :mod:`.assign` — IFA (linked-list O(n)) and DFA (closed-form rank
  recurrence) finger orders;
* :mod:`.density` — run/interval congestion accumulation on int arrays;
* :mod:`.irsolve` — factor-once / re-solve-many FD power-grid solver.
"""

from __future__ import annotations

from ..errors import ExchangeError
from .assign import dfa_order, ifa_order
from .density import design_max_density, max_density_of_order
from .exchange import WL_RESYNC_INTERVAL, ArrayExchangeKernel
from .irsolve import GridFactorization, factorize_grid
from .state import SideArrays, WatchedRow, build_side_arrays, row_run_counts

#: Accepted backend names, in documentation order.
BACKENDS = ("auto", "object", "array", "exact")


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ExchangeError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )


def resolve_backend(backend: str, design, ir_proxy=None) -> str:
    """Map a requested backend to a concrete one (``object|array|exact``).

    ``auto`` picks ``array`` at every design size; only a custom
    ``ir_proxy`` keeps it on ``object``.  Explicitly requesting ``array``
    with a custom ``ir_proxy`` is an error — the kernel hard-codes the
    paper's compact gap-spread proxy.
    """
    _check_backend(backend)
    if backend == "array" and ir_proxy is not None:
        raise ExchangeError(
            "backend='array' does not support a custom ir_proxy; "
            "use backend='object'"
        )
    if backend != "auto":
        return backend
    return "object" if ir_proxy is not None else "array"


def resolve_stage_backend(backend: str) -> str:
    """Per-stage ``backend=`` policy for assignment and density estimation.

    Returns ``"object"`` or ``"array"``.  ``auto`` picks ``array``;
    ``"exact"`` — meaningful only to the exchange cost
    machinery — degrades to ``"object"`` so one flow-level ``backend=``
    keyword can drive every stage.
    """
    _check_backend(backend)
    return "object" if backend in ("object", "exact") else "array"


__all__ = [
    "BACKENDS",
    "resolve_backend",
    "resolve_stage_backend",
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
