"""Kernel-reported exchange results against the object oracle at 16k fingers.

The array exchange reports its Eq.-3 breakdowns and omega from the kernel
itself (``ArrayExchangeKernel.breakdown()`` / ``omega()``).  This check
runs ``api.run`` on one 16,384-finger stacking design (psi = 4, so the
bonding term is live too), re-derives the same numbers through the
object model (``CachedExchangeCost`` and ``omega_of_design``) and
requires exact equality: the large-design complement of the Table-1
cases in ``tests/test_kernels.py``.  It prints both timings and exits
non-zero on any mismatch (< 30 s wall clock)::

    PYTHONPATH=src python benchmarks/kernel_report_parity.py
"""

from __future__ import annotations

import sys
import time

from repro import api
from repro.circuits import CircuitSpec, build_design
from repro.exchange import CachedExchangeCost, omega_of_design

FINGERS = 16384
TIERS = 4


def main() -> int:
    design = build_design(
        CircuitSpec(name="parity16k", finger_count=FINGERS, tier_count=TIERS),
        seed=0,
    )
    started = time.perf_counter()
    run = api.run(design, seed=0)
    run_seconds = time.perf_counter() - started
    exchange = run.result.exchange

    started = time.perf_counter()
    oracle = CachedExchangeCost(design, exchange.before)
    expected = {
        "cost_breakdown_before": oracle.breakdown(exchange.before),
        "cost_breakdown_after": oracle.breakdown(exchange.after),
        "omega_before": omega_of_design(exchange.before, TIERS),
        "omega_after": omega_of_design(exchange.after, TIERS),
    }
    oracle_seconds = time.perf_counter() - started

    print(
        f"{FINGERS} fingers, psi={TIERS}: "
        f"api.run {run_seconds:.2f} s (kernel-reported), "
        f"object-oracle report {oracle_seconds:.2f} s"
    )
    failures = []
    for name, value in expected.items():
        reported = getattr(exchange, name)
        if reported != value:
            failures.append(f"{name}: kernel {reported!r} != oracle {value!r}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if not failures:
        print("kernel report == object oracle (breakdowns before/after, omega)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
