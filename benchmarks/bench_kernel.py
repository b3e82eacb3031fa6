"""Exchange throughput: the array kernel vs the object-model reference.

``bench_scaling`` sweeps the *assignment* step; this bench sweeps the
*exchange* step — the SA loop that dominates the co-design flow — far past
the paper's largest circuit (448 fingers).  For each design size it runs
one fixed-temperature anneal (no polish) through
:class:`~repro.exchange.FingerPadExchanger` and through
:func:`repro.verify.reference_exchange`, and reports microseconds per
proposed move and the speedup.  The reference re-derives a dirtied side's
runs on every evaluation (O(rows x n) per move), so its per-move cost
grows with the design while the kernel's stays flat; the speedup therefore
*increases* with size.  The acceptance floor: >= 10x at 1792 fingers.

Also runnable without pytest as a CI smoke::

    PYTHONPATH=src python benchmarks/bench_kernel.py --smoke

which sweeps only 448/1792, asserts array >= 2x the reference at 1792 and
exits non-zero otherwise (< 30 s wall clock).
"""

from __future__ import annotations

from repro.assign import assign_design
import argparse
import sys
import time

from repro.assign import DFAAssigner
from repro.circuits import CircuitSpec, build_design
from repro.exchange import FingerPadExchanger, SAParams
from repro.verify import reference_exchange

FULL_COUNTS = (448, 1792, 7168, 14336)
SMOKE_COUNTS = (448, 1792)

#: Move budget for the array kernel (O(1)/move: generous budgets are cheap).
ARRAY_MOVES = 4000
#: Per-size move budgets for the object-model reference, shrinking with size
#: so the largest sweep points stay minutes-not-hours (its per-move cost is
#: O(rows x n)); microseconds/move stays comparable regardless of budget.
OBJECT_MOVES = {448: 1500, 1792: 400, 7168: 60, 14336: 20}


def _one_step(moves: int) -> SAParams:
    """A single-temperature schedule of exactly *moves* proposals."""
    return SAParams(
        initial_temp=0.03, final_temp=0.029, cooling=0.95, moves_per_temp=moves
    )


def _us_per_move(run) -> float:
    """Microseconds per proposed move of one timed exchange call."""
    start = time.perf_counter()
    result = run()
    return (time.perf_counter() - start) / result.stats.proposed * 1e6


def measure_point(count: int, object_moves: int) -> dict:
    """Kernel and reference on one design size; returns the comparison row."""
    design = build_design(
        CircuitSpec(name=f"kernel{count}", finger_count=count), seed=0
    )
    baseline = assign_design(DFAAssigner(), design)
    exchanger = FingerPadExchanger(
        design, params=_one_step(ARRAY_MOVES), polish_passes=0
    )
    array_us = _us_per_move(lambda: exchanger.run(baseline, seed=0))
    object_us = _us_per_move(
        lambda: reference_exchange(
            design, baseline, params=_one_step(object_moves), polish_passes=0, seed=0
        )
    )
    return {
        "count": count,
        "object_us": object_us,
        "array_us": array_us,
        "speedup": object_us / array_us,
    }


def sweep(counts) -> list:
    return [measure_point(count, OBJECT_MOVES[count]) for count in counts]


def render(rows) -> str:
    lines = ["fingers   object us/move   array us/move   speedup"]
    for row in rows:
        lines.append(
            f"{row['count']:>7}   {row['object_us']:>14.1f}   "
            f"{row['array_us']:>13.2f}   {row['speedup']:>6.1f}x"
        )
    return "\n".join(lines)


def write_record(rows) -> None:
    """Persist the sweep as a ``repro stats --compare``-able bench record."""
    from pathlib import Path

    from repro.obs.bench import write_bench_record

    metrics = {}
    for row in rows:
        count = row["count"]
        metrics[f"object_us_{count}"] = round(row["object_us"], 3)
        metrics[f"array_us_{count}"] = round(row["array_us"], 3)
        metrics[f"speedup_{count}"] = round(row["speedup"], 2)
    results = Path(__file__).resolve().parent.parent / "results"
    results.mkdir(exist_ok=True)
    write_bench_record(
        results / "BENCH_kernel.json",
        "kernel_speedup",
        metrics,
        seed=0,
        context={
            "counts": [row["count"] for row in rows],
            "array_moves": ARRAY_MOVES,
        },
    )


def test_kernel_speedup(benchmark, record_result):
    rows = benchmark.pedantic(lambda: sweep(FULL_COUNTS), rounds=1, iterations=1)
    record_result("kernel_speedup", render(rows))
    write_record(rows)

    by_count = {row["count"]: row for row in rows}
    # the ISSUE's acceptance floor, far below what the kernel delivers
    assert by_count[1792]["speedup"] >= 10.0
    # the speedup must grow with design size (the whole point of O(1) moves)
    assert by_count[14336]["speedup"] > by_count[448]["speedup"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="448/1792 only; assert array >= 2x the reference at 1792 (CI gate)",
    )
    args = parser.parse_args(argv)
    counts = SMOKE_COUNTS if args.smoke else FULL_COUNTS
    rows = sweep(counts)
    print(render(rows))
    write_record(rows)
    if args.smoke:
        speedup = next(r["speedup"] for r in rows if r["count"] == 1792)
        if speedup < 2.0:
            print(f"FAIL: array kernel only {speedup:.1f}x at 1792 fingers")
            return 1
        print(f"smoke OK: {speedup:.1f}x at 1792 fingers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
