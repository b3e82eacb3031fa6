"""Tuning-stack smoke test: ``make tune-smoke`` (the CI check).

A tiny 2x2x1 sweep on circuit1 run twice against a throwaway cache —
the second pass must replay >= 90% of its cells from cache and produce a
byte-identical report — followed by a K=2 tempering run whose trace
(including the ``sa.swap`` events) must validate against the telemetry
schema and fold a non-empty ``sa.delta`` histogram (the chains' moves
run on the annealer's instrumented loop).  Everything runs in-process
against a temp directory; the whole check takes a few seconds.

Run with::

    PYTHONPATH=src python -m repro.tune.smoke
"""

from __future__ import annotations

import json
import os
import sys
import tempfile


def main() -> int:
    from ..exchange import SAParams
    from ..obs.schema import SCHEMA_VERSION, validate_trace
    from ..obs.stats import stats_summary
    from ..runtime import JobEngine, JsonlSink, ResultCache, Telemetry
    from . import SweepGrid, TemperingConfig, run_sweep, run_tempering, write_report

    failures = []
    grid = SweepGrid(
        initial_temps=(0.03, 0.1),
        coolings=(0.8, 0.9),
        moves=(10,),
        final_temp=0.01,
        replicates=1,
    )
    with tempfile.TemporaryDirectory(prefix="repro-tune-smoke-") as tmp:
        cache_dir = os.path.join(tmp, "cache")

        def sweep_once(out_name):
            engine = JobEngine(
                jobs=2, cache=ResultCache(cache_dir), telemetry=Telemetry()
            )
            try:
                report, outcomes = run_sweep(engine, 1, grid=grid, seed=0)
            finally:
                engine.close()
            paths = write_report(report, os.path.join(tmp, out_name))
            return outcomes, paths

        first_outcomes, first_paths = sweep_once("first")
        second_outcomes, second_paths = sweep_once("second")
        hits = sum(1 for outcome in second_outcomes if outcome.cached)
        ratio = hits / len(second_outcomes)
        print(f"sweep re-run: {hits}/{len(second_outcomes)} cache hits")
        if ratio < 0.9:
            failures.append(
                f"second sweep replayed only {ratio:.0%} from cache (< 90%)"
            )
        for path_a, path_b in zip(first_paths, second_paths):
            with open(path_a, "rb") as a, open(path_b, "rb") as b:
                if a.read() != b.read():
                    failures.append(
                        f"sweep re-run artifact differs: "
                        f"{os.path.basename(path_a)}"
                    )

        trace_path = os.path.join(tmp, "tempering.jsonl")
        with JsonlSink(trace_path) as sink:
            telemetry = Telemetry(sink=sink)
            telemetry.emit(
                "trace.meta", schema=SCHEMA_VERSION, tool="repro",
                command="tune-smoke",
            )
            engine = JobEngine(jobs=2, telemetry=telemetry)
            try:
                result = run_tempering(
                    engine,
                    1,
                    config=TemperingConfig(chains=2, swap_stride=2),
                    schedule=SAParams(
                        initial_temp=0.03,
                        final_temp=0.005,
                        cooling=0.8,
                        moves_per_temp=10,
                    ),
                    seed=3,
                    polish_passes=2,
                )
            finally:
                engine.close()
        with open(trace_path, encoding="utf-8") as handle:
            events = [json.loads(line) for line in handle if line.strip()]
        swaps = [event for event in events if event.get("event") == "sa.swap"]
        deltas = stats_summary(events)["metrics"].get("sa.delta", {}).get("count", 0)
        print(
            f"tempering: best {result['sa']['best_cost']:.4f}, "
            f"{len(swaps)} sa.swap event(s), {deltas} sa.delta sample(s)"
        )
        if not swaps:
            failures.append("tempering trace carries no sa.swap events")
        if not deltas:
            failures.append("tempering trace folds no sa.delta count")
        report = validate_trace(events, subject="tempering trace")
        if not report.ok:
            failures.append(f"tempering trace invalid: {report.render()}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("tune-smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
