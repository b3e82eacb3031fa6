"""Output checks: a failed check is counted and lowers ``ok_frac``."""

import json
from pathlib import Path

import pytest

from perfbench import batch, report
from perfbench.report import Outcome

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def small_run():
    import repro.api as api
    from repro.circuits import build_design, table1_circuit
    from repro.exchange import SAParams

    design = build_design(table1_circuit(1), seed=0)
    schedule = SAParams(initial_temp=1.0, final_temp=0.4, cooling=0.5, moves_per_temp=4)
    return design, api.run(design, sa_params=schedule, grid=8, seed=0)


def test_clean_result_passes_and_repeat_must_match(small_run):
    design, result = small_run
    assert batch.check_result(design, result, None) == []
    reference = batch._run_signature(result)
    assert batch.check_result(design, result, reference) == []
    assert batch.check_result(design, result, reference[:-1] + ({},)) != []


@pytest.mark.parametrize("deep", [True, False])
def test_corrupted_result_fails_its_check_and_lowers_ok_frac(small_run, deep):
    from repro.assign import Assignment

    design, result = small_run
    final = result.result.assignments_final
    side, assignment = next(iter(final.items()))
    saved = final[side]
    final[side] = Assignment(assignment.quadrant, list(reversed(assignment.order)))
    try:
        problems = batch.check_result(design, result, None, deep=deep)
    finally:
        final[side] = saved
    assert problems

    outcome = Outcome()
    outcome.succeed()
    outcome.fail(f"corrupted: {problems}")
    assert outcome.ok_frac() == 0.5
    outcome.metrics.update({name: 1.0 for name in report.END_TO_END})
    line = outcome.result(trace=False)
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (2, 1)


def test_late_replies_are_misses_but_not_failures():
    outcome = Outcome()
    for _ in range(4):
        outcome.succeed()
    outcome.late = 1
    assert outcome.ok_frac() == 0.75
    assert outcome.failed == 0


def test_result_line_has_every_metric_of_its_mode():
    outcome = Outcome()
    outcome.succeed()
    with pytest.raises(KeyError):
        outcome.result(trace=False)
    traced = outcome.result(trace=True)
    assert list(traced["metrics"]) == list(report.PER_LAYER)
    assert traced["metrics"]["serve.requests"] == {"value": 0.0, "unit": "count"}
    outcome.metrics["made.up"] = 1.0
    with pytest.raises(KeyError):
        outcome.result(trace=True)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == report.PER_LAYER
    from perfbench.run import WORKLOADS

    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
