"""Batch co-design workloads: ``table3`` and ``large_array``.

Both call ``api.run`` serially in this process.  The untraced run times
whole calls; the traced run (``--trace 1``) times each design once through
``api.run`` and once stage by stage through the public functions
``CoDesignFlow.run`` chains (assign, exchange, evaluate before and after),
and checks that both give the same assignments and metrics.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from .report import Outcome
from .stats import mean, median, percentile, tail_percentile
from .tracing import Tracer, instrument_evaluate, kernel_seconds, layer_totals

#: (Table-1 circuit, tiers psi) cells of ``table3``: the smallest and the
#: largest Table-1 circuit (96 and 448 fingers), 2-D and stacked.  The full
#: ten-cell pass takes about 80 s on two cores and a traced run doubles it,
#: which does not fit the benchmark's per-run time limit.
TABLE3_CELLS = ((1, 1), (5, 1), (1, 4), (5, 4))
#: Cells run again at the end of each pass, so that every run checks that
#: a repeat of the same inputs reproduces the first result.  One pass
#: outlasts a run, so without them ``table3`` would never repeat a cell.
TABLE3_REPEATED = ((1, 1), (1, 4))
TABLE3_GRID = 32

#: ``large_array``: one ``CircuitSpec``-default design of this many fingers.
LARGE_FINGERS = 32768

#: Set-up is timed in this many fresh processes and its median reported.
#: Importing ``repro.api`` is most of it, and one import varies by a fifth.
SETUP_REPEATS = 3

#: The deep output check takes about 17 s at 32,768 fingers, longer than a
#: timed call; untraced runs check larger designs shallowly and leave the
#: deep check to the traced run.
DEEP_CHECK_MAX_FINGERS = 4096


@dataclass(frozen=True)
class Case:
    """One generated co-design input: a circuit spec, its seeds and grid."""

    label: str
    spec: object
    design_seed: int
    sa_seed: int
    grid: Optional[int]


def table3_cases(seed: int) -> List[Case]:
    from repro.circuits import table1_circuit

    rng = random.Random(seed)
    cases = {
        (circuit, tiers): Case(
            f"circuit{circuit}-psi{tiers}",
            table1_circuit(circuit, tier_count=tiers),
            rng.randrange(1 << 30),
            rng.randrange(1 << 30),
            TABLE3_GRID,
        )
        for circuit, tiers in TABLE3_CELLS
    }
    return [cases[cell] for cell in TABLE3_CELLS + TABLE3_REPEATED]


def large_array_cases(seed: int) -> List[Case]:
    from repro.circuits import CircuitSpec

    rng = random.Random(seed)
    spec = CircuitSpec(name="large_array", finger_count=LARGE_FINGERS)
    return [Case("large_array", spec, rng.randrange(1 << 30), rng.randrange(1 << 30), None)]


def _warm_up(fingers: int) -> None:
    """One short co-design so lazy imports and solver set-up are paid."""
    import repro.api as api
    from repro.circuits import CircuitSpec, build_design
    from repro.exchange import SAParams

    design = build_design(CircuitSpec(name="warm-up", finger_count=fingers), seed=0)
    schedule = SAParams(initial_temp=1.0, final_temp=0.4, cooling=0.5, moves_per_temp=2)
    api.run(design, sa_params=schedule, grid=16, seed=0)


def _build(cases: List[Case]) -> list:
    from repro.circuits import build_design

    return [build_design(case.spec, seed=case.design_seed) for case in cases]


def _orders(assignments: Dict) -> Dict:
    return {side.value: assignment.order for side, assignment in assignments.items()}


def _signature(exchange, metrics_initial, metrics_final) -> tuple:
    """Everything a co-design reports, in comparable form."""
    return (
        _orders(exchange.before),
        _orders(exchange.after),
        metrics_initial,
        metrics_final,
        exchange.cost_breakdown_before,
        exchange.cost_breakdown_after,
    )


def _run_signature(result) -> tuple:
    flow = result.result
    return _signature(flow.exchange, flow.metrics_initial, flow.metrics_final)


def check_result(design, result, reference: Optional[tuple], deep: bool = True) -> List[str]:
    """Problems with one ``api.run`` result.

    The first result of a case is checked with
    ``repro.verify.check_assignments``; a repeat of the same inputs must
    then reproduce it exactly, which that check already vouched for.
    """
    if reference is not None:
        return [] if _run_signature(result) == reference else ["repeat differs from first run"]
    from repro.verify import check_assignments

    report = check_assignments(
        design, result.assignments, baseline=result.result.assignments_initial, deep=deep
    )
    return report.codes("error")


def _quality_line(result) -> str:
    flow = result.result
    return (
        f"max IR {flow.metrics_initial.max_ir_drop:.6g} -> {flow.metrics_final.max_ir_drop:.6g}, "
        f"omega {flow.exchange.omega_before} -> {flow.exchange.omega_after}, "
        f"density {flow.metrics_initial.max_density} -> {flow.metrics_final.max_density}, "
        f"Eq.-3 cost {flow.exchange.cost_breakdown_before['total']:.6g} -> "
        f"{flow.exchange.cost_breakdown_after['total']:.6g}"
    )


@dataclass
class Quality:
    """Per-result quality figures, averaged into the end-to-end metrics."""

    ir_ratios: List[float]
    omega_ratios: List[float]
    densities: List[float]
    eq3_ratios: List[float]

    @classmethod
    def empty(cls) -> "Quality":
        return cls([], [], [], [])

    def add(self, design, result) -> None:
        flow = result.result
        self.ir_ratios.append(flow.metrics_final.max_ir_drop / flow.metrics_initial.max_ir_drop)
        if design.stacking.tier_count > 1:
            exchange = flow.exchange
            self.omega_ratios.append(exchange.omega_after / exchange.omega_before)
        self.densities.append(flow.metrics_final.max_density)
        self.eq3_ratios.append(
            flow.exchange.cost_breakdown_after["total"]
            / flow.exchange.cost_breakdown_before["total"]
        )

    def metrics(self) -> Dict[str, float]:
        return {
            "ir_drop_ratio": mean(self.ir_ratios, 1.0),
            # A workload without stacked designs has no bonding term to move.
            "omega_ratio": mean(self.omega_ratios, 1.0),
            "density_after": mean(self.densities, 0.0),
            "eq3_cost": mean(self.eq3_ratios, 1.0),
        }


#: Batch workload name -> (its cases for a seed, fingers of its warm-up).
WORKLOADS = {"table3": (table3_cases, 64), "large_array": (large_array_cases, 1024)}


def setup_once(workload: str, seed: int) -> float:
    """Seconds this process takes to import ``repro.api``, build the
    workload's designs and finish one warm-up co-design.  Meant to run in a
    fresh process, where nothing is imported yet."""
    started = time.perf_counter()
    import repro.api  # noqa: F401

    cases_for_seed, warm_fingers = WORKLOADS[workload]
    _build(cases_for_seed(seed))
    _warm_up(warm_fingers)
    return time.perf_counter() - started


def _setup_seconds(workload: str, seed: int, src: Path) -> float:
    """Median of ``setup_once`` over ``SETUP_REPEATS`` fresh processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src.parent), str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = f"from perfbench.batch import setup_once; print(setup_once({workload!r}, {seed}))"
    seconds = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        seconds.append(float(child.stdout.split()[-1]))
    return median(seconds)


def run_batch(
    workload: str, seed: int, seconds: float, trace: bool, out_dir: Path, src: Path
) -> Outcome:
    cases_for_seed, warm_fingers = WORKLOADS[workload]
    cases = cases_for_seed(seed)
    if trace:
        return _traced(cases, warm_fingers, out_dir)
    setup = _setup_seconds(workload, seed, src)
    designs = _build(cases)
    _warm_up(warm_fingers)
    return _timed(cases, designs, seconds, setup)


def _timed(cases, designs, seconds: float, setup: float) -> Outcome:
    import repro.api as api

    outcome = Outcome()
    quality = Quality.empty()
    references: Dict[str, tuple] = {}
    latencies: List[float] = []
    fingers = 0
    # Whole passes over the cases; only the timed calls count toward the
    # run length, not the checks.  A failure ends the run after its pass.
    while not outcome.attempted or (not outcome.failed and sum(latencies) < seconds):
        for case, design in zip(cases, designs):
            gc.collect()
            started = time.perf_counter()
            try:
                result = api.run(design, grid=case.grid, seed=case.sa_seed)
            except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
                outcome.fail(f"{case.label}: api.run raised {exc!r}")
                continue
            latencies.append(time.perf_counter() - started)
            outcome.note(f"{case.label}: {latencies[-1]:.3f} s, {_quality_line(result)}")
            problems = check_result(
                design,
                result,
                references.get(case.label),
                deep=design.total_net_count <= DEEP_CHECK_MAX_FINGERS,
            )
            if problems:
                outcome.fail(f"{case.label}: {problems[:3]}")
                continue
            if case.label not in references:
                # Quality is averaged over designs; a repeat reproduces it.
                references[case.label] = _run_signature(result)
                quality.add(design, result)
            outcome.succeed()
            fingers += design.total_net_count
    tail = tail_percentile(len(latencies))
    outcome.note(
        f"{len(latencies)} api.run calls; tail = p{tail:g}; "
        f"checks failed: {outcome.failed}"
    )
    timed = latencies or [0.0]
    outcome.metrics.update(
        setup_s=setup,
        codesign_s_p50=median(timed),
        codesign_s_tail=percentile(timed, tail),
        fingers_per_s=fingers / sum(timed) if fingers else 0.0,
        ok_frac=outcome.ok_frac(),
        **quality.metrics(),
    )
    return outcome


def _traced(cases, warm_fingers: int, out_dir: Path) -> Outcome:
    import repro.api as api
    from repro.circuits import build_design

    # Each design is traced once; repeats add time, not layers.
    cases = list({case.label: case for case in cases}.values())
    tracer = Tracer()
    outcome = Outcome()
    designs = []
    for case in cases:
        with tracer.span("circuits.build", op=case.label):
            designs.append(build_design(case.spec, seed=case.design_seed))
    _warm_up(warm_fingers)

    untraced: Dict[str, float] = {}
    kernel = 0.0
    sa = {"proposed": 0, "feasible": 0, "accepted": 0, "uphill": 0, "improved": 0}
    for case, design in zip(cases, designs):
        telemetry = out_dir / f"exchange-{case.label}.jsonl"
        try:
            gc.collect()
            started = time.perf_counter()
            result = api.run(design, grid=case.grid, seed=case.sa_seed)
            elapsed = time.perf_counter() - started
            gc.collect()
            with instrument_evaluate(tracer), tracer.span("flow.run", op=case.label):
                with tracer.span("assign"):
                    assigned = api.assign(design, seed=case.sa_seed)
                with tracer.span("exchange"):
                    exchanged = api.exchange(
                        design, assigned.assignments, seed=case.sa_seed, telemetry=telemetry
                    )
                with tracer.span("flow.evaluate"):
                    before = api.evaluate(design, exchanged.before, grid=case.grid)
                with tracer.span("flow.evaluate"):
                    after = api.evaluate(design, exchanged.after, grid=case.grid)
        except Exception as exc:  # noqa: BLE001 - a failed design is counted, not fatal
            outcome.fail(f"{case.label}: raised {exc!r}")
            continue
        untraced[case.label] = elapsed
        kernel += kernel_seconds(telemetry)
        problems = check_result(design, result, None)
        staged = _signature(exchanged.result, before.metrics, after.metrics)
        if staged != _run_signature(result):
            problems.append("stage-by-stage run differs from api.run")
        if problems:
            outcome.fail(f"{case.label}: {problems[:3]}")
        else:
            outcome.succeed()
        stats = exchanged.stats
        sa["proposed"] += stats.proposed
        sa["feasible"] += stats.proposed - stats.infeasible
        sa["accepted"] += stats.accepted
        sa["uphill"] += stats.accepted_uphill
        sa["improved"] += (
            exchanged.result.cost_breakdown_after["total"]
            < exchanged.result.cost_breakdown_before["total"]
        )

    tracer.write(out_dir / "spans.jsonl")
    return _layer_metrics(outcome, tracer, untraced, kernel, sa, len(cases))


def _layer_metrics(outcome, tracer, untraced, kernel, sa, calls) -> Outcome:
    totals = layer_totals(tracer.spans)

    def busy(name):
        return totals.get(name, {}).get("busy", 0.0)

    # Per design: untraced api.run minus the traced stages it is made of.
    stage_seconds: Dict[str, float] = {}
    for span in tracer.spans:
        if span.name in ("assign", "exchange", "flow.evaluate"):
            stage_seconds[span.op] = stage_seconds.get(span.op, 0.0) + span.seconds
    overheads = [untraced[op] - stage_seconds[op] for op in untraced] or [0.0]
    exchange_busy = busy("exchange")
    evaluate = totals.get("flow.evaluate", {"busy": 0.0, "self": 0.0})
    outcome.metrics.update(
        {
            "exchange.busy_s": exchange_busy,
            "exchange.calls": totals.get("exchange", {}).get("count", 0),
            "exchange.moves_proposed": sa["proposed"],
            "exchange.us_per_move": exchange_busy * 1e6 / sa["proposed"] if sa["proposed"] else 0.0,
            "exchange.kernel_s": kernel,
            "exchange.self_s": exchange_busy - kernel,
            "exchange.moves_accepted": sa["accepted"],
            "exchange.accept_ratio": sa["accepted"] / sa["feasible"] if sa["feasible"] else 0.0,
            "exchange.uphill_accepted": sa["uphill"],
            "exchange.improved_frac": sa["improved"] / calls,
            "routing.density_s": busy("routing.density"),
            "routing.wirelength_s": busy("routing.wirelength"),
            "power.ir_s": busy("power.ir"),
            "power.solves": totals.get("power.ir", {}).get("count", 0),
            "flow.evaluate_s": evaluate["busy"],
            "flow.evaluate_self_s": evaluate["self"],
            "flow.overhead_s": median(overheads),
            "assign.busy_s": busy("assign"),
            "assign.calls": totals.get("assign", {}).get("count", 0),
            "circuits.build_s": busy("circuits.build"),
            "trace.overhead_s": busy("flow.run") - sum(untraced.values()),
            "trace.unexplained_s": totals.get("flow.run", {}).get("self", 0.0),
        }
    )
    outcome.note(
        f"{calls} designs; untraced api.run total {sum(untraced.values()):.3f} s, "
        f"traced stages total {busy('flow.run'):.3f} s"
    )
    return outcome
