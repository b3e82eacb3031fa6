"""SA schedule auto-tuning: grid sweeps as cached engine jobs.

Every (initial_temp, cooling, moves_per_temp, replicate) cell of the grid
becomes one ``tune_cell`` :class:`~repro.runtime.spec.JobSpec` run through
the ordinary :class:`~repro.runtime.engine.JobEngine` — so cells fan out
over the process pool, land in the disk cache, and a re-run of the same
sweep replays ≥90% from cache (wall-clock is measured *inside* the job and
cached with it, which also makes the report byte-deterministic on re-run).

The output is a JSON report + SVG scatter of the (wall-clock, final Eq.-3
cost) plane with the Pareto front and its knee highlighted; the knee
schedules of the Table-1 circuits are what ships as
``repro.presets.TUNED_SCHEDULES``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..runtime.spec import JobSpec
from .pareto import knee_point, pareto_front, render_pareto_svg

#: Default sweep grid: a coarse cube around the paper's hand-picked
#: schedule (T0=0.03, alpha=0.95, 150 moves/temp).
DEFAULT_INITIAL_TEMPS = (0.01, 0.03, 0.1)
DEFAULT_COOLINGS = (0.85, 0.9, 0.95)
DEFAULT_MOVES = (40, 80, 150)


@dataclass(frozen=True)
class SweepGrid:
    """The swept schedule axes; the cross product defines the cells."""

    initial_temps: Tuple[float, ...] = DEFAULT_INITIAL_TEMPS
    coolings: Tuple[float, ...] = DEFAULT_COOLINGS
    moves: Tuple[int, ...] = DEFAULT_MOVES
    final_temp: float = 1e-4
    replicates: int = 2

    def cell_count(self) -> int:
        return (
            len(self.initial_temps)
            * len(self.coolings)
            * len(self.moves)
            * self.replicates
        )


def sweep_specs(
    circuit: int,
    grid: SweepGrid,
    seed: int = 0,
    tiers: int = 1,
) -> List[JobSpec]:
    """One ``tune_cell`` spec per grid cell, in deterministic order.

    Replicate *r* of every schedule runs under seed ``seed + r`` so
    replicates decorrelate while the whole sweep stays a pure function of
    *seed* (the cache key includes the pinned seed).
    """
    specs: List[JobSpec] = []
    for initial_temp in grid.initial_temps:
        for cooling in grid.coolings:
            for moves_per_temp in grid.moves:
                for replicate in range(grid.replicates):
                    params = {
                        "circuit": int(circuit),
                        "tiers": int(tiers),
                        "initial_temp": float(initial_temp),
                        "final_temp": float(grid.final_temp),
                        "cooling": float(cooling),
                        "moves_per_temp": int(moves_per_temp),
                        "replicate": int(replicate),
                    }
                    specs.append(
                        JobSpec("tune_cell", params, seed=seed + replicate)
                    )
    return specs


def aggregate_cells(values: Sequence[Dict]) -> List[Dict]:
    """Mean cost/wall-clock per schedule across its replicates."""
    grouped: Dict[tuple, List[Dict]] = {}
    for value in values:
        schedule = value["schedule"]
        key = (
            schedule["initial_temp"],
            schedule["cooling"],
            schedule["moves_per_temp"],
        )
        grouped.setdefault(key, []).append(value)
    cells: List[Dict] = []
    for key in sorted(grouped):
        members = grouped[key]
        cells.append(
            {
                "schedule": dict(members[0]["schedule"]),
                "cost": sum(m["final_cost"] for m in members) / len(members),
                "seconds": round(
                    sum(m["seconds"] for m in members) / len(members), 6
                ),
                "replicates": len(members),
            }
        )
    return cells


def build_report(
    circuit_name: str, seed: int, grid: SweepGrid, values: Sequence[Dict]
) -> Dict:
    """The sweep's self-describing JSON document."""
    cells = aggregate_cells(values)
    front = pareto_front(cells)
    return {
        "schema": 1,
        "circuit": circuit_name,
        "seed": seed,
        "grid": {
            "initial_temps": list(grid.initial_temps),
            "coolings": list(grid.coolings),
            "moves": list(grid.moves),
            "final_temp": grid.final_temp,
            "replicates": grid.replicates,
        },
        "cells": cells,
        "front": front,
        "knee": knee_point(front),
    }


def write_report(report: Dict, out_dir) -> List[str]:
    """``tune_pareto_<circuit>.json`` + ``.svg`` under *out_dir*."""
    os.makedirs(out_dir, exist_ok=True)
    label = "".join(
        ch if ch.isalnum() or ch in "-_" else "_" for ch in report["circuit"]
    ) or "design"
    json_path = os.path.join(os.fspath(out_dir), f"tune_pareto_{label}.json")
    svg_path = os.path.join(os.fspath(out_dir), f"tune_pareto_{label}.svg")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(svg_path, "w", encoding="utf-8") as handle:
        handle.write(render_pareto_svg(report))
    return [json_path, svg_path]


def run_sweep(
    engine,
    circuit: int,
    grid: Optional[SweepGrid] = None,
    seed: int = 0,
    tiers: int = 1,
) -> Tuple[Dict, List]:
    """Run the full sweep through *engine*; returns (report, outcomes).

    Failed cells abort the sweep with a summary — a report built from a
    partial grid would silently bias the front.
    """
    grid = grid or SweepGrid()
    specs = sweep_specs(circuit, grid, seed=seed, tiers=tiers)
    telemetry = engine.telemetry
    telemetry.emit(
        "tune.begin", circuit=f"circuit{int(circuit)}", cells=len(specs)
    )
    outcomes = engine.run(specs)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures:
        first = failures[0]
        raise RuntimeError(
            f"{len(failures)}/{len(outcomes)} sweep cells failed; first: "
            f"{first.error_class}: {first.error}"
        )
    for outcome in outcomes:
        telemetry.emit(
            "tune.cell",
            circuit=outcome.value["circuit"],
            cost=outcome.value["final_cost"],
            seconds=outcome.value["seconds"],
            cached=outcome.cached,
        )
    report = build_report(
        outcomes[0].value["circuit"],
        seed,
        grid,
        [outcome.value for outcome in outcomes],
    )
    telemetry.emit(
        "tune.end", cells=len(outcomes), front=len(report["front"])
    )
    return report, outcomes
