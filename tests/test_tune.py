"""Tests for the tuning stack: Pareto math, sweeps, parallel tempering."""

import json
import math
import random

import pytest

from repro.exchange import SAParams, swap_accept
from repro.presets import TUNED_SCHEDULES, resolve_sa_params, tuned_schedule
from repro.runtime import JobEngine, ResultCache, Telemetry
from repro.tune import (
    SweepGrid,
    TemperingConfig,
    chain_temperatures,
    knee_point,
    pareto_front,
    render_pareto_svg,
    run_sweep,
    run_tempering,
    sweep_specs,
    write_report,
)

TINY_GRID = SweepGrid(
    initial_temps=(0.03, 0.1),
    coolings=(0.8,),
    moves=(10,),
    final_temp=0.01,
    replicates=2,
)

TINY_SCHEDULE = SAParams(
    initial_temp=0.03, final_temp=0.005, cooling=0.8, moves_per_temp=10
)


def _cell(cost, seconds):
    return {
        "schedule": {
            "initial_temp": 0.03,
            "final_temp": 1e-4,
            "cooling": 0.9,
            "moves_per_temp": 40,
        },
        "cost": cost,
        "seconds": seconds,
    }


class TestParetoMath:
    def test_front_keeps_only_nondominated_cells(self):
        cells = [_cell(1.0, 1.0), _cell(0.9, 2.0), _cell(1.1, 1.5),
                 _cell(0.95, 3.0)]
        front = pareto_front(cells)
        assert [(c["cost"], c["seconds"]) for c in front] == [
            (1.0, 1.0), (0.9, 2.0)
        ]

    def test_front_is_sorted_fastest_first(self):
        cells = [_cell(0.8, 5.0), _cell(1.0, 1.0), _cell(0.9, 2.0)]
        front = pareto_front(cells)
        assert [c["seconds"] for c in front] == [1.0, 2.0, 5.0]

    def test_duplicate_objectives_collapse_to_one(self):
        cells = [_cell(1.0, 1.0), _cell(1.0, 1.0)]
        assert len(pareto_front(cells)) == 1

    def test_knee_normalizes_both_axes(self):
        # Cost spans 0.1, time spans 100: without normalization the time
        # axis would dominate and pick the 1s point; normalized, the
        # middle point (0.3, 0.3) is nearest the utopia corner.
        front = [_cell(1.0, 1.0), _cell(0.97, 31.0), _cell(0.9, 101.0)]
        knee = knee_point(pareto_front(front))
        assert knee["seconds"] == 31.0

    def test_knee_of_single_point_front(self):
        front = [_cell(1.0, 1.0)]
        assert knee_point(front) == front[0]

    def test_knee_of_empty_front(self):
        assert knee_point([]) is None

    def test_svg_renders_front_and_knee(self):
        cells = [_cell(1.0, 1.0), _cell(0.9, 2.0), _cell(1.1, 1.5)]
        front = pareto_front(cells)
        report = {
            "circuit": "circuit1",
            "cells": cells,
            "front": front,
            "knee": knee_point(front),
        }
        svg = render_pareto_svg(report)
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "knee:" in svg


class TestSwapAccept:
    def test_favourable_swap_always_accepted(self):
        rng = random.Random(0)
        # Hotter chain (b) holds the lower cost: delta >= 0, certain swap.
        accepted, _ = swap_accept(rng, 1.0, 0.5, 0.03, 0.06)
        assert accepted

    def test_unfavourable_swap_needs_boltzmann_luck(self):
        # delta very negative -> exp(delta) ~ 0: never accepted.
        rng = random.Random(0)
        accepted, _ = swap_accept(rng, 0.0, 100.0, 0.03, 0.06)
        assert not accepted

    def test_one_uniform_consumed_either_way(self):
        # The swap rng stream must be a pure function of the swap count.
        rng_a, rng_b = random.Random(7), random.Random(7)
        swap_accept(rng_a, 1.0, 0.5, 0.03, 0.06)   # accepted
        swap_accept(rng_b, 0.0, 100.0, 0.03, 0.06)  # rejected
        assert rng_a.random() == rng_b.random()

    def test_acceptance_probability_matches_formula(self):
        cost_a, cost_b, temp_a, temp_b = 0.95, 1.0, 0.03, 0.0375
        delta = (1 / temp_a - 1 / temp_b) * (cost_a - cost_b)
        expected = math.exp(delta)
        trials = 4000
        rng = random.Random(11)
        hits = sum(
            swap_accept(rng, cost_a, cost_b, temp_a, temp_b)[0]
            for _ in range(trials)
        )
        assert hits / trials == pytest.approx(expected, abs=0.03)


class TestTunedPresets:
    def test_every_table1_size_has_a_bucket(self):
        for nets in (96, 160, 208, 352, 448, 10_000):
            schedule = tuned_schedule(nets)
            assert isinstance(schedule, SAParams)

    def test_buckets_are_ascending(self):
        bounds = [bound for bound, _ in TUNED_SCHEDULES if bound is not None]
        assert bounds == sorted(bounds)
        assert TUNED_SCHEDULES[-1][0] is None

    def test_resolve_passes_through_none_and_params(self):
        assert resolve_sa_params(None) is None
        params = SAParams()
        assert resolve_sa_params(params) is params

    def test_resolve_preset_name(self):
        assert resolve_sa_params("fast").moves_per_temp == 60

    def test_resolve_tuned_needs_a_design(self):
        with pytest.raises(ValueError):
            resolve_sa_params("tuned")

    def test_resolve_tuned_buckets_by_net_count(self):
        from repro.circuits import build_design, table1_circuit

        design = build_design(table1_circuit(1), seed=0)  # 96 nets
        assert resolve_sa_params("tuned", design) == tuned_schedule(96)

    def test_exchanger_accepts_schedule_names(self):
        from repro.circuits import build_design, table1_circuit
        from repro.exchange import FingerPadExchanger

        design = build_design(table1_circuit(1), seed=0)
        exchanger = FingerPadExchanger(design, params="tuned")
        assert exchanger.params == tuned_schedule(design.total_net_count)

    def test_unknown_schedule_name_raises(self):
        from repro.circuits import build_design, table1_circuit
        from repro.exchange import FingerPadExchanger

        design = build_design(table1_circuit(1), seed=0)
        with pytest.raises(KeyError):
            FingerPadExchanger(design, params="nonsense")


class TestSweep:
    def test_specs_are_deterministic_and_cover_the_grid(self):
        specs = sweep_specs(1, TINY_GRID, seed=5)
        assert len(specs) == TINY_GRID.cell_count() == 4
        assert specs == sweep_specs(1, TINY_GRID, seed=5)
        assert {spec.seed for spec in specs} == {5, 6}

    def test_second_run_replays_from_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"

        def once():
            engine = JobEngine(
                jobs=1, cache=ResultCache(cache_dir), telemetry=Telemetry()
            )
            try:
                return run_sweep(engine, 1, grid=TINY_GRID, seed=0)
            finally:
                engine.close()

        report_a, first = once()
        report_b, second = once()
        hits = sum(1 for outcome in second if outcome.cached)
        assert hits / len(second) >= 0.9
        assert not any(outcome.cached for outcome in first)
        # Byte-determinism: cached seconds replay, so the artifacts match.
        paths_a = write_report(report_a, tmp_path / "a")
        paths_b = write_report(report_b, tmp_path / "b")
        for path_a, path_b in zip(paths_a, paths_b):
            assert open(path_a, "rb").read() == open(path_b, "rb").read()

    def test_report_shape(self, tmp_path):
        engine = JobEngine(jobs=1, telemetry=Telemetry())
        try:
            report, outcomes = run_sweep(engine, 1, grid=TINY_GRID, seed=0)
        finally:
            engine.close()
        assert report["circuit"] == "circuit1"
        # 2 schedules x 2 replicates -> 2 aggregated cells.
        assert len(report["cells"]) == 2
        assert all(cell["replicates"] == 2 for cell in report["cells"])
        assert report["knee"] in report["front"]
        paths = write_report(report, tmp_path)
        payload = json.loads(open(paths[0], encoding="utf-8").read())
        assert payload["schema"] == 1
        assert payload["grid"]["replicates"] == 2


class TestTempering:
    def _run(self, jobs, chains=2, seed=11, swap_stride=2):
        engine = JobEngine(jobs=jobs, telemetry=Telemetry())
        try:
            return run_tempering(
                engine,
                1,
                config=TemperingConfig(chains=chains, swap_stride=swap_stride),
                schedule=TINY_SCHEDULE,
                seed=seed,
                polish_passes=2,
            )
        finally:
            engine.close()

    def test_deterministic_across_pool_fanout(self):
        serial = self._run(jobs=1)
        parallel = self._run(jobs=4)
        assert (
            serial["tempering"]["accept_traces"]
            == parallel["tempering"]["accept_traces"]
        )
        assert serial["sa"]["best_cost"] == parallel["sa"]["best_cost"]
        assert serial == parallel

    def test_ladder_is_geometric(self):
        config = TemperingConfig(chains=3, ladder_ratio=2.0)
        temps = chain_temperatures(TINY_SCHEDULE, config)
        assert temps == [0.03, 0.06, 0.12]

    def test_multi_start_mode_never_swaps(self):
        result = self._run(jobs=1, swap_stride=0)
        assert result["tempering"]["swaps_proposed"] == 0
        assert result["tempering"]["rounds"] == 1

    def test_population_best_not_worse_than_worst_chain(self):
        result = self._run(jobs=1, chains=3)
        bests = result["tempering"]["chain_best_costs"]
        assert result["sa"]["best_cost"] == min(bests)

    def test_single_chain_keeps_codesign_result_shape(self):
        result = self._run(jobs=1, chains=1)
        for key in (
            "circuit",
            "density_after_assignment",
            "density_after_exchange",
            "ir_improvement",
            "max_ir_drop_initial",
            "max_ir_drop_final",
            "sa",
        ):
            assert key in result
        assert result["tempering"]["swaps_proposed"] == 0

    def test_adding_chains_never_hurts_the_population_best(self):
        # More replicas only add candidates; the pinned-seed best of K=3
        # must be <= the K=1 best (chain 0 is seed-stable across K).
        single = self._run(jobs=1, chains=1)
        population = self._run(jobs=1, chains=3)
        assert (
            population["sa"]["best_cost"] <= single["sa"]["best_cost"]
        )

    @staticmethod
    def _traced_run(trace, jobs=1, seed=3):
        from repro.obs.schema import SCHEMA_VERSION
        from repro.runtime import JsonlSink

        with JsonlSink(trace) as sink:
            telemetry = Telemetry(sink=sink)
            telemetry.emit(
                "trace.meta", schema=SCHEMA_VERSION, tool="repro",
                command="test",
            )
            engine = JobEngine(jobs=jobs, telemetry=telemetry)
            try:
                run_tempering(
                    engine,
                    1,
                    config=TemperingConfig(chains=2, swap_stride=2),
                    schedule=TINY_SCHEDULE,
                    seed=seed,
                )
            finally:
                engine.close()

    def test_swap_events_validate_against_schema(self, tmp_path):
        from repro.obs.schema import validate_trace

        trace = tmp_path / "trace.jsonl"
        self._traced_run(trace)
        events = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if line.strip()
        ]
        assert any(event["event"] == "sa.swap" for event in events)
        assert any(event["event"] == "sa.curve" for event in events)
        report = validate_trace(events)
        assert report.ok, report.render()

    @pytest.mark.parametrize(
        "circuit, tiers, seed", [(1, 1, 7), (3, 4, 11), (5, 1, 3)]
    )
    def test_single_segment_walks_the_single_chain_anneal(
        self, circuit, tiers, seed
    ):
        # K=1 parity oracle: one segment over the whole schedule, from the
        # genesis state, is the same anneal as SimulatedAnnealer.optimize.
        from repro.assign import DFAAssigner, assign_design
        from repro.circuits import build_design, table1_circuit
        from repro.exchange import (
            SimulatedAnnealer,
            initial_chain_state,
            run_segment,
        )
        from repro.kernels import ArrayExchangeKernel

        design = build_design(table1_circuit(circuit, tier_count=tiers), seed=0)
        baseline = assign_design(DFAAssigner(), design, seed=0)
        schedule = SAParams()
        single = ArrayExchangeKernel(design, baseline)
        stats = SimulatedAnnealer(schedule).optimize(
            single.propose,
            single.apply,
            single.undo,
            single.cost,
            seed=seed,
            snapshot=single.snapshot,
        )
        chain = ArrayExchangeKernel(design, baseline)
        state, samples, accept_trace = run_segment(
            chain,
            initial_chain_state(chain, seed=seed, temperature=schedule.initial_temp),
            steps=schedule.temperature_steps(),
            moves_per_temp=schedule.moves_per_temp,
            cooling=schedule.cooling,
        )
        assert [sample[1] for sample in samples] == stats.cost_trace
        assert sum(accept_trace) == state["accepted"] == stats.accepted
        assert state["best_cost"] == stats.best_cost
        assert chain.orders() == single.orders()

    def test_chains_fold_the_annealer_instruments(self, tmp_path, capsys):
        # Segments run on the annealer's move loop, so a tempering trace
        # carries its per-move sa.delta histogram at any pool fan-out.
        from repro.cli import main

        counts = []
        for jobs in (1, 2):
            trace = tmp_path / f"trace{jobs}.jsonl"
            self._traced_run(trace, jobs=jobs)
            capsys.readouterr()
            assert main(["stats", str(trace), "--format", "json"]) == 0
            report = json.loads(capsys.readouterr().out)
            counts.append(report["metrics"].get("sa.delta", {}).get("count", 0))
        assert counts[0] > 0
        assert counts[0] == counts[1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TemperingConfig(chains=0)
        with pytest.raises(ValueError):
            TemperingConfig(swap_stride=-1)
        with pytest.raises(ValueError):
            TemperingConfig(ladder_ratio=1.0)


class TestTuneCli:
    def test_tune_pareto_rerenders_a_report(self, tmp_path, capsys):
        from repro.cli import main
        from repro.tune import build_report

        report = build_report(
            "circuit1",
            0,
            TINY_GRID,
            [
                {
                    "circuit": "circuit1",
                    "replicate": 0,
                    "schedule": {
                        "initial_temp": 0.03,
                        "final_temp": 0.01,
                        "cooling": 0.8,
                        "moves_per_temp": 10,
                    },
                    "final_cost": 0.95,
                    "best_cost": 0.95,
                    "proposed": 100,
                    "acceptance_ratio": 0.5,
                    "seconds": 0.5,
                }
            ],
        )
        paths = write_report(report, tmp_path)
        svg_out = tmp_path / "re.svg"
        status = main(
            ["tune", "pareto", "--report", str(paths[0]), "--svg", str(svg_out)]
        )
        assert status == 0
        assert svg_out.exists()
        out = capsys.readouterr().out
        assert "knee (recommended)" in out

    def test_tune_pareto_requires_report(self, capsys):
        from repro.cli import main

        assert main(["tune", "pareto"]) == 2

    def test_run_accepts_tempering_flag(self, capsys):
        from repro.cli import main

        status = main(
            ["run", "smoke", "--tempering", "2", "--jobs", "1", "--no-cache"]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "circuit1" in out

    def test_run_summary_covers_every_tempering_round(self, tmp_path, capsys):
        # A tempering run is many engine rounds: the summary reports the
        # whole run span and the job counters summed across the rounds.
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        status = main(
            ["run", "smoke", "--tempering", "2", "--jobs", "1", "--no-cache",
             "--trace", str(trace)]
        )
        assert status == 0
        events = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if line.strip()
        ]
        (run,) = [
            event
            for event in events
            if event["event"] == "span.end" and event["name"] == "run"
        ]
        jobs = sum(
            event["total"] for event in events if event["event"] == "engine.end"
        )
        assert jobs > 2  # more segment jobs than the workload's two specs
        summary = capsys.readouterr().err.strip().splitlines()[-1]
        assert summary.startswith(
            f"done in {run['seconds']:.2f}s: {jobs} jobs, "
            "0 cache hit(s), 0 miss(es)"
        )
