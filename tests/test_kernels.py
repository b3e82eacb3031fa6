"""Array exchange kernel: parity with the object model, proven not assumed.

The contract of ``repro.kernels`` is strong: under a shared seed the array
kernel must walk the *identical* accept/reject trace as the object-model
reference (:func:`repro.verify.reference_exchange`) and land on the
identical final assignment, while its incrementally maintained Eq.-3 total
stays within 1e-9 of the exact from-scratch model at every probe point.
These tests enforce that contract on every Table-2/Table-3 circuit, with
the uniform and the demand-weighted IR proxy, and on hypothesis-generated
designs.
"""

from repro.assign import assign_design
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign import DFAAssigner, RandomAssigner
from repro.circuits import CircuitSpec, boundary_demand, build_design, table1_circuit
from repro.circuits.realchip import build_realchip
from repro.errors import ExchangeError, NonFiniteCostError
from repro.exchange import (
    CachedExchangeCost,
    CostWeights,
    ExchangeCost,
    FingerPadExchanger,
    MoveGenerator,
    SAParams,
    omega_of_design,
)
from repro.exchange.annealer import SimulatedAnnealer
from repro.kernels import ArrayExchangeKernel, row_run_counts
from repro.package import NetType
from repro.power import weighted_compact_cost
from repro.routing.density import run_partition
from repro.runtime import Telemetry, using_telemetry
from repro.verify import check_exchange_total, reference_exchange

FAST_SA = SAParams(
    initial_temp=0.03, final_temp=1e-3, cooling=0.9, moves_per_temp=60
)

ALL_CONFIGS = [(tiers, index) for tiers in (1, 4) for index in (1, 2, 3, 4, 5)]


def circuit_design(index, tiers):
    return build_design(table1_circuit(index, tier_count=tiers), seed=0)


def run_object_backend(design, baseline, params, seed, weights=None):
    """Anneal through MoveGenerator + CachedExchangeCost, recording the trace."""
    working = {side: a.copy() for side, a in baseline.items()}
    cost = CachedExchangeCost(design, baseline, weights=weights)
    moves = MoveGenerator(design, working)
    trace = []

    def apply(move):
        moves.apply(move)
        cost.mark_dirty(move.side)
        trace.append((move.side, move.slot_a, True))

    def undo(move):
        moves.undo(move)
        cost.mark_dirty(move.side)
        trace[-1] = (move.side, move.slot_a, False)

    stats = SimulatedAnnealer(params).optimize(
        moves.propose,
        apply,
        undo,
        lambda: cost.total(working),
        seed=seed,
        snapshot=lambda: {side: a.order for side, a in working.items()},
    )
    return trace, {side: a.order for side, a in working.items()}, stats


def run_array_backend(design, baseline, params, seed, weights=None):
    """Anneal through ArrayExchangeKernel, recording the same-shape trace."""
    kernel = ArrayExchangeKernel(design, baseline, weights=weights)
    sides = list(design.sides)
    trace = []

    def apply(move):
        kernel.apply(move)
        trace.append((sides[move[0]], move[1], True))

    def undo(move):
        kernel.undo(move)
        trace[-1] = (sides[move[0]], move[1], False)

    stats = SimulatedAnnealer(params).optimize(
        kernel.propose, apply, undo, kernel.cost, seed=seed,
        snapshot=kernel.snapshot,
    )
    return trace, kernel.orders(), stats, kernel


class TestTraceParity:
    """Identical accept/reject traces + final states under shared seeds."""

    @pytest.mark.parametrize("tiers,index", ALL_CONFIGS)
    def test_all_table_circuits(self, tiers, index):
        design = circuit_design(index, tiers)
        baseline = assign_design(RandomAssigner(), design, seed=3)
        trace_o, final_o, stats_o = run_object_backend(
            design, baseline, FAST_SA, seed=9
        )
        trace_a, final_a, stats_a, kernel = run_array_backend(
            design, baseline, FAST_SA, seed=9
        )
        assert trace_o == trace_a
        assert final_o == final_a
        assert stats_o.accepted == stats_a.accepted
        # Uphill counts only moves above BEST_IMPROVEMENT_EPS, so a zero
        # delta read as +1e-16 by one cost path does not split the counts.
        assert stats_o.accepted_uphill == stats_a.accepted_uphill
        assert stats_o.best_snapshot == kernel.orders(stats_a.best_snapshot)
        assert stats_o.best_cost == pytest.approx(stats_a.best_cost, rel=1e-9)

    def test_different_seeds_do_differ(self):
        """Sanity: the parity above is not a vacuous always-equal check."""
        design = circuit_design(1, 1)
        baseline = assign_design(RandomAssigner(), design, seed=3)
        trace_a, __, __, __ = run_array_backend(design, baseline, FAST_SA, seed=9)
        trace_b, __, __, __ = run_array_backend(design, baseline, FAST_SA, seed=10)
        assert trace_a != trace_b


def orders_of(assignments):
    return {side: a.order for side, a in assignments.items()}


def assert_same_exchange(kernel_result, reference_result):
    """Orders, breakdowns, omega and every SAStats count must agree exactly."""
    assert orders_of(kernel_result.after) == orders_of(reference_result.after)
    assert kernel_result.omega_before == reference_result.omega_before
    assert kernel_result.omega_after == reference_result.omega_after
    assert kernel_result.cost_breakdown_before == reference_result.cost_breakdown_before
    assert kernel_result.cost_breakdown_after == reference_result.cost_breakdown_after
    for field in ("proposed", "infeasible", "accepted", "accepted_uphill"):
        assert getattr(kernel_result.stats, field) == getattr(
            reference_result.stats, field
        ), field
    assert kernel_result.stats.cost_trace == pytest.approx(
        reference_result.stats.cost_trace, rel=1e-12
    )


class TestExchangerParity:
    """FingerPadExchanger end-to-end (anneal + polish + reporting) against
    the object-model reference on both of its cost classes."""

    @pytest.mark.parametrize("tiers,index", [(1, 1), (1, 3), (4, 1), (4, 3)])
    def test_final_assignments_identical(self, tiers, index):
        design = circuit_design(index, tiers)
        baseline = assign_design(DFAAssigner(), design)
        result_a = FingerPadExchanger(design, params=FAST_SA).run(baseline, seed=9)
        for cost_class in (CachedExchangeCost, ExchangeCost):
            result_o = reference_exchange(
                design, baseline, params=FAST_SA, seed=9, cost_class=cost_class
            )
            assert_same_exchange(result_a, result_o)

    def test_full_default_schedule(self):
        """One run at the paper's full SA schedule, not just the fast one."""
        design = circuit_design(1, 4)
        baseline = assign_design(DFAAssigner(), design)
        result_o = reference_exchange(design, baseline, seed=7)
        result_a = FingerPadExchanger(design).run(baseline, seed=7)
        assert_same_exchange(result_a, result_o)


class TestDemandParity:
    """The demand-weighted IR proxy on the kernel vs the object model's
    ``weighted_compact_cost`` proxy: exact breakdowns, identical orders."""

    @staticmethod
    def exchange_both(design, baseline, demand, **options):
        kernel = FingerPadExchanger(design, demand=demand, **options).run(
            baseline, seed=5
        )
        reference = reference_exchange(
            design,
            baseline,
            ir_proxy=lambda fractions: weighted_compact_cost(fractions, demand),
            seed=5,
            **options,
        )
        return kernel, reference

    def test_realchip_drop_map_demand(self):
        from repro.circuits.realchip import (
            drop_map_demand,
            hotspot_current_map,
            realchip_grid_config,
        )
        from repro.power import FDSolver

        design = build_realchip()
        config = realchip_grid_config(size=24)
        solver = FDSolver(config, current_map=hotspot_current_map(config))
        baseline = assign_design(DFAAssigner(), design)
        demand = drop_map_demand(design, baseline, config, solver)
        kernel, reference = self.exchange_both(
            design, baseline, demand, params=FAST_SA, net_type=None,
            weights=CostWeights(ir=1.0, density=0.05, bonding=0.0),
        )
        assert_same_exchange(kernel, reference)
        assert kernel.cost_breakdown_after["ir"] < 1.0

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("tiers,index", [(1, 2), (4, 3)])
    def test_boundary_demand_table1(self, tiers, index, split):
        design = circuit_design(index, tiers)
        baseline = assign_design(DFAAssigner(), design)
        kernel, reference = self.exchange_both(
            design, baseline, boundary_demand, params=FAST_SA, split_networks=split
        )
        assert_same_exchange(kernel, reference)

    def test_single_pad_class(self):
        """One pad per class exercises the one-gap wrap form."""
        design = build_design(
            CircuitSpec(name="lonely", finger_count=16, supply_fraction=0.07),
            seed=1,
        )
        baseline = assign_design(DFAAssigner(), design)
        kernel, reference = self.exchange_both(
            design, baseline, boundary_demand, params=FAST_SA, net_type=None
        )
        assert_same_exchange(kernel, reference)

    def test_walk_breakdown_equals_oracle(self):
        design = circuit_design(3, 1)
        baseline = assign_design(RandomAssigner(), design, seed=2)
        kernel = ArrayExchangeKernel(design, baseline, demand=boundary_demand)
        proxy = lambda fractions: weighted_compact_cost(fractions, boundary_demand)  # noqa: E731
        oracle = CachedExchangeCost(design, baseline, ir_proxy=proxy)
        exact = ExchangeCost(design, baseline, ir_proxy=proxy)
        assert kernel.breakdown() == oracle.breakdown(baseline)
        assert kernel.cost() == exact.total(baseline)
        rng = random.Random(3)
        for __ in range(400):
            move = kernel.propose(rng)
            if move is not None:
                kernel.apply(move)
        after = kernel.assignments()
        assert kernel.breakdown() == oracle.breakdown(after)
        assert kernel.cost() == pytest.approx(exact.total(after), rel=1e-12)

    def test_checkpoint_keeps_the_weighted_sums(self):
        design = circuit_design(2, 1)
        baseline = assign_design(DFAAssigner(), design)
        kernel = ArrayExchangeKernel(design, baseline, demand=boundary_demand)
        rng = random.Random(8)
        for __ in range(200):
            move = kernel.propose(rng)
            if move is not None:
                kernel.apply(move)
        state = kernel.checkpoint_state()
        resumed = ArrayExchangeKernel(design, baseline, demand=boundary_demand)
        resumed.restore_checkpoint(state)
        assert resumed.cost() == kernel.cost()

    def test_nonfinite_demand_names_the_ir_term(self):
        design = circuit_design(1, 1)
        baseline = assign_design(DFAAssigner(), design)
        with pytest.raises(NonFiniteCostError, match="ir"):
            ArrayExchangeKernel(design, baseline, demand=lambda f: float("nan"))
        calls = {"n": 0}

        def turns_nan(fraction):
            calls["n"] += 1
            return float("nan") if calls["n"] > 1000 else 1.0

        kernel = ArrayExchangeKernel(design, baseline, demand=turns_nan)
        rng = random.Random(0)
        with pytest.raises(NonFiniteCostError, match="ir"):
            for __ in range(10000):
                move = kernel.propose(rng)
                if move is not None:
                    kernel.apply(move)


class TestDeltaExactness:
    """Kernel totals against the exact Eq.-3 model along random walks."""

    @pytest.mark.parametrize(
        "split,wirelength", [(False, 0.0), (True, 0.0), (False, 0.25)]
    )
    def test_random_walk_within_1e9(self, split, wirelength):
        design = circuit_design(3, 4)
        baseline = assign_design(RandomAssigner(), design, seed=3)
        weights = CostWeights(wirelength=wirelength)
        kernel = ArrayExchangeKernel(
            design, baseline, weights=weights, split_networks=split
        )
        exact = ExchangeCost(
            design, baseline, weights=weights, split_networks=split
        )
        current = {side: a.copy() for side, a in baseline.items()}
        sides = list(design.sides)
        rng = random.Random(11)
        for step in range(400):
            move = kernel.propose(rng)
            if move is None:
                continue
            kernel.apply(move)
            current[sides[move[0]]].swap_slots(move[1], move[1] + 1)
            if step % 23 == 0:
                expected = exact.total(current)
                assert kernel.cost() == pytest.approx(expected, rel=1e-9)
        assert kernel.cost() == pytest.approx(exact.total(current), rel=1e-9)

    def test_undo_restores_exactly(self):
        design = circuit_design(2, 4)
        baseline = assign_design(RandomAssigner(), design, seed=3)
        kernel = ArrayExchangeKernel(design, baseline)
        start = kernel.cost()
        rng = random.Random(5)
        applied = []
        for __ in range(50):
            move = kernel.propose(rng)
            if move is not None:
                kernel.apply(move)
                applied.append(move)
        for move in reversed(applied):
            kernel.undo(move)
        # integer-backed state: the revert is exact, not approximate
        assert kernel.cost() == start
        assert kernel.orders() == {
            side: a.order for side, a in baseline.items()
        }

    def test_snapshot_restore_roundtrip(self):
        design = circuit_design(1, 4)
        baseline = assign_design(RandomAssigner(), design, seed=3)
        kernel = ArrayExchangeKernel(design, baseline)
        snapshot = kernel.snapshot()
        cost_at_snapshot = kernel.cost()
        rng = random.Random(6)
        for __ in range(80):
            move = kernel.propose(rng)
            if move is not None:
                kernel.apply(move)
        kernel.restore(snapshot)
        assert kernel.cost() == cost_at_snapshot

    def test_self_check_against_verifier(self):
        design = circuit_design(2, 1)
        baseline = assign_design(DFAAssigner(), design)
        kernel = ArrayExchangeKernel(design, baseline)
        rng = random.Random(4)
        for __ in range(120):
            move = kernel.propose(rng)
            if move is not None:
                kernel.apply(move)
        assert kernel.self_check(baseline).ok

    def test_check_exchange_total_flags_drift(self):
        design = circuit_design(1, 1)
        baseline = assign_design(DFAAssigner(), design)
        kernel = ArrayExchangeKernel(design, baseline)
        report = check_exchange_total(
            design, baseline, kernel.assignments(), kernel.cost() + 0.5
        )
        assert not report.ok
        assert "exchange.total-drift" in report.codes("error")


class TestKernelReport:
    """``breakdown()`` and ``omega()`` equal the object oracle exactly (==)."""

    @pytest.mark.parametrize(
        "config",
        [
            {},
            {"split_networks": True},
            {"net_type": None},
            {"weights": CostWeights(wirelength=0.25)},
            {"track_all_rows": False},
        ],
        ids=["default", "split", "all-supply", "wirelength", "outer-rows"],
    )
    @pytest.mark.parametrize("tiers", [1, 4])
    @pytest.mark.parametrize("index", [1, 3, 5])
    def test_breakdown_equals_oracle(self, index, tiers, config):
        design = circuit_design(index, tiers)
        baseline = assign_design(DFAAssigner(), design)
        kernel = ArrayExchangeKernel(design, baseline, **config)
        oracle = CachedExchangeCost(design, baseline, **config)
        psi = design.stacking.tier_count
        assert kernel.breakdown() == oracle.breakdown(baseline)
        assert kernel.omega() == omega_of_design(baseline, psi)
        rng = random.Random(10 * index + tiers)
        for __ in range(300):
            move = kernel.propose(rng)
            if move is not None:
                kernel.apply(move)
        after = kernel.assignments()
        assert kernel.orders() != {side: a.order for side, a in baseline.items()}
        assert kernel.breakdown() == oracle.breakdown(after)
        assert kernel.omega() == omega_of_design(after, psi)


class TestStateStructures:
    def test_row_run_counts_matches_run_partition(self):
        design = circuit_design(2, 1)
        baseline = assign_design(RandomAssigner(), design, seed=8)
        kernel = ArrayExchangeKernel(design, baseline)
        for arrays in kernel.sides:
            assignment = baseline[arrays.side]
            for watched in arrays.watched:
                counts = row_run_counts(
                    arrays.net_slot, arrays.rows, watched.via_nets, watched.row
                )
                expected = [
                    count for count, __ in run_partition(assignment, watched.row)
                ]
                assert counts.tolist() == expected

    def test_orders_roundtrip(self):
        design = circuit_design(1, 1)
        baseline = assign_design(DFAAssigner(), design)
        kernel = ArrayExchangeKernel(design, baseline)
        assert kernel.orders() == {
            side: a.order for side, a in baseline.items()
        }
        materialized = kernel.assignments()
        assert {s: a.order for s, a in materialized.items()} == kernel.orders()


class TestBackendResolution:
    """One production path: the kernel at every size, no ``backend=`` knob."""

    def test_explicit_backends(self):
        design = circuit_design(1, 1)
        for spelling in ("auto", "object", "array", "exact"):
            with pytest.raises(TypeError):
                FingerPadExchanger(design, backend=spelling)

    @pytest.mark.parametrize("fingers", [16, 96, 448, 4096])
    def test_auto_is_array_at_every_size(self, fingers):
        design = build_design(CircuitSpec(name="d", finger_count=fingers), seed=0)
        baseline = assign_design(DFAAssigner(), design)
        params = SAParams(
            initial_temp=0.03, final_temp=0.02, cooling=0.9, moves_per_temp=20
        )
        telemetry = Telemetry()
        with using_telemetry(telemetry):
            FingerPadExchanger(design, params=params, polish_passes=0).run(
                baseline, seed=0
            )
        (stats,) = telemetry.events_named("kernel.stats")
        assert stats["proposed"] == params.total_moves()

    def test_custom_ir_proxy_stays_on_object(self):
        # An arbitrary fractions -> cost proxy lives on the object-model
        # reference only; the production exchanger takes demand= instead.
        design = circuit_design(1, 1)
        baseline = assign_design(DFAAssigner(), design)
        params = SAParams(
            initial_temp=0.03, final_temp=0.02, cooling=0.9, moves_per_temp=20
        )
        result = reference_exchange(
            design, baseline, params=params, ir_proxy=lambda f: 2.0, seed=0
        )
        assert result.cost_breakdown_before["ir"] == 1.0
        assert result.cost_breakdown_after["ir"] == 1.0

    def test_unknown_backend_rejected(self):
        with pytest.raises(TypeError):
            FingerPadExchanger(circuit_design(1, 1), backend="vectorized")

    def test_exchanger_array_with_ir_proxy_raises(self):
        # demand= replaced the object-only ir_proxy= one for one
        with pytest.raises(TypeError):
            FingerPadExchanger(circuit_design(1, 1), ir_proxy=lambda f: 1.0)


class TestPropertyParity:
    """Hypothesis: parity holds on arbitrary generated designs."""

    @given(
        st.integers(min_value=24, max_value=96),
        st.integers(min_value=0, max_value=500),
        st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=12, deadline=None)
    def test_traces_identical_on_generated_designs(self, count, seed, tiers):
        design = build_design(
            CircuitSpec(name=f"prop{count}", finger_count=count, tier_count=tiers),
            seed=seed,
        )
        baseline = assign_design(RandomAssigner(), design, seed=seed)
        params = SAParams(
            initial_temp=0.03, final_temp=3e-3, cooling=0.85, moves_per_temp=30
        )
        trace_o, final_o, __ = run_object_backend(design, baseline, params, seed=seed)
        trace_a, final_a, __, __ = run_array_backend(design, baseline, params, seed=seed)
        assert trace_o == trace_a
        assert final_o == final_a

    @given(
        st.integers(min_value=24, max_value=80),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=10, deadline=None)
    def test_walk_cost_parity_on_generated_designs(self, count, seed):
        design = build_design(
            CircuitSpec(name=f"walk{count}", finger_count=count, tier_count=2),
            seed=seed,
        )
        baseline = assign_design(RandomAssigner(), design, seed=seed)
        kernel = ArrayExchangeKernel(design, baseline)
        exact = ExchangeCost(design, baseline)
        current = {side: a.copy() for side, a in baseline.items()}
        sides = list(design.sides)
        rng = random.Random(seed)
        for __ in range(60):
            move = kernel.propose(rng)
            if move is None:
                continue
            kernel.apply(move)
            current[sides[move[0]]].swap_slots(move[1], move[1] + 1)
        assert kernel.cost() == pytest.approx(exact.total(current), rel=1e-9)


class TestKernelSpeed:
    def test_array_beats_object_per_move(self):
        """Cheap in-suite guard; the real numbers live in bench_kernel."""
        import time

        design = build_design(
            CircuitSpec(name="speed", finger_count=896), seed=0
        )
        baseline = assign_design(DFAAssigner(), design)
        moves = 300

        kernel = ArrayExchangeKernel(design, baseline)
        rng = random.Random(0)
        start = time.perf_counter()
        for __ in range(moves):
            move = kernel.propose(rng)
            if move is not None:
                kernel.apply(move)
                kernel.cost()
        array_time = time.perf_counter() - start

        working = {side: a.copy() for side, a in baseline.items()}
        cost = CachedExchangeCost(design, baseline)
        generator = MoveGenerator(design, working)
        rng = random.Random(0)
        start = time.perf_counter()
        for __ in range(moves):
            move = generator.propose(rng)
            if move is not None:
                generator.apply(move)
                cost.mark_dirty(move.side)
                cost.total(working)
        object_time = time.perf_counter() - start

        assert array_time < object_time


def test_numpy_is_available():
    """The array kernels are this repo's production path."""
    assert np is not None


class TestResyncCrossingParity:
    """Wirelength float-drift resyncs must be invisible to the SA trace.

    The kernel periodically replaces its incrementally accumulated
    wirelength with a vectorized exact recomputation.  If the resynced
    value ever differed enough to flip a Metropolis decision, the kernel
    and the object model would diverge from that move on — so a run forced
    across many resync boundaries must still be move-for-move identical.
    """

    @settings(max_examples=6, deadline=None)
    @given(
        count=st.integers(min_value=16, max_value=40),
        seed=st.integers(min_value=0, max_value=2 ** 16),
        tiers=st.sampled_from([1, 2, 4]),
    )
    def test_parity_across_resync_boundaries(self, count, seed, tiers):
        import repro.kernels.exchange as kernel_module

        design = build_design(
            CircuitSpec(
                f"resync{count}", count, quadrant_count=4,
                rows_per_quadrant=2, tier_count=tiers,
            ),
            seed=0,
        )
        baseline = assign_design(DFAAssigner(), design, seed=0)
        weights = CostWeights(wirelength=1.0)
        original = kernel_module.WL_RESYNC_INTERVAL
        kernel_module.WL_RESYNC_INTERVAL = 5
        try:
            object_trace, object_orders, object_stats = run_object_backend(
                design, baseline, FAST_SA, seed, weights=weights
            )
            array_trace, array_orders, array_stats, kernel = run_array_backend(
                design, baseline, FAST_SA, seed, weights=weights
            )
        finally:
            kernel_module.WL_RESYNC_INTERVAL = original
        assert kernel.resync_count >= 2, (
            "schedule too short to cross two resync boundaries"
        )
        assert array_trace == object_trace
        assert array_orders == object_orders
        assert array_stats.accepted == object_stats.accepted
        exact = ExchangeCost(design, baseline, weights=weights)
        assert kernel.cost() == pytest.approx(
            exact.total(kernel.assignments()), rel=1e-9
        )

    def test_constructor_interval_overrides_the_global(self):
        design = circuit_design(1, 1)
        baseline = assign_design(DFAAssigner(), design, seed=0)
        weights = CostWeights(wirelength=1.0)
        kernel = ArrayExchangeKernel(
            design, baseline, weights=weights, wl_resync_interval=1
        )
        rng = random.Random(0)
        applied = 0
        for _ in range(50):
            move = kernel.propose(rng)
            if move is None:
                continue
            kernel.apply(move)
            applied += 1
        assert applied and kernel.resync_count == applied

    def test_bad_interval_rejected(self):
        design = circuit_design(1, 1)
        baseline = assign_design(DFAAssigner(), design, seed=0)
        with pytest.raises(ExchangeError):
            ArrayExchangeKernel(design, baseline, wl_resync_interval=0)
