"""Staged pipeline protocols and kernel parity with the object-model references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.assign import (
    Assignment,
    DFAAssigner,
    IFAAssigner,
    RandomAssigner,
    assign_design,
    assign_quadrant,
)
from repro.circuits import TABLE1_SPECS, build_design, fig5_quadrant, fig13_quadrant
from repro.errors import AssignmentError, PowerModelError
from repro.kernels import (
    GridFactorization,
    dfa_order,
    factorize_grid,
    ifa_order,
    max_density_of_order,
)
from repro.power import FDSolver, IRDropAnalyzer, PowerGridConfig
from repro.routing import (
    MonotonicDensityEstimator,
    density_map,
    max_density,
    max_density_of_design,
)


def all_quadrants():
    for spec in TABLE1_SPECS[:3]:
        design = build_design(spec)
        yield from (q for _side, q in design)
    yield fig5_quadrant()
    yield fig13_quadrant()


class TestAssignKernelParity:
    def test_ifa_orders_identical(self):
        for quadrant in all_quadrants():
            assert ifa_order(quadrant) == IFAAssigner().assign(quadrant).order

    @pytest.mark.parametrize("cut_line_n", [1, 2, 3])
    def test_dfa_orders_identical(self, cut_line_n):
        for quadrant in all_quadrants():
            expected = DFAAssigner(cut_line_n=cut_line_n).assign(quadrant)
            assert dfa_order(quadrant, cut_line_n=cut_line_n) == expected.order

    def test_dfa_rejects_bad_cut_line(self):
        with pytest.raises(AssignmentError):
            dfa_order(fig5_quadrant(), cut_line_n=0)

    def test_staged_backends_agree(self, small_design):
        """The staged kernel path equals the assigners' own reference assign."""
        for assigner in (IFAAssigner(), DFAAssigner(cut_line_n=2)):
            staged = assign_design(assigner, small_design)
            reference = {side: assigner.assign(q) for side, q in small_design}
            assert {s: a.order for s, a in staged.items()} == {
                s: a.order for s, a in reference.items()
            }

    def test_array_backend_skips_custom_assigners(self, small_design):
        # Randomized/custom strategies have no kernel twin; the staged
        # path must still run their own assign with staged seeds.
        staged = assign_design(RandomAssigner(), small_design, seed=3)
        own = {
            side: RandomAssigner().assign(q, seed=3 + index)
            for index, (side, q) in enumerate(small_design)
        }
        assert {s: a.order for s, a in staged.items()} == {
            s: a.order for s, a in own.items()
        }

    def test_assign_quadrant_array_matches_object(self):
        quadrant = fig13_quadrant()
        array = assign_quadrant(DFAAssigner(), quadrant)
        assert array.order == DFAAssigner().assign(quadrant).order
        assert isinstance(array, Assignment)


class TestDensityKernelParity:
    def test_counts_identical_across_assigners(self, small_design):
        for assigner in (DFAAssigner(), IFAAssigner(), RandomAssigner()):
            assignments = assign_design(assigner, small_design, seed=1)
            for assignment in assignments.values():
                assert max_density_of_order(
                    assignment.quadrant, assignment.order
                ) == density_map(assignment).max_density
                assert max_density(assignment) == density_map(assignment).max_density

    def test_design_level_backend_keyword(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        assert max_density_of_design(assignments) == max(
            density_map(a).max_density for a in assignments.values()
        )
        with pytest.raises(TypeError):
            max_density_of_design(assignments, backend="object")

    def test_estimator_class(self, small_design):
        assignments = assign_design(DFAAssigner(), small_design)
        assert MonotonicDensityEstimator().max_density_of_design(
            assignments
        ) == max(density_map(a).max_density for a in assignments.values())


class TestStageBackendResolver:
    """The per-stage backend resolver is gone: the kernels are the only
    staged path, and the removed ``backend=`` knob is refused."""

    def test_auto_is_array(self, monkeypatch):
        # no size threshold: the kernels are the production path everywhere
        import repro.kernels as kernels

        calls = []
        original = kernels.dfa_order

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(kernels, "dfa_order", spy)
        assign_quadrant(DFAAssigner(), fig13_quadrant())
        assert len(calls) == 1

    def test_explicit_spellings(self, small_design):
        for spelling in ("auto", "object", "array", "exact"):
            with pytest.raises(TypeError):
                assign_design(DFAAssigner(), small_design, backend=spelling)

    def test_unknown_rejected(self):
        with pytest.raises(TypeError):
            assign_quadrant(DFAAssigner(), fig13_quadrant(), backend="gpu")


class TestIRSolveKernel:
    GRID = PowerGridConfig(size=16)
    PADS = [(0, 0), (15, 7), (3, 15), (9, 0)]

    def test_matches_object_solve(self):
        reference = FDSolver(self.GRID)._solve_object(self.PADS)
        resolved = factorize_grid(self.GRID, self.PADS).solve()
        np.testing.assert_allclose(
            resolved.voltage, reference.voltage, rtol=1e-9, atol=1e-12
        )
        assert resolved.pad_nodes == reference.pad_nodes

    def test_resolve_many_current_maps(self):
        factorization = factorize_grid(self.GRID, self.PADS)
        rng = np.random.default_rng(7)
        for _ in range(3):
            current = np.abs(rng.normal(1e-4, 3e-5, (16, 16)))
            reference = FDSolver(self.GRID, current_map=current)._solve_object(
                self.PADS
            )
            np.testing.assert_allclose(
                factorization.solve(current).voltage,
                reference.voltage,
                rtol=1e-9,
                atol=1e-12,
            )

    def test_solver_factorization_cache(self):
        solver = FDSolver(self.GRID)
        assert solver.factorize(self.PADS) is solver.factorize(
            list(reversed(self.PADS))
        )
        solver.FACTOR_CACHE_SIZE  # documented knob exists

    def test_all_pads_grid(self):
        config = PowerGridConfig(size=2)
        nodes = [(x, y) for x in range(2) for y in range(2)]
        result = factorize_grid(config, nodes).solve()
        assert result.max_drop == 0.0

    def test_validation_parity_with_object_path(self):
        with pytest.raises(PowerModelError):
            factorize_grid(self.GRID, [])
        with pytest.raises(PowerModelError):
            factorize_grid(self.GRID, [(99, 0)])
        with pytest.raises(PowerModelError):
            factorize_grid(self.GRID, self.PADS).solve(np.ones((3, 3)))

    @given(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_cached_resolve_matches_fresh_solve(self, pads, seed):
        """ISSUE property: cached re-solve == fresh FDSolver solve @ 1e-9."""
        config = PowerGridConfig(size=10)
        pads = sorted(pads)
        solver = FDSolver(config)
        factorization = solver.factorize(pads)
        current = np.abs(
            np.random.default_rng(seed).normal(1e-4, 4e-5, (10, 10))
        )
        for current_map in (None, current):
            fresh = FDSolver(config, current_map=current_map)._solve_object(pads)
            again = factorization.solve(current_map)
            assert abs(again.max_drop - fresh.max_drop) <= 1e-9 * max(
                1.0, abs(fresh.max_drop)
            )
            np.testing.assert_allclose(
                again.voltage, fresh.voltage, rtol=1e-9, atol=1e-12
            )


class TestProtocols:
    def test_stock_implementations_conform(self):
        assert isinstance(DFAAssigner(), api.Assigner)
        assert isinstance(IFAAssigner(), api.Assigner)
        assert isinstance(RandomAssigner(), api.Assigner)
        assert isinstance(MonotonicDensityEstimator(), api.DensityEstimator)
        assert isinstance(FDSolver(PowerGridConfig(size=8)), api.IRSolver)
        fact = factorize_grid(PowerGridConfig(size=8), [(0, 0)])
        assert isinstance(fact, api.Factorization)

    def test_analyzer_is_an_ir_solver(self, small_design):
        analyzer = IRDropAnalyzer(small_design)
        assert isinstance(analyzer, api.IRSolver)
        assignments = assign_design(DFAAssigner(), small_design)
        factorization = analyzer.factorize(assignments)
        assert isinstance(factorization, GridFactorization)
        # repeat factorizations of the same pad set are served from cache
        assert analyzer.factorize(assignments) is factorization

    def test_duck_typed_assigner_accepted_by_facade(self, small_design):
        class Reversed:
            name = "Reversed"

            def assign(self, quadrant, seed=None):
                return Assignment(
                    quadrant, list(reversed(IFAAssigner().assign(quadrant).order))
                )

        with pytest.raises(Exception):
            # reversed orders are illegal; the point is the protocol check
            # accepted the duck-typed instance and actually ran it.
            api.assign(small_design, method=Reversed(), verify="strict")

    def test_api_backend_keywords(self, small_design):
        assigned = api.assign(small_design, seed=0)
        reference = {side: DFAAssigner().assign(q) for side, q in small_design}
        assert assigned.orders() == {s.value: a.order for s, a in reference.items()}
        measured = api.evaluate(small_design, assigned.assignments, with_ir=False)
        assert measured.max_density == max(
            density_map(a).max_density for a in reference.values()
        )
        with pytest.raises(TypeError):
            api.assign(small_design, seed=0, backend="object")
        with pytest.raises(TypeError):
            api.evaluate(small_design, assigned.assignments, backend="object")
