"""The repro.api facade: same numbers as the legacy entry points.

The facade is a front door, not a fork: every function must reproduce the
legacy path bit for bit (same seeds in, same orders/metrics out) and the
uniform keywords must behave uniformly.
"""

from repro.assign import assign_design
import json
import warnings

import pytest

import repro
import repro.api as api
from repro.assign import DFAAssigner, IFAAssigner, RandomAssigner
from repro.circuits import build_design, table1_circuit
from repro.errors import FlowError, ReproError
from repro.exchange import FingerPadExchanger, SAParams
from repro.flow import CoDesignFlow
from repro.flow.codesign import CoDesignResult
from repro.flow.metrics import measure
from repro.power import PowerGridConfig
from repro.verify import reference_exchange

FAST_SA = SAParams(
    initial_temp=0.03, final_temp=1e-3, cooling=0.9, moves_per_temp=60
)


@pytest.fixture(scope="module")
def design():
    return build_design(table1_circuit(1), seed=0)


@pytest.fixture(scope="module")
def stacked():
    return build_design(table1_circuit(1, tier_count=4), seed=0)


class TestLoadDesign:
    def test_circuit_index(self):
        design = api.load_design(2, tiers=4)
        legacy = build_design(table1_circuit(2, tier_count=4), seed=0)
        assert design.name == legacy.name
        assert design.total_net_count == legacy.total_net_count

    def test_json_roundtrip(self, design, tmp_path):
        from repro.io import save_design

        path = tmp_path / "design.json"
        save_design(design, path)
        loaded = api.load_design(path, verify="strict")
        assert loaded.total_net_count == design.total_net_count
        assert {n.id for n in loaded.all_nets()} == {
            n.id for n in design.all_nets()
        }

    def test_bool_rejected(self):
        with pytest.raises(ReproError):
            api.load_design(True)


class TestAssignParity:
    """Table-2 ingredients: facade orders == legacy orders, per assigner."""

    @pytest.mark.parametrize("method,legacy_cls", [
        ("random", RandomAssigner), ("ifa", IFAAssigner), ("dfa", DFAAssigner),
    ])
    def test_byte_identical_orders(self, design, method, legacy_cls):
        facade = api.assign(design, method=method, seed=42)
        legacy = assign_design(legacy_cls(), design, seed=42)
        assert facade.orders() == {
            side.value: a.order for side, a in legacy.items()
        }
        assert facade.assigner == legacy_cls().name

    def test_assigner_instance_passthrough(self, design):
        facade = api.assign(design, method=DFAAssigner(), seed=1)
        assert facade.assigner == "DFA"

    def test_unknown_method_rejected(self, design):
        with pytest.raises(ReproError):
            api.assign(design, method="simulated-annealing")

    def test_verify_keyword(self, design):
        result = api.assign(design, seed=0, verify="strict")
        assert result.assignments


class TestExchangeParity:
    def test_matches_exchanger(self, stacked):
        baseline = assign_design(DFAAssigner(), stacked)
        facade = api.exchange(stacked, baseline, sa_params=FAST_SA, seed=9)
        legacy = FingerPadExchanger(stacked, params=FAST_SA).run(baseline, seed=9)
        assert {s: a.order for s, a in facade.after.items()} == {
            s: a.order for s, a in legacy.after.items()
        }
        assert facade.bonding_improvement == legacy.bonding_improvement
        assert facade.stats.accepted == legacy.stats.accepted

    def test_backend_keyword_is_parity_checked(self, stacked):
        """The removed ``backend=`` knob's parity contract: the facade's one
        path equals the object-model reference it replaced."""
        baseline = assign_design(DFAAssigner(), stacked)
        facade = api.exchange(stacked, baseline, sa_params=FAST_SA, seed=9)
        reference = reference_exchange(stacked, baseline, params=FAST_SA, seed=9)
        assert {s: a.order for s, a in facade.after.items()} == {
            s: a.order for s, a in reference.after.items()
        }
        assert facade.result.cost_breakdown_after == reference.cost_breakdown_after
        with pytest.raises(TypeError):
            api.exchange(stacked, baseline, seed=9, backend="object")


class TestEvaluateParity:
    def test_matches_measure(self, design):
        assignments = assign_design(DFAAssigner(), design)
        grid = PowerGridConfig(size=16)
        facade = api.evaluate(design, assignments, grid=16)
        legacy = measure(design, assignments, grid_config=grid)
        assert facade.metrics == legacy
        assert facade.max_density == legacy.max_density
        assert facade.max_ir_drop == legacy.max_ir_drop

    def test_skip_ir(self, design):
        assignments = assign_design(DFAAssigner(), design)
        facade = api.evaluate(design, assignments, with_ir=False)
        assert facade.max_ir_drop is None


class TestRunParity:
    """Table-3 cells: facade == CoDesignFlow, same seed, same numbers."""

    @pytest.mark.parametrize("tiers", [1, 4])
    def test_byte_identical_to_flow(self, tiers):
        design = build_design(table1_circuit(1, tier_count=tiers), seed=0)
        facade = api.run(design, sa_params=FAST_SA, grid=16, seed=7)
        legacy = CoDesignFlow(
            sa_params=FAST_SA, grid_config=PowerGridConfig(size=16)
        ).run(design, seed=7)
        assert {s: a.order for s, a in facade.assignments.items()} == {
            s: a.order for s, a in legacy.assignments_final.items()
        }
        assert facade.ir_improvement == legacy.ir_improvement
        assert facade.bonding_improvement == legacy.bonding_improvement
        assert facade.metrics_final == legacy.metrics_final

    def test_verify_and_backend_keywords(self, design):
        result = api.run(design, sa_params=FAST_SA, grid=16, seed=7, verify="repair")
        assert result.metrics_initial is not None
        with pytest.raises(TypeError):
            api.run(design, seed=7, backend="object")

    def test_run_result_json_friendly_bits(self, design):
        result = api.run(design, sa_params=FAST_SA, grid=16, seed=7)
        payload = {
            "ir_improvement": result.ir_improvement,
            "density": result.metrics_final.max_density,
        }
        assert json.dumps(payload)  # serializable floats/ints only


class TestTelemetryKeyword:
    def test_path_opens_jsonl_trace(self, design, tmp_path):
        baseline = assign_design(DFAAssigner(), design)
        trace = tmp_path / "trace.jsonl"
        api.exchange(design, baseline, sa_params=FAST_SA, seed=1, telemetry=trace)
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        names = {event.get("event") for event in events}
        assert {"sa.begin", "sa.end"} <= names

    def test_telemetry_instance(self, design, tmp_path):
        from repro.runtime import JsonlSink, Telemetry

        baseline = assign_design(DFAAssigner(), design)
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        api.exchange(
            design, baseline, sa_params=FAST_SA, seed=1,
            telemetry=Telemetry(sink=sink),
        )
        sink.close()
        assert path.read_text().strip()


class TestDeprecationShims:
    """The shims are gone; the supported spellings must stay warning-free."""

    def test_no_warning_on_new_spellings(self, design):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            RandomAssigner()
            FingerPadExchanger(design)
            api.assign(design, method="random", seed=0)


class TestTopLevelExports:
    def test_facade_reexported(self):
        assert repro.load_design is api.load_design
        assert repro.run is api.run
        assert repro.evaluate is api.evaluate
        assert repro.api is api

    def test_subpackages_not_shadowed(self):
        # api.assign / api.exchange exist, but repro.assign / repro.exchange
        # must remain the subpackages old code imports from.
        assert repro.assign.__name__ == "repro.assign"
        assert repro.exchange.__name__ == "repro.exchange"
        assert callable(api.assign)
        assert callable(api.exchange)


class TestCoDesignResultTyping:
    def test_metrics_default_to_none(self, design):
        baseline = assign_design(DFAAssigner(), design)
        exchange = FingerPadExchanger(design, params=FAST_SA).run(baseline, seed=1)
        result = CoDesignResult(
            design=design,
            assignments_initial=exchange.before,
            assignments_final=exchange.after,
            exchange=exchange,
        )
        assert result.metrics_initial is None
        assert result.metrics_final is None

    def test_properties_raise_flow_error_not_attribute_error(self, design):
        baseline = assign_design(DFAAssigner(), design)
        exchange = FingerPadExchanger(design, params=FAST_SA).run(baseline, seed=1)
        result = CoDesignResult(
            design=design,
            assignments_initial=exchange.before,
            assignments_final=exchange.after,
            exchange=exchange,
        )
        for prop in ("ir_improvement", "density_after_assignment",
                     "density_after_exchange"):
            with pytest.raises(FlowError, match="without measurement"):
                getattr(result, prop)
        # bonding improvement needs no metrics; it must keep working
        assert result.bonding_improvement == exchange.bonding_improvement
