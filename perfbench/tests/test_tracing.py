"""Self time over nested spans and the evaluate instrumentation."""

import pytest

from perfbench.tracing import Span, Tracer, instrument_evaluate, layer_totals, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("flow.run", op="d1"):
        clock.now = 1.0
        with tracer.span("exchange"):
            clock.now = 2.0
            with tracer.span("inner"):
                clock.now = 5.0
            clock.now = 6.0
        with tracer.span("flow.evaluate"):
            clock.now = 7.5
        clock.now = 10.0
    root, exchange, inner, evaluate = tracer.spans
    assert [s.op for s in tracer.spans] == ["d1"] * 4
    assert (exchange.parent, inner.parent, evaluate.parent) == (0, 1, 0)
    assert self_times(tracer.spans) == [pytest.approx(v) for v in (3.5, 2.0, 3.0, 1.5)]
    totals = layer_totals(tracer.spans)
    assert totals["exchange"] == {"busy": 5.0, "self": 2.0, "count": 1}
    # Self times partition the root's wall time.
    assert sum(self_times(tracer.spans)) == pytest.approx(root.seconds)


def test_overlapping_and_overhanging_children_are_not_counted_twice():
    spans = [
        Span("serve", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("b", 3.0, 6.0, 0, "r"),
        Span("c", 9.0, 12.0, 0, "r"),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_instrument_evaluate_times_callees_and_restores_them():
    import repro.api as api
    from repro.circuits import build_design, table1_circuit
    from repro.flow import metrics
    from repro.power import IRDropAnalyzer

    originals = (metrics.max_density_of_design, IRDropAnalyzer.max_drop)
    design = build_design(table1_circuit(1), seed=0)
    assigned = api.assign(design, seed=0)
    tracer = Tracer()
    with instrument_evaluate(tracer), tracer.span("flow.evaluate", op="c1"):
        traced = api.evaluate(design, assigned.assignments, grid=8)
    plain = api.evaluate(design, assigned.assignments, grid=8)
    assert traced.metrics == plain.metrics
    names = [span.name for span in tracer.spans]
    assert names == ["flow.evaluate", "routing.density", "routing.wirelength", "power.ir"]
    assert all(span.parent == 0 for span in tracer.spans[1:])
    assert (metrics.max_density_of_design, IRDropAnalyzer.max_drop) == originals
