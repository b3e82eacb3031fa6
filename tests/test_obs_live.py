"""The live telemetry plane: :mod:`repro.obs.live` and its serve surface.

Three layers under test: the :class:`LiveRegistry` aggregate itself
(direct instruments, exposition rendering with full label escaping, and
the delta-folding ingest of cumulative ``metrics`` snapshots), the
promtool-style :func:`validate_exposition` grammar checker (both on our
own output and on hand-written bad documents), and the daemon's
``/metrics`` + ``/v1/stats`` endpoints against a real socket.  The
JSONL sink's flush cadence rides along at the end.
"""

from __future__ import annotations

import json
import math
import time

import pytest

from repro.obs.live import (
    LIVE_SCHEMA,
    REQUEST_SECONDS_BUCKETS,
    LiveRegistry,
    escape_label_value,
    format_value,
    metric_name,
    validate_exposition,
)
from repro.obs import live
from repro.obs.live import _parse_labels
from repro.runtime import JsonlSink, register_job_type, telemetry
from repro.serve import ServeClient, ServeConfig, ServeHandle
from repro.serve.daemon import _endpoint


# -- names, escaping, values ------------------------------------------------


def test_metric_name_sanitizes_and_prefixes():
    assert metric_name("sa.delta") == "repro_sa_delta"
    assert metric_name("jobs-done") == "repro_jobs_done"
    assert metric_name("repro_serve_requests_total") == "repro_serve_requests_total"


def test_escape_label_value_covers_the_three_specials():
    raw = 'a\\b"c\nd'
    escaped = escape_label_value(raw)
    assert escaped == 'a\\\\b\\"c\\nd'
    # The validator's parser must invert the escaping exactly.
    labels = _parse_labels(f'x="{escaped}"')
    assert labels == {"x": raw}


def test_format_value_special_floats():
    assert format_value(float("inf")) == "+Inf"
    assert format_value(float("-inf")) == "-Inf"
    assert format_value(float("nan")) == "NaN"
    assert format_value(3.0) == "3"
    assert format_value(0.25) == "0.25"


def test_escaped_labels_survive_a_full_render_and_validate():
    registry = LiveRegistry()
    registry.counter("evil", path='with "quotes"').inc()
    registry.counter("evil", path="back\\slash").inc(2)
    registry.counter("evil", path="new\nline").inc(3)
    text = registry.render_prometheus()
    assert validate_exposition(text) == []
    assert '\\"quotes\\"' in text
    assert "back\\\\slash" in text
    assert "new\\nline" in text
    # No literal newline may survive inside a label value.
    for line in text.splitlines():
        assert line.count('"') % 2 == 0


# -- exposition rendering ---------------------------------------------------


def test_empty_registry_scrape_is_valid_and_empty():
    registry = LiveRegistry()
    assert registry.render_prometheus() == ""
    assert validate_exposition("") == []


def test_unset_gauge_is_skipped_not_rendered_as_none():
    registry = LiveRegistry()
    registry.gauge("maybe")
    registry.gauge("surely").set(4.5)
    text = registry.render_prometheus()
    assert "repro_surely 4.5" in text
    assert "repro_maybe" not in text.replace("# HELP repro_maybe", "").replace(
        "# TYPE repro_maybe", ""
    )
    assert validate_exposition(text) == []


def test_histogram_exposition_is_cumulative_and_inf_matches_count():
    registry = LiveRegistry()
    hist = registry.histogram("lat", (0.1, 1.0, 10.0), route="a")
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        hist.record(value)
    text = registry.render_prometheus()
    assert validate_exposition(text) == []
    lines = [l for l in text.splitlines() if l.startswith("repro_lat_bucket")]
    values = [float(l.rsplit(None, 1)[-1]) for l in lines]
    assert values == sorted(values), "bucket counts must be cumulative"
    assert values[-1] == 5.0
    assert 'le="+Inf"' in lines[-1]
    assert "repro_lat_count{route=\"a\"} 5" in text
    assert "repro_lat_sum" in text


def test_kind_mismatch_is_rejected():
    registry = LiveRegistry()
    registry.counter("thing").inc()
    with pytest.raises(ValueError):
        registry.gauge("thing")


# -- the validator on bad documents -----------------------------------------


@pytest.mark.parametrize(
    "document, needle",
    [
        ("orphan_metric 1\n", "no preceding TYPE"),
        (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\nh_bucket{le="0.5"} 6\n',
            "out of order",
        ),
        (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\nh_bucket{le="2"} 3\n',
            "decreased",
        ),
        (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 2\nh_bucket{le="+Inf"} 5\nh_count 4\n',
            "+Inf bucket",
        ),
        (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 2\nh_sum 3\nh_count 2\n',
            "missing +Inf",
        ),
        ("# TYPE c counter\n# TYPE c counter\nc 1\n", "duplicate TYPE"),
        ("# TYPE c counter\nc{bad-name=\"x\"} 1\n", "malformed"),
        ("# TYPE c counter\nc notanumber\n", "bad sample value"),
        ("# TYPE c counter\nc{x=\"unterminated} 1\n", "malformed"),
    ],
)
def test_validator_flags_bad_documents(document, needle):
    problems = validate_exposition(document)
    assert problems, f"expected problems for {document!r}"
    assert any(needle in p for p in problems), problems


def test_validator_accepts_a_correct_handwritten_document():
    document = (
        "# HELP h request latency\n"
        "# TYPE h histogram\n"
        'h_bucket{le="0.1"} 1\n'
        'h_bucket{le="+Inf"} 3\n'
        "h_sum 1.5\n"
        "h_count 3\n"
        "# TYPE c counter\n"
        'c{job="x"} 7\n'
    )
    assert validate_exposition(document) == []


# -- ingest: delta folding of cumulative snapshots --------------------------


def _metrics_event(job, **snapshots):
    return {"event": "metrics", "job": job, "metrics": snapshots}


def test_ingest_folds_counter_deltas_not_totals():
    registry = LiveRegistry()
    event1 = _metrics_event(
        "codesign[abc123]", hits={"kind": "counter", "value": 2}
    )
    event2 = _metrics_event(
        "codesign[abc123]", hits={"kind": "counter", "value": 5}
    )
    assert registry.ingest(event1) and registry.ingest(event2)
    child = registry.counter("hits", kind="codesign")
    assert child.value == 5.0  # 2 + (5-2), not 2+5
    assert registry.ingested_events == 2


def test_ingest_counter_reset_folds_the_whole_snapshot():
    registry = LiveRegistry()
    registry.ingest(
        _metrics_event("job[d1]", hits={"kind": "counter", "value": 5})
    )
    # The label re-ran with a fresh registry: value went backwards.
    registry.ingest(
        _metrics_event("job[d1]", hits={"kind": "counter", "value": 1})
    )
    assert registry.counter("hits", kind="job").value == 6.0


def test_ingest_histogram_delta_and_mixed_reset_fallback():
    registry = LiveRegistry()
    bounds = [1.0, 2.0]
    registry.ingest(_metrics_event(None, h={
        "kind": "histogram", "bounds": bounds,
        "counts": [1, 0, 0], "count": 1, "sum": 0.5,
    }))
    registry.ingest(_metrics_event(None, h={
        "kind": "histogram", "bounds": bounds,
        "counts": [2, 1, 0], "count": 3, "sum": 2.5,
    }))
    child = registry.histogram("h", bounds)
    assert child.count == 3 and child.counts == [2, 1, 0]
    # Mixed reset: count grew but one bucket shrank -> fold full snapshot.
    registry.ingest(_metrics_event(None, h={
        "kind": "histogram", "bounds": bounds,
        "counts": [1, 3, 0], "count": 4, "sum": 4.0,
    }))
    assert child.count == 7 and child.counts == [3, 4, 0]


def test_ingest_skips_malformed_snapshots_without_raising():
    registry = LiveRegistry()
    assert registry.ingest(_metrics_event(
        None,
        broken={"kind": "histogram", "bounds": "nope"},
        fine={"kind": "counter", "value": 1},
    ))
    assert registry.counter("fine").value == 1.0
    assert not registry.ingest({"event": "sa.step"})
    assert not registry.ingest({"event": "metrics", "metrics": "not-a-dict"})


def test_ingest_gauge_is_last_write_wins():
    registry = LiveRegistry()
    registry.ingest(_metrics_event(None, g={"kind": "gauge", "value": 3}))
    registry.ingest(_metrics_event(None, g={"kind": "gauge", "value": 1}))
    assert registry.gauge("g").value == 1.0


def test_ingest_source_eviction_is_bounded(monkeypatch):
    monkeypatch.setattr(live, "MAX_SOURCES", 2)
    registry = LiveRegistry()
    for i in range(10):
        registry.ingest(_metrics_event(
            f"job[{i}]", hits={"kind": "counter", "value": 1}
        ))
    assert len(registry._sources) <= 2
    # Every snapshot folded (each source seen once): total is 10.
    assert registry.counter("hits", kind="job").value == 10.0


def test_ingested_series_render_validly():
    registry = LiveRegistry()
    registry.ingest(_metrics_event("codesign[x]", **{
        "sa.delta": {
            "kind": "histogram", "bounds": [0.1, 1.0],
            "counts": [3, 2, 1], "count": 6, "sum": 2.0,
        },
        "cache.hits": {"kind": "counter", "value": 4},
    }))
    text = registry.render_prometheus()
    assert validate_exposition(text) == []
    assert "repro_sa_delta_bucket" in text
    assert 'kind="codesign"' in text


# -- the daemon scrape surface ----------------------------------------------


@register_job_type("live_echo")
def _live_echo_job(params, seed):
    return {"value": params.get("value", 0), "seed": seed}


@pytest.fixture
def daemon(tmp_path):
    config = ServeConfig(
        port=0, workers=1, cache_dir=str(tmp_path / "cache"),
        announce=False, drain_deadline=10.0,
    )
    with ServeHandle(config) as handle:
        yield handle


def test_endpoint_normalization_bounds_cardinality():
    assert _endpoint("/v1/jobs") == "/v1/jobs"
    assert _endpoint("/metrics") == "/metrics"
    assert _endpoint("/v1/jobs/0123abc") == "/v1/jobs/:digest"
    assert _endpoint("/v1/jobs/0123abc/events") == "/v1/jobs/:digest/events"
    assert _endpoint("/who/knows") == "other"


def test_daemon_metrics_endpoint_serves_valid_exposition(daemon):
    client = ServeClient(port=daemon.port, timeout=60.0)
    client.submit("live_echo", {"value": 1}, seed=1)
    client.submit("live_echo", {"value": 1}, seed=1)  # cache hit
    text = client.metrics()
    assert validate_exposition(text) == []
    assert "repro_serve_request_seconds_bucket" in text
    assert 'endpoint="/v1/jobs"' in text
    assert "repro_serve_queue_depth" in text
    assert "repro_serve_requests_total" in text
    # The cache hit shows up both as a counter and in the hit ratio gauge.
    assert "repro_serve_cache_total" in text


def test_daemon_stats_endpoint_is_json_with_live_families(daemon):
    client = ServeClient(port=daemon.port, timeout=60.0)
    client.submit("live_echo", {"value": 2}, seed=2)
    stats = client.stats()
    assert stats["live_schema"] == LIVE_SCHEMA
    assert stats["health"]["status"] == "ok"
    families = stats["metrics"]
    assert "repro_serve_request_seconds" in families
    family = families["repro_serve_request_seconds"]
    assert family["kind"] == "histogram"
    series = family["series"][0]
    assert series["count"] >= 1
    assert len(series["counts"]) == len(REQUEST_SECONDS_BUCKETS) + 1
    # The JSON snapshot and the text exposition agree on request totals.
    text = client.metrics()
    assert validate_exposition(text) == []


def test_daemon_request_histogram_separates_endpoints(daemon):
    client = ServeClient(port=daemon.port, timeout=60.0)
    client.submit("live_echo", {"value": 3}, seed=3)
    client.health()
    text = client.metrics()
    endpoints = {
        line.split('endpoint="', 1)[1].split('"', 1)[0]
        for line in text.splitlines()
        if line.startswith("repro_serve_request_seconds_bucket")
    }
    assert "/v1/jobs" in endpoints
    assert "/healthz" in endpoints


# -- JSONL sink flush cadence ---------------------------------------------


def _lines(path):
    if not path.exists():
        return []
    return [l for l in path.read_text().splitlines() if l]


def test_jsonl_sink_deadline_flush(tmp_path, monkeypatch):
    monkeypatch.setattr(telemetry, "FLUSH_SECONDS", 0.05)
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(path)
    sink({"event": "one"})
    assert _lines(path) == []
    time.sleep(0.06)
    # The deadline is checked on event arrival, not by a timer thread.
    sink({"event": "two"})
    assert len(_lines(path)) == 2
    sink.close()
    for line in _lines(path):
        json.loads(line)
