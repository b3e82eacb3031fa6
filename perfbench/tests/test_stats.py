"""Percentiles, sample-count selection and the open-loop schedule."""

import time

import pytest

from perfbench import serve_mix
from perfbench.stats import (
    MIN_SAMPLES_BEYOND,
    median,
    percentile,
    run_open_loop,
    tail_percentile,
)


def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert median(values) == 2.5
    assert percentile(values, 90) == pytest.approx(3.7)
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "count, expected",
    [(1, 50.0), (239, 50.0), (240, 75.0), (599, 75.0), (600, 90.0),
     (1199, 90.0), (1200, 95.0), (5999, 95.0), (6000, 99.0), (60000, 99.9)],
)
def test_tail_percentile_keeps_enough_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    if expected > 50.0:
        assert count * (100 - expected) / 100 >= MIN_SAMPLES_BEYOND - 1e-9


def test_open_loop_counts_a_stall_against_every_request_it_delays():
    offsets = [0.0, 0.05, 0.10, 0.15]

    def send(lane, index):
        time.sleep(0.2 if index == 0 else 0.0)
        return index

    samples = run_open_loop(offsets, send, connections=1, join_timeout=10)
    assert [s.outcome for s in samples] == [0, 1, 2, 3]
    assert samples[0].late < 0.03
    # Requests 1-3 were due during the stall and went out after it.
    for sample in samples[1:]:
        assert sample.sent >= samples[0].done
        assert sample.late == pytest.approx(samples[0].done - sample.due, abs=0.03)
        assert sample.latency >= sample.late
        assert sample.latency == pytest.approx(sample.done - sample.due)


def test_open_loop_second_connection_keeps_schedule_during_a_stall():
    offsets = [0.0, 0.05, 0.10, 0.15]

    def send(lane, index):
        time.sleep(0.4 if index == 0 else 0.0)
        return lane

    samples = run_open_loop(offsets, send, connections=2, join_timeout=10)
    for sample in samples[1:]:
        assert sample.late < 0.03
        assert sample.latency < 0.05


def test_open_loop_records_a_raising_send_as_its_outcome():
    def send(lane, index):
        raise ConnectionError("refused")

    (sample,) = run_open_loop([0.0], send, connections=2, join_timeout=10)
    assert isinstance(sample.outcome, ConnectionError)


def test_request_plan_is_a_function_of_the_seed():
    plan = serve_mix.plan_requests(5, seconds=10)
    assert plan == serve_mix.plan_requests(5, seconds=10)
    assert plan != serve_mix.plan_requests(6, seconds=10)
    assert len(plan) == int(serve_mix.RATE * 10)
    kinds = [p.kind for p in plan]
    assert kinds.count("new") > len(plan) / 2
    assert "cached" in kinds and "duplicate" in kinds
    first_sent = {}
    for request in plan:
        original = first_sent.setdefault(request.key, request)
        if request.kind == "duplicate":
            assert original.kind == "new" and request.offset == original.offset
        else:
            # A cached spec is sent once, so it is read from disk, not
            # answered from the daemon's registry.
            assert original is request
