"""Tests for the bounded result cache and concurrent multi-engine access.

The serving daemon keeps one :class:`ResultCache` alive for days and may
share its directory with other daemons or CLI runs.  These tests pin the
two properties that makes safe: LRU eviction under ``max_bytes`` (a put
never grows the tree without bound, never evicts the entry just written,
and reads refresh recency), and crash-consistent concurrent access (a
reader racing writers and evictors sees either a MISS or the exact valid
value — never a torn JSON document).
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.runtime import (
    MISS,
    JobEngine,
    JobSpec,
    ResultCache,
    Telemetry,
    register_job_type,
)
from repro.runtime.cache import default_max_bytes


@register_job_type("cc_echo")
def _cc_echo_job(params, seed):
    return {"value": params.get("value", 0), "seed": seed}


def _spec(index: int) -> JobSpec:
    return JobSpec("cc_echo", {"value": index}, seed=1)


def _entry_size(tmp_path) -> int:
    """On-disk size of one representative cache entry."""
    probe = ResultCache(tmp_path / "probe")
    path = probe.put(_spec(0), {"value": 0, "seed": 1})
    return path.stat().st_size


class TestBoundedCache:
    def test_put_evicts_down_to_max_bytes(self, tmp_path):
        size = _entry_size(tmp_path)
        cache = ResultCache(tmp_path / "cache", max_bytes=size * 2)
        for index in range(5):
            cache.put(_spec(index), {"value": index, "seed": 1})
            time.sleep(0.01)  # distinct mtimes so LRU order is unambiguous
        on_disk = list((tmp_path / "cache").rglob("*.json"))
        assert len(on_disk) == 2
        assert cache.evicted == 3
        assert cache.stats["evicted"] == 3
        # The survivors are the most recently written entries.
        assert cache.get(_spec(4)) == {"value": 4, "seed": 1}
        assert cache.get(_spec(3)) == {"value": 3, "seed": 1}
        assert cache.get(_spec(0)) is MISS

    def test_never_evicts_the_entry_just_written(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", max_bytes=1)
        cache.put(_spec(0), {"value": 0, "seed": 1})
        # The tree is over budget, but evicting the only entry would make
        # every bounded put a self-defeating miss.
        assert cache.get(_spec(0)) == {"value": 0, "seed": 1}

    def test_get_refreshes_lru_recency(self, tmp_path):
        size = _entry_size(tmp_path)
        writer = ResultCache(tmp_path / "cache")  # unbounded seeding
        for index in range(3):
            path = writer.put(_spec(index), {"value": index, "seed": 1})
            stamp = time.time() - 1000 + index
            os.utime(path, (stamp, stamp))
        bounded = ResultCache(tmp_path / "cache", max_bytes=size * 2)
        # Reading the oldest entry touches it; the untouched middle-aged
        # entries become the eviction victims on the next put.
        assert bounded.get(_spec(0)) == {"value": 0, "seed": 1}
        bounded.put(_spec(3), {"value": 3, "seed": 1})
        assert bounded.get(_spec(0)) == {"value": 0, "seed": 1}
        assert bounded.get(_spec(3)) == {"value": 3, "seed": 1}
        assert bounded.get(_spec(1)) is MISS
        assert bounded.get(_spec(2)) is MISS

    def test_eviction_emits_telemetry(self, tmp_path):
        from repro.runtime import using_telemetry

        size = _entry_size(tmp_path)
        telemetry = Telemetry()
        cache = ResultCache(tmp_path / "cache", max_bytes=size)
        with using_telemetry(telemetry):
            cache.put(_spec(0), {"value": 0, "seed": 1})
            time.sleep(0.01)
            cache.put(_spec(1), {"value": 1, "seed": 1})
        events = [e for e in telemetry.events if e["event"] == "cache.evict"]
        assert len(events) == 1
        assert events[0]["kind"] == "cc_echo"
        assert telemetry.metrics.counters()["cache.evicted"] == 1

    def test_max_bytes_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "4096")
        assert default_max_bytes() == 4096
        assert ResultCache(tmp_path / "cache").max_bytes == 4096
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")
        assert default_max_bytes() is None
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES")
        assert ResultCache(tmp_path / "cache").max_bytes is None

    def test_max_bytes_env_var_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "lots")
        with pytest.raises(ValueError, match="REPRO_CACHE_MAX_BYTES"):
            default_max_bytes()

    def test_explicit_max_bytes_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            ResultCache(tmp_path / "cache", max_bytes=-5)

    def test_eviction_accounts_for_foreign_writers(self, tmp_path):
        """A bounded cache evicts entries another process wrote too."""
        size = _entry_size(tmp_path)
        foreign = ResultCache(tmp_path / "cache")
        for index in range(4):
            foreign.put(_spec(index), {"value": index, "seed": 1})
            time.sleep(0.01)
        bounded = ResultCache(tmp_path / "cache", max_bytes=size * 2)
        bounded.put(_spec(9), {"value": 9, "seed": 1})
        on_disk = list((tmp_path / "cache").rglob("*.json"))
        assert len(on_disk) == 2
        assert bounded.get(_spec(9)) == {"value": 9, "seed": 1}


class TestConcurrentCacheAccess:
    """Two handles on one directory racing puts, gets and evictions."""

    SPECS = 12
    ITERATIONS = 60

    def _expected(self, index: int) -> dict:
        return {"value": index, "seed": 1}

    def test_racing_puts_gets_and_evictions_never_tear(self, tmp_path):
        size = _entry_size(tmp_path)
        # Small enough that eviction runs constantly, large enough that
        # gets still hit sometimes.
        caches = [
            ResultCache(tmp_path / "cache", max_bytes=size * 4)
            for _ in range(2)
        ]
        errors = []
        start = threading.Barrier(4)

        def worker(cache: ResultCache, offset: int) -> None:
            try:
                start.wait(timeout=10)
                for step in range(self.ITERATIONS):
                    index = (step + offset) % self.SPECS
                    cache.put(_spec(index), self._expected(index))
                    probe = (step * 5 + offset) % self.SPECS
                    value = cache.get(_spec(probe))
                    if value is not MISS and value != self._expected(probe):
                        errors.append(f"torn read for spec {probe}: {value!r}")
            except Exception as exc:  # noqa: BLE001 - surfaced via errors
                errors.append(f"worker raised {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=worker, args=(caches[i % 2], i * 3))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors[:5]
        # A torn or truncated document would have been counted (and
        # deleted) as an invalid entry by whichever reader saw it.
        assert all(cache.invalid == 0 for cache in caches)
        # Whatever survived on disk must be complete, valid documents.
        survivors = 0
        readback = ResultCache(tmp_path / "cache")
        for index in range(self.SPECS):
            value = readback.get(_spec(index))
            if value is not MISS:
                assert value == self._expected(index)
                survivors += 1
        assert readback.invalid == 0
        assert survivors >= 1

    def test_two_engines_share_a_cache_directory(self, tmp_path):
        """Concurrent engines agree on values and never see torn entries."""
        caches = [ResultCache(tmp_path / "cache") for _ in range(2)]
        engines = [
            JobEngine(jobs=1, cache=cache, telemetry=Telemetry())
            for cache in caches
        ]
        specs = [_spec(index) for index in range(8)]
        outcomes = [None, None]
        start = threading.Barrier(2)

        def run(slot: int) -> None:
            start.wait(timeout=10)
            outcomes[slot] = engines[slot].run(specs)

        threads = [
            threading.Thread(target=run, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        for slot in (0, 1):
            assert outcomes[slot] is not None
            for index, outcome in enumerate(outcomes[slot]):
                assert outcome.ok, outcome.error
                assert outcome.value == self._expected(index)
        assert all(cache.invalid == 0 for cache in caches)
        # Between them the engines executed each spec at least once and
        # at most twice (a hit on the other engine's write is legal).
        writes = sum(cache.writes for cache in caches)
        assert len(specs) <= writes <= 2 * len(specs)
