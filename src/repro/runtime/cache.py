"""Digest-keyed on-disk result cache.

Layout: ``<root>/<kind>/<digest[:2]>/<digest>.json``, each file a small
JSON document holding the canonical spec (for auditability) and the job
value.  Values are JSON, not pickle: entries stay inspectable with any
text tool and survive library refactors; anything a job returns must
therefore be plain scalars/lists/dicts, which is also what makes results
portable across processes.

The root resolves, in order: explicit argument, ``$REPRO_CACHE_DIR``,
``~/.cache/repro``.  Writes are atomic (temp file + rename) so a killed
run never leaves a truncated entry.  Loads are validated: the JSON must
parse, carry the current schema version and a payload digest equal to the
requesting spec's digest — a truncated, garbled, swapped or stale entry
reads as a miss (re-run), is deleted, and emits a ``cache.invalid``
telemetry event naming the reason.

The cache can be bounded: ``ResultCache(max_bytes=...)`` (or
``$REPRO_CACHE_MAX_BYTES``) caps the total on-disk size.  Every put that
pushes the tree over the cap evicts least-recently-used entries (mtime
order; hits touch the entry, so reads refresh recency) until it fits
again, never evicting the entry just written.  Evictions emit
``cache.evict`` telemetry and the ``evicted`` stat counts them — the
invariant a long-running daemon needs to not fill its disk.  Eviction is
safe against concurrent readers: a reader that loses the race observes an
ordinary miss (``FileNotFoundError``), never a torn file, because writes
only ever ``os.replace`` complete documents.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional

from .spec import CACHE_SCHEMA_VERSION, JobSpec
from .telemetry import get_telemetry


class _Miss:
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<cache MISS>"

    def __bool__(self) -> bool:
        return False


#: Sentinel returned by :meth:`ResultCache.get` so cached falsy values
#: (0, {}, None) are distinguishable from an absent entry.
MISS = _Miss()


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def default_max_bytes() -> Optional[int]:
    """The ``$REPRO_CACHE_MAX_BYTES`` cap, or ``None`` (unbounded)."""
    env = os.environ.get("REPRO_CACHE_MAX_BYTES")
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        raise ValueError(
            f"$REPRO_CACHE_MAX_BYTES must be an integer byte count, got {env!r}"
        ) from None
    return value if value > 0 else None


class ResultCache:
    """Get/put job values by spec digest, with hit/miss/write counters.

    ``max_bytes`` bounds the total on-disk size (LRU eviction on put);
    ``None`` falls back to ``$REPRO_CACHE_MAX_BYTES``, and an unset
    environment means unbounded (the historical behaviour).
    """

    def __init__(self, root=None, max_bytes: Optional[int] = None) -> None:
        self.root = Path(root).expanduser() if root else default_cache_dir()
        self.max_bytes = max_bytes if max_bytes is not None else default_max_bytes()
        if self.max_bytes is not None and self.max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {self.max_bytes}")
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.invalid = 0
        self.evicted = 0
        #: Running size estimate maintained by this process's puts; the
        #: authoritative number is re-scanned whenever eviction triggers,
        #: so concurrent writers in other processes are eventually seen.
        self._approx_bytes: Optional[int] = None

    def path_for(self, spec: JobSpec) -> Path:
        digest = spec.digest()
        return self.root / spec.kind / digest[:2] / f"{digest}.json"

    def get(self, spec: JobSpec):
        """The validated cached value for *spec*, or :data:`MISS`."""
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self.misses += 1
            return MISS
        except (ValueError, OSError):
            return self._reject(spec, path, "unreadable")
        if not isinstance(payload, dict) or "value" not in payload:
            return self._reject(spec, path, "malformed")
        if payload.get("schema") != CACHE_SCHEMA_VERSION:
            return self._reject(spec, path, "stale-schema")
        if payload.get("digest") != spec.digest():
            return self._reject(spec, path, "digest-mismatch")
        self.hits += 1
        try:
            # Touch the entry so LRU eviction sees reads, not just writes.
            os.utime(path)
        except OSError:  # pragma: no cover - racing eviction/deletion
            pass
        return payload["value"]

    def _reject(self, spec: JobSpec, path: Path, reason: str):
        """Drop an invalid entry, record it, and report a miss."""
        try:
            path.unlink()
        except OSError:
            pass
        self.invalid += 1
        self.misses += 1
        get_telemetry().emit(
            "cache.invalid", job=spec.label(), kind=spec.kind, reason=reason
        )
        get_telemetry().metrics.counter("cache.invalid").inc()
        return MISS

    def invalidate(self, spec: JobSpec) -> None:
        """Drop the entry of *spec* (used when its *value* failed checks).

        The read already counted as a hit; rebook it as an invalid miss so
        the stats describe what actually happened.
        """
        self.hits = max(0, self.hits - 1)
        self._reject(spec, self.path_for(spec), "invalid-value")

    def put(self, spec: JobSpec, value) -> Path:
        """Store *value* for *spec* atomically; returns the entry path."""
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "digest": spec.digest(),
            "spec": spec.canonical(),
            "value": value,
        }
        handle = tempfile.NamedTemporaryFile(
            "w",
            dir=path.parent,
            prefix=path.stem,
            suffix=".tmp",
            delete=False,
            encoding="utf-8",
        )
        try:
            with handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        self.writes += 1
        try:
            size = path.stat().st_size
        except OSError:  # pragma: no cover - racing deletion
            size = 0
        get_telemetry().emit(
            "cache.put", job=spec.label(), kind=spec.kind, bytes=int(size)
        )
        if self.max_bytes is not None:
            if self._approx_bytes is None:
                self._approx_bytes = self._scan_bytes()
            else:
                self._approx_bytes += int(size)
            if self._approx_bytes > self.max_bytes:
                self._evict(keep=path)
        return path

    # -- eviction ----------------------------------------------------------

    def _scan_bytes(self) -> int:
        total = 0
        if self.root.is_dir():
            for entry in self.root.rglob("*.json"):
                try:
                    total += entry.stat().st_size
                except OSError:
                    pass
        return total

    def _evict(self, keep: Optional[Path] = None) -> int:
        """Drop least-recently-used entries until the tree fits ``max_bytes``.

        *keep* (the entry just written) is never a victim — evicting what
        the caller is about to return would make every bounded put a
        self-defeating miss.  Returns the number of entries removed.
        Rescans the tree first so entries written by other processes
        sharing the directory are accounted and evictable too.
        """
        entries = []
        total = 0
        for entry in self.root.rglob("*.json"):
            try:
                stat = entry.stat()
            except OSError:
                continue
            total += stat.st_size
            entries.append((stat.st_mtime, stat.st_size, entry))
        removed = 0
        if total > self.max_bytes:
            entries.sort(key=lambda item: item[0])
            for _mtime, size, entry in entries:
                if total <= self.max_bytes:
                    break
                if keep is not None and entry == keep:
                    continue
                try:
                    entry.unlink()
                except OSError:
                    # Another process beat us to it; its bytes are gone
                    # either way.
                    total -= size
                    continue
                total -= size
                removed += 1
                self.evicted += 1
                get_telemetry().emit(
                    "cache.evict", kind=entry.parent.parent.name, bytes=int(size)
                )
                get_telemetry().metrics.counter("cache.evicted").inc()
        self._approx_bytes = total
        return removed

    def clear(self, kind: Optional[str] = None) -> int:
        """Delete entries (all, or one kind); returns the number removed."""
        base = self.root / kind if kind else self.root
        removed = 0
        if base.is_dir():
            for entry in base.rglob("*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        self._approx_bytes = None
        return removed

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "invalid": self.invalid,
            "evicted": self.evicted,
        }
