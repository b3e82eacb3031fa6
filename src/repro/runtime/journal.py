"""The job journal: an append-only write-ahead log of job lifecycles.

The cache answers "what did this job compute?"; the journal answers
"what was this process *doing* when it died?".  Every lifecycle
transition — ``submitted``, ``started``, ``retried``, ``settled``,
``failed`` — is appended as one JSONL record and (by default) fsync'd
before the transition is acted on, so a ``kill -9`` at any instant
leaves a prefix of the truth on disk:

- a digest whose last record is ``settled`` is done; its value is in the
  record and is served without re-execution;
- a digest whose last record is ``submitted``/``started``/``retried``
  was in flight; replay reports it exactly once for re-enqueueing;
- a digest whose last record is ``failed`` stays failed (terminal) until
  a later ``submitted`` supersedes it.

Record format (one JSON object per line, key order canonical)::

    {"v": 1, "seq": 17, "ts": 1754650000.1, "rec": "settled",
     "digest": "ab12...", "spec": {"kind": ..., "params": ..., "seed": ...},
     "value": ..., "attempts": 1, "seconds": 0.8, "cached": false}

``submitted`` and ``settled`` records embed the spec, so the journal is
self-contained: replay can rebuild a runnable :class:`JobSpec` for every
in-flight digest and answer every settled digest without consulting the
cache.  ``seq`` is a monotonic per-file sequence; on conflicting records
for one digest the *latest in file order* wins, which is what makes a
duplicate ``settled`` (two engines racing on a shared journal) harmless.

Crash tolerance on replay: a torn *final* line is the expected signature
of dying mid-append — it is dropped and counted in ``diagnostics``.
Garbage *before* the final line means something other than a crash
damaged the file, and replay raises
:class:`~repro.errors.JournalCorruptionError` rather than guess which
half of the history to trust.

The file is bounded: once it outgrows ``compact_bytes``, the history is
rewritten in place (atomically, via :func:`atomic_write_text`) keeping
one record per live digest — latest ``settled`` per settled digest, the
``submitted`` record per in-flight digest, the ``failed`` record per
failed digest — so a long-running daemon's journal grows with its *state*,
not its *traffic*.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import JournalCorruptionError, JournalError
from .atomic import atomic_write_text
from .spec import JobSpec
from .telemetry import get_telemetry

#: Bump when the record layout changes incompatibly.
JOURNAL_VERSION = 1

#: Lifecycle transitions a journal records, in the order they can occur.
RECORD_TYPES = ("submitted", "started", "retried", "settled", "failed")

#: Default compaction trigger: rewrite once the file exceeds this size.
DEFAULT_COMPACT_BYTES = 4 * 1024 * 1024


def _spec_payload(spec: JobSpec) -> dict:
    """The embedded spec form: enough to rebuild a runnable JobSpec."""
    canonical = spec.canonical()
    return {
        "kind": canonical["kind"],
        "params": canonical["params"],
        "seed": canonical["seed"],
    }


def _spec_from_payload(payload: dict) -> JobSpec:
    return JobSpec(
        kind=payload["kind"],
        params=dict(payload.get("params") or {}),
        seed=payload.get("seed"),
    )


def spec_from_record(record: dict) -> Optional[JobSpec]:
    """Rebuild the :class:`JobSpec` a journal record embeds, or ``None``.

    Used by replay consumers (the serve daemon's restart recovery) that
    hold raw ``settled``/``failed`` records rather than digests.
    """
    payload = record.get("spec")
    if not isinstance(payload, dict):
        return None
    try:
        return _spec_from_payload(payload)
    except (KeyError, TypeError):
        return None


class JobJournal:
    """Append-only JSONL job-lifecycle log with crash-tolerant replay.

    Thread-safe (the serve daemon records from its dispatcher thread while
    the engine records from request handlers); single-writer per *process*
    is assumed for the append path, but replay and compaction tolerate a
    foreign writer having appended or compacted the same file — renames
    are atomic, and replay resolves conflicting records last-wins.

    ``fsync=False`` trades durability of the last few records for append
    throughput (the file is still written append-only and torn-tail
    tolerant); the default is durable.
    """

    def __init__(
        self,
        path,
        fsync: bool = True,
        compact_bytes: Optional[int] = DEFAULT_COMPACT_BYTES,
    ) -> None:
        self.path = Path(path).expanduser()
        self.fsync = bool(fsync)
        if compact_bytes is not None and compact_bytes <= 0:
            raise ValueError(f"compact_bytes must be positive, got {compact_bytes}")
        self.compact_bytes = compact_bytes
        self._lock = threading.Lock()
        self._handle: Optional[io.TextIOWrapper] = None
        self._seq = 0
        self._bytes = 0
        self._settled: Dict[str, dict] = {}
        self._inflight: Dict[str, dict] = {}
        self._failed: Dict[str, dict] = {}
        #: Record counts by type, accumulated across replay and appends.
        self.counts: Dict[str, int] = {name: 0 for name in RECORD_TYPES}
        #: Replay/append anomalies: ``torn_tail`` (dropped final lines),
        #: ``duplicate_settled`` (last-wins races), ``unknown`` (record
        #: types from a newer writer), ``compactions``.
        self.diagnostics: Dict[str, int] = {
            "torn_tail": 0,
            "duplicate_settled": 0,
            "unknown": 0,
            "compactions": 0,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._replay()
        #: In-flight digests as of open: the crash-recovery work list.
        self._recovered: List[dict] = list(self._inflight.values())

    # -- replay ------------------------------------------------------------

    def _replay(self) -> None:
        try:
            raw = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return
        except OSError as exc:
            raise JournalError(f"cannot read journal {self.path}: {exc}") from exc
        self._bytes = len(raw.encode("utf-8"))
        lines = raw.splitlines()
        while lines and not lines[-1].strip():
            lines.pop()
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or "rec" not in record:
                    raise ValueError("not a journal record object")
            except ValueError as exc:
                if index == len(lines) - 1:
                    # Torn tail: the crash interrupted the final append.
                    self.diagnostics["torn_tail"] += 1
                    self._bytes -= len(line.encode("utf-8")) + 1
                    get_telemetry().metrics.counter("journal.torn_tail").inc()
                    break
                raise JournalCorruptionError(
                    f"journal {self.path} line {index + 1} is corrupt "
                    f"(not the final line, so not a torn tail): {exc}"
                ) from exc
            self._seq = max(self._seq, int(record.get("seq", 0)))
            self._apply(record)

    def _apply(self, record: dict) -> None:
        """Fold one record into the replay state (last record wins)."""
        rec = record.get("rec")
        digest = record.get("digest")
        if rec in self.counts:
            self.counts[rec] += 1
        if rec == "submitted":
            if digest not in self._settled:
                self._failed.pop(digest, None)
                self._inflight[digest] = record
        elif rec == "started":
            entry = self._inflight.get(digest)
            if entry is not None:
                entry["started"] = True
        elif rec == "retried":
            entry = self._inflight.get(digest)
            if entry is not None:
                entry["retries"] = entry.get("retries", 0) + 1
        elif rec == "settled":
            if digest in self._settled:
                self.diagnostics["duplicate_settled"] += 1
            self._inflight.pop(digest, None)
            self._failed.pop(digest, None)
            self._settled[digest] = record
        elif rec == "failed":
            prior = self._inflight.pop(digest, None)
            self._settled.pop(digest, None)
            if "spec" not in record and prior is not None and "spec" in prior:
                record["spec"] = prior["spec"]
            self._failed[digest] = record
        else:
            self.diagnostics["unknown"] += 1

    # -- append ------------------------------------------------------------

    def _ensure_handle(self) -> io.TextIOWrapper:
        if self._handle is None or self._handle.closed:
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def _append(self, record: dict) -> None:
        """Stamp, apply, and durably write one record (lock held)."""
        self._seq += 1
        record["v"] = JOURNAL_VERSION
        record["seq"] = self._seq
        record["ts"] = round(time.time(), 3)
        self._apply(record)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        handle = self._ensure_handle()
        handle.write(line + "\n")
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())
        self._bytes += len(line.encode("utf-8")) + 1
        if self.compact_bytes is not None and self._bytes > self.compact_bytes:
            self._compact_locked()

    # -- recording ---------------------------------------------------------

    def record_submitted(self, spec: JobSpec) -> bool:
        """Log admission of *spec*; returns False (and writes nothing) when
        the digest is already in flight or settled — the exactly-once
        guard recovery relies on."""
        digest = spec.digest()
        with self._lock:
            if digest in self._inflight or digest in self._settled:
                return False
            self._append(
                {"rec": "submitted", "digest": digest, "spec": _spec_payload(spec)}
            )
            return True

    def record_started(self, digest: str) -> bool:
        """Log that an in-flight digest began executing."""
        with self._lock:
            if digest not in self._inflight:
                return False
            self._append({"rec": "started", "digest": digest})
            return True

    def record_retried(self, digest: str, attempt: Optional[int] = None) -> bool:
        """Log one retry round for an in-flight digest."""
        with self._lock:
            if digest not in self._inflight:
                return False
            record = {"rec": "retried", "digest": digest}
            if attempt is not None:
                record["attempt"] = int(attempt)
            self._append(record)
            return True

    def record_settled(
        self,
        spec: JobSpec,
        value,
        attempts: int = 1,
        seconds: float = 0.0,
        cached: bool = False,
    ) -> bool:
        """Log the final value for *spec*; idempotent per digest.

        An already-settled digest is skipped without touching the disk —
        repeat submissions of a hot digest therefore cost one dict lookup,
        not one fsync.
        """
        digest = spec.digest()
        with self._lock:
            if digest in self._settled:
                return False
            self._append(
                {
                    "rec": "settled",
                    "digest": digest,
                    "spec": _spec_payload(spec),
                    "value": value,
                    "attempts": int(attempts),
                    "seconds": round(float(seconds), 6),
                    "cached": bool(cached),
                }
            )
            return True

    def record_failed(
        self, digest: str, error: str, error_class: Optional[str] = None
    ) -> bool:
        """Log a terminal failure (also supersedes a bad settled value)."""
        with self._lock:
            record = {"rec": "failed", "digest": digest, "error": str(error)}
            if error_class is not None:
                record["error_class"] = error_class
            self._append(record)
            return True

    # -- queries -----------------------------------------------------------

    def settled_record(self, digest: str) -> Optional[dict]:
        """The ``settled`` record for *digest*, or ``None``."""
        with self._lock:
            return self._settled.get(digest)

    def settled_records(self) -> Dict[str, dict]:
        with self._lock:
            return dict(self._settled)

    def failed_records(self) -> Dict[str, dict]:
        with self._lock:
            return dict(self._failed)

    def inflight_digests(self) -> List[str]:
        with self._lock:
            return list(self._inflight)

    def take_recovered(self) -> List[JobSpec]:
        """Specs that were in flight when this journal was opened.

        Consumes the recovery snapshot: the first caller gets the full
        work list, every later call gets ``[]`` — re-enqueue is exactly
        once even if two recovery paths race.  Records whose embedded
        spec is missing or unbuildable are skipped (they can still be
        inspected via :meth:`inflight_digests`).
        """
        with self._lock:
            recovered, self._recovered = self._recovered, []
        specs: List[JobSpec] = []
        for record in recovered:
            payload = record.get("spec")
            if not isinstance(payload, dict):
                continue
            try:
                specs.append(_spec_from_payload(payload))
            except (KeyError, TypeError):
                continue
        return specs

    # -- compaction --------------------------------------------------------

    def _live_records(self) -> List[dict]:
        records = list(self._settled.values())
        records += list(self._failed.values())
        records += list(self._inflight.values())
        records.sort(key=lambda record: record.get("seq", 0))
        return records

    def _compact_locked(self) -> int:
        before = self._bytes
        lines = []
        for seq, record in enumerate(self._live_records(), start=1):
            compacted = dict(record)
            compacted["seq"] = seq
            # Started/retry progress is meaningful only within the run
            # that recorded it; a compacted in-flight record is just the
            # admission fact.
            compacted.pop("started", None)
            compacted.pop("retries", None)
            lines.append(
                json.dumps(compacted, sort_keys=True, separators=(",", ":"))
            )
        data = "".join(line + "\n" for line in lines)
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
            self._handle = None
        atomic_write_text(self.path, data, durable=self.fsync)
        self._seq = len(lines)
        self._bytes = len(data.encode("utf-8"))
        self.diagnostics["compactions"] += 1
        get_telemetry().emit(
            "journal.compact",
            records=len(lines),
            bytes=self._bytes,
            reclaimed=max(0, before - self._bytes),
        )
        get_telemetry().metrics.counter("journal.compactions").inc()
        return len(lines)

    def compact(self) -> int:
        """Rewrite the file keeping one record per live digest; returns
        the number of records kept."""
        with self._lock:
            return self._compact_locked()

    # -- summary / lifecycle -----------------------------------------------

    def summary(self) -> dict:
        """Machine-readable state for ``repro journal`` and tests."""
        with self._lock:
            return {
                "path": str(self.path),
                "bytes": self._bytes,
                "seq": self._seq,
                "records": dict(self.counts),
                "settled": len(self._settled),
                "inflight": len(self._inflight),
                "failed": len(self._failed),
                "diagnostics": dict(self.diagnostics),
            }

    def close(self) -> None:
        with self._lock:
            if self._handle is not None and not self._handle.closed:
                self._handle.close()
            self._handle = None

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
