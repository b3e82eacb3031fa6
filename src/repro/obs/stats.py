"""The ``repro stats`` report: from a raw trace to where-the-time-went.

:func:`stats_summary` distills an event stream into one JSON-ready dict
(span aggregates, SA acceptance trajectory, cache and job figures, merged
metric histograms); :func:`render_stats` turns that dict into the human
report.  Both operate on already-loaded events so the CLI, tests and the
bench writers share one code path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional

from .metrics import merge_histograms
from .trace import SpanTree, build_span_tree


def _span_aggregates(tree: SpanTree) -> List[dict]:
    """Per-name span totals, sorted by self-time (descending)."""
    by_name: Dict[str, dict] = {}
    for node in tree.walk():
        row = by_name.setdefault(
            node.name,
            {"name": node.name, "count": 0, "total_s": 0.0, "self_s": 0.0},
        )
        row["count"] += 1
        row["total_s"] += node.seconds or 0.0
        row["self_s"] += node.self_seconds
    rows = sorted(by_name.values(), key=lambda r: r["self_s"], reverse=True)
    for row in rows:
        row["total_s"] = round(row["total_s"], 6)
        row["self_s"] = round(row["self_s"], 6)
        row["mean_s"] = round(row["total_s"] / row["count"], 6) if row["count"] else 0.0
    return rows


def _phase_breakdown(tree: SpanTree) -> List[dict]:
    """Share of the root span's wall time taken by each top-level child."""
    if not tree.roots:
        return []
    root = tree.roots[0]
    total = root.seconds or 0.0
    rows = []
    accounted = 0.0
    for child in root.children:
        seconds = child.seconds or 0.0
        accounted += seconds
        rows.append(
            {
                "phase": child.name,
                "seconds": round(seconds, 6),
                "fraction": round(seconds / total, 4) if total else 0.0,
            }
        )
    if total:
        rows.append(
            {
                "phase": "(untracked)",
                "seconds": round(max(0.0, total - accounted), 6),
                "fraction": round(max(0.0, total - accounted) / total, 4),
            }
        )
    return rows


def _acceptance_curve(events: List[dict], max_points: int = 20) -> List[dict]:
    """The SA acceptance trajectory, downsampled to ``max_points`` steps."""
    steps = [e for e in events if e.get("event") == "sa.step"]
    if not steps:
        return []
    stride = max(1, len(steps) // max_points)
    curve = [
        {
            "temperature": round(float(e.get("temperature", 0.0)), 6),
            "acceptance": round(float(e.get("acceptance", 0.0)), 4),
            "cost": round(float(e.get("cost", 0.0)), 6),
        }
        for e in steps[::stride]
    ]
    last = steps[-1]
    if curve and curve[-1]["temperature"] != round(float(last.get("temperature", 0.0)), 6):
        curve.append(
            {
                "temperature": round(float(last.get("temperature", 0.0)), 6),
                "acceptance": round(float(last.get("acceptance", 0.0)), 4),
                "cost": round(float(last.get("cost", 0.0)), 6),
            }
        )
    return curve


def _merged_metrics(events: List[dict]) -> Dict[str, dict]:
    """Merge per-job ``metrics`` snapshots into run-wide figures.

    A worker may flush several times; only its *last* snapshot per
    attribution tag counts (snapshots are cumulative), keyed by the
    ``job`` tag the engine stamps on ingested events.
    """
    last_per_tag: "OrderedDict[object, dict]" = OrderedDict()
    for event in events:
        if event.get("event") == "metrics" and isinstance(event.get("metrics"), dict):
            last_per_tag[event.get("job")] = event["metrics"]
    merged: Dict[str, dict] = {}
    names = sorted({name for snap in last_per_tag.values() for name in snap})
    for name in names:
        snaps = [snap[name] for snap in last_per_tag.values() if name in snap]
        kinds = {s.get("kind") for s in snaps}
        if kinds == {"counter"}:
            merged[name] = {
                "kind": "counter",
                "value": sum(s.get("value", 0) for s in snaps),
            }
        elif kinds == {"histogram"}:
            try:
                combined = merge_histograms(snaps)
            except (ValueError, KeyError):
                combined = None
            if combined is not None:
                combined["mean"] = (
                    round(combined["sum"] / combined["count"], 6)
                    if combined["count"]
                    else None
                )
                merged[name] = combined
        elif kinds == {"gauge"}:
            values = [s.get("value") for s in snaps if s.get("value") is not None]
            merged[name] = {
                "kind": "gauge",
                "value": values[-1] if values else None,
                "min": min((s["min"] for s in snaps if s.get("min") is not None),
                           default=None),
                "max": max((s["max"] for s in snaps if s.get("max") is not None),
                           default=None),
            }
    return merged


def stats_summary(events: Iterable[dict]) -> dict:
    """Everything ``repro stats`` knows about a trace, as one dict."""
    events = [e for e in events if isinstance(e, dict)]
    tree = build_span_tree(events)
    meta = next((e for e in events if e.get("event") == "trace.meta"), None)

    cached = sum(1 for e in events if e.get("event") == "job.cached")
    done = [e for e in events if e.get("event") == "job.done"]
    failed = sum(1 for e in events if e.get("event") == "job.failed")
    retries = sum(1 for e in events if e.get("event") == "job.error")
    invalid = sum(1 for e in events if e.get("event") == "cache.invalid")
    puts = [e for e in events if e.get("event") == "cache.put"]
    waits = [e.get("queue_wait") for e in done if isinstance(e.get("queue_wait"), (int, float))]

    sa_ends = [e for e in events if e.get("event") == "sa.end"]
    proposed = sum(int(e.get("proposed", 0)) for e in sa_ends)
    accepted = sum(int(e.get("accepted", 0)) for e in sa_ends)
    sa_seconds = sum(
        float(e.get("seconds", 0.0))
        for e in sa_ends
        if isinstance(e.get("seconds"), (int, float))
    )

    kernel = [e for e in events if e.get("event") == "kernel.stats"]

    summary = {
        "meta": {
            k: v for k, v in (meta or {}).items() if k not in ("event", "t", "span")
        },
        "events": len(events),
        "spans": {
            "count": len(tree.nodes),
            "roots": len(tree.roots),
            "orphans": len(tree.orphans),
            "unclosed": len(tree.unclosed),
            "root_seconds": round(tree.roots[0].seconds, 6)
            if tree.roots and tree.roots[0].seconds is not None
            else None,
            "by_name": _span_aggregates(tree),
        },
        "phases": _phase_breakdown(tree),
        "jobs": {
            "done": len(done),
            "cached": cached,
            "failed": failed,
            "retries": retries,
            "mean_seconds": round(
                sum(float(e.get("seconds", 0.0)) for e in done) / len(done), 6
            )
            if done
            else None,
            "mean_queue_wait": round(sum(waits) / len(waits), 6) if waits else None,
            "max_queue_wait": round(max(waits), 6) if waits else None,
        },
        "cache": {
            "hits": cached,
            "misses": len(done),
            "invalid": invalid,
            "writes": len(puts),
            "bytes_written": sum(int(e.get("bytes", 0)) for e in puts),
            "hit_ratio": round(cached / (cached + len(done)), 4)
            if (cached + len(done))
            else None,
        },
        "sa": {
            "runs": len(sa_ends),
            "proposed": proposed,
            "accepted": accepted,
            "acceptance_ratio": round(accepted / proposed, 4) if proposed else None,
            "moves_per_s": round(proposed / sa_seconds, 1) if sa_seconds else None,
            "best_cost": min(
                (float(e.get("best_cost")) for e in sa_ends
                 if isinstance(e.get("best_cost"), (int, float))),
                default=None,
            ),
            "curve": _acceptance_curve(events),
        },
        "kernel": {
            "runs": len(kernel),
            "us_per_move": round(
                sum(float(e.get("us_per_move", 0.0)) for e in kernel) / len(kernel), 3
            )
            if kernel
            else None,
            "resyncs": sum(int(e.get("resyncs", 0)) for e in kernel),
        },
        "metrics": _merged_metrics(events),
    }
    return summary


def _fmt(value, suffix: str = "") -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}{suffix}"
    return f"{value}{suffix}"


def render_stats(summary: dict, top: int = 10) -> str:
    """The human report for one :func:`stats_summary` result."""
    lines: List[str] = []
    meta = summary.get("meta") or {}
    header = "trace"
    if meta:
        bits = [str(meta.get(k)) for k in ("command", "workload") if meta.get(k)]
        if bits:
            header = f"trace: repro {' '.join(bits)}"
        extras = [
            f"{k}={meta[k]}" for k in ("seed", "jobs", "schema") if k in meta
        ]
        if extras:
            header += f"  ({', '.join(extras)})"
    lines.append(header)

    spans = summary["spans"]
    lines.append(
        f"events: {summary['events']}  spans: {spans['count']} "
        f"(roots={spans['roots']}, orphans={spans['orphans']}, "
        f"unclosed={spans['unclosed']})"
    )
    if spans["root_seconds"] is not None:
        lines.append(f"wall time (root span): {spans['root_seconds']:.3f} s")

    if spans["by_name"]:
        lines.append("")
        lines.append(f"top spans by self-time (of {len(spans['by_name'])}):")
        width = max(len(r["name"]) for r in spans["by_name"][:top])
        lines.append(f"  {'span':<{width}}  {'count':>5}  {'self(s)':>9}  {'total(s)':>9}  {'mean(s)':>9}")
        for row in spans["by_name"][:top]:
            lines.append(
                f"  {row['name']:<{width}}  {row['count']:>5}  "
                f"{row['self_s']:>9.4f}  {row['total_s']:>9.4f}  {row['mean_s']:>9.4f}"
            )

    if summary["phases"]:
        lines.append("")
        lines.append("phase breakdown (children of the root span):")
        width = max(len(r["phase"]) for r in summary["phases"])
        for row in summary["phases"]:
            bar = "#" * int(round(row["fraction"] * 30))
            lines.append(
                f"  {row['phase']:<{width}}  {row['seconds']:>9.4f} s  "
                f"{row['fraction']:>6.1%}  {bar}"
            )

    jobs = summary["jobs"]
    if jobs["done"] or jobs["cached"] or jobs["failed"]:
        lines.append("")
        lines.append(
            f"jobs: done={jobs['done']} cached={jobs['cached']} "
            f"failed={jobs['failed']} retries={jobs['retries']}  "
            f"mean={_fmt(jobs['mean_seconds'], ' s')}  "
            f"queue wait mean={_fmt(jobs['mean_queue_wait'], ' s')} "
            f"max={_fmt(jobs['max_queue_wait'], ' s')}"
        )

    cache = summary["cache"]
    if cache["hits"] or cache["misses"] or cache["writes"] or cache["invalid"]:
        lines.append(
            f"cache: hits={cache['hits']} misses={cache['misses']} "
            f"invalid={cache['invalid']} writes={cache['writes']} "
            f"({cache['bytes_written']} B)  hit ratio={_fmt(cache['hit_ratio'])}"
        )

    sa = summary["sa"]
    if sa["runs"]:
        lines.append("")
        lines.append(
            f"annealer: runs={sa['runs']} proposed={sa['proposed']} "
            f"accepted={sa['accepted']} "
            f"(ratio={_fmt(sa['acceptance_ratio'])})  "
            f"moves/s={_fmt(sa['moves_per_s'])}  best cost={_fmt(sa['best_cost'])}"
        )
        if sa["curve"]:
            lines.append("acceptance curve (temperature -> acceptance):")
            for point in sa["curve"]:
                bar = "*" * int(round(point["acceptance"] * 30))
                lines.append(
                    f"  T={point['temperature']:<10.4g} "
                    f"acc={point['acceptance']:>6.1%}  {bar}"
                )

    kernel = summary["kernel"]
    if kernel["runs"]:
        lines.append(
            f"kernel: runs={kernel['runs']} "
            f"us/move={_fmt(kernel['us_per_move'])} resyncs={kernel['resyncs']}"
        )

    histograms = {
        name: snap
        for name, snap in (summary.get("metrics") or {}).items()
        if snap.get("kind") == "histogram" and snap.get("count")
    }
    if histograms:
        lines.append("")
        lines.append("metric histograms (merged across jobs):")
        for name, snap in sorted(histograms.items()):
            lines.append(
                f"  {name}: n={snap['count']} mean={_fmt(snap.get('mean'))} "
                f"min={_fmt(snap.get('min'))} max={_fmt(snap.get('max'))}"
            )
    return "\n".join(lines)
