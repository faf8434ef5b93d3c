"""Markdown run reports from structured event logs.

Takes the JSONL emitted by :class:`repro.obs.tracing.JSONLSink` (or any
list of event dicts) and renders the run as a human-readable Markdown
document: a headline summary, a per-layer breakdown of event counts and
time spans, timeline excerpts, and — when a
:class:`~repro.obs.metrics.MetricsRegistry` or its snapshot is supplied —
per-layer metric tables.

This is the reading half of the observability layer: instrument a run
(``python -m repro.experiments run fig8a --no-cache --trace run.jsonl``
or :func:`repro.obs.tracing.capture`), then::

    python scripts/run_report.py run.jsonl -o run.md

Events are plain dicts ``{"t", "layer", "event", **fields}``; unknown
fields are rendered verbatim, so new instrumentation shows up in reports
without touching this module.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

TraceRecord = Mapping[str, object]

#: Rendering order for the library's layers; unknown layers sort after.
LAYER_ORDER = (
    "sim", "net", "tcp", "bittorrent", "wp2p", "app",
    "strategy", "coding", "chaos", "scale",
)


def _layer_key(layer: str) -> tuple:
    try:
        return (LAYER_ORDER.index(layer), layer)
    except ValueError:
        return (len(LAYER_ORDER), layer)


def _fmt_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _fmt_event_line(record: TraceRecord) -> str:
    """One timeline line: time, layer, event name, then the fields."""
    t = record.get("t", 0.0)
    fields = ", ".join(
        f"{key}={_fmt_value(value)}"
        for key, value in record.items()
        if key not in ("t", "layer", "event")
    )
    base = f"{float(t):10.4f}  {record.get('layer', '?'):<10} {record.get('event', '?')}"
    return f"{base}  {fields}" if fields else base


def group_by_layer(events: Sequence[TraceRecord]) -> Dict[str, List[TraceRecord]]:
    """Events bucketed by their ``layer`` field, in render order."""
    buckets: Dict[str, List[TraceRecord]] = {}
    for record in events:
        buckets.setdefault(str(record.get("layer", "?")), []).append(record)
    return {layer: buckets[layer] for layer in sorted(buckets, key=_layer_key)}


def event_counts(events: Sequence[TraceRecord]) -> Dict[str, Dict[str, int]]:
    """``{layer: {event_name: count}}`` over the whole log."""
    out: Dict[str, Dict[str, int]] = {}
    for layer, records in group_by_layer(events).items():
        counts: Dict[str, int] = {}
        for record in records:
            name = str(record.get("event", "?"))
            counts[name] = counts.get(name, 0) + 1
        out[layer] = counts
    return out


def _metrics_rows(metrics) -> List[tuple]:
    """Normalize a MetricsRegistry / snapshot dict into (name, detail) rows."""
    if metrics is None:
        return []
    if hasattr(metrics, "rows"):  # a MetricsRegistry
        return [(name, kind, snap) for name, kind, snap in metrics.rows()]
    # a snapshot() dict: {name: {field: value}}
    return [(name, "", snap) for name, snap in sorted(metrics.items())]


def render_report(
    events: Sequence[TraceRecord],
    metrics=None,
    title: str = "Run report",
    excerpt: int = 12,
) -> str:
    """Render an event log (and optional metrics) as Markdown.

    Parameters
    ----------
    events:
        Trace records, e.g. from :func:`repro.obs.tracing.read_jsonl`.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` (or its
        ``snapshot()`` dict) to render as per-layer metric tables.
    title:
        The report's H1.
    excerpt:
        How many events to show at the head and tail of each layer's
        timeline excerpt.
    """
    lines: List[str] = [f"# {title}", ""]

    if not events:
        lines.append("_No events recorded._")
        return "\n".join(lines) + "\n"

    times = [float(r.get("t", 0.0)) for r in events]
    start, end = min(times), max(times)
    by_layer = group_by_layer(events)
    lines += [
        f"- **Events:** {len(events)}",
        f"- **Simulated time span:** {start:.4f}s – {end:.4f}s "
        f"({end - start:.4f}s)",
        f"- **Layers:** {', '.join(by_layer)}",
        "",
    ]

    # ------------------------------------------------------------------
    # Per-layer event-count tables
    # ------------------------------------------------------------------
    lines += ["## Events by layer", ""]
    counts = event_counts(events)
    for layer, per_event in counts.items():
        records = by_layer[layer]
        layer_times = [float(r.get("t", 0.0)) for r in records]
        lines += [
            f"### `{layer}` — {len(records)} events",
            "",
            "| event | count | first (s) | last (s) |",
            "|---|---:|---:|---:|",
        ]
        for name in sorted(per_event):
            evs = [r for r in records if r.get("event") == name]
            ts = [float(r.get("t", 0.0)) for r in evs]
            lines.append(
                f"| `{name}` | {per_event[name]} | {min(ts):.4f} | {max(ts):.4f} |"
            )
        lines += [
            "",
            f"_Span: {min(layer_times):.4f}s – {max(layer_times):.4f}s_",
            "",
        ]

    # ------------------------------------------------------------------
    # Metric tables (optional)
    # ------------------------------------------------------------------
    rows = _metrics_rows(metrics)
    if rows:
        lines += ["## Metrics", ""]
        lines += ["| metric | kind | snapshot |", "|---|---|---|"]
        for name, kind, snap in rows:
            detail = ", ".join(
                f"{key}={_fmt_value(value)}" for key, value in snap.items()
            )
            lines.append(f"| `{name}` | {kind} | {detail} |")
        lines.append("")

    # ------------------------------------------------------------------
    # Fault recovery (MTTR) — present when chaos ran with tracing on
    # ------------------------------------------------------------------
    recovered = [
        r for r in events
        if r.get("layer") == "chaos" and r.get("event") == "recovered"
    ]
    if recovered:
        mttrs = [float(r.get("mttr", 0.0)) for r in recovered]
        lines += [
            "## Fault recovery (MTTR)",
            "",
            f"- **Recovered faults:** {len(recovered)}",
            f"- **Mean MTTR:** {sum(mttrs) / len(mttrs):.4f}s",
            f"- **Max MTTR:** {max(mttrs):.4f}s",
            "",
            "| recovered at (s) | fault | target | baseline (B/s) | MTTR (s) |",
            "|---:|---|---|---:|---:|",
        ]
        for r in recovered:
            lines.append(
                f"| {float(r.get('t', 0.0)):.4f} | `{r.get('fault', '?')}` "
                f"| `{r.get('target', '?')}` "
                f"| {_fmt_value(r.get('baseline', 0.0))} "
                f"| {float(r.get('mttr', 0.0)):.4f} |"
            )
        lines.append("")

    # ------------------------------------------------------------------
    # Timeline excerpts
    # ------------------------------------------------------------------
    lines += ["## Timeline excerpts", ""]
    for layer, records in by_layer.items():
        lines += [f"### `{layer}`", "", "```"]
        if len(records) <= 2 * excerpt:
            lines += [_fmt_event_line(r) for r in records]
        else:
            lines += [_fmt_event_line(r) for r in records[:excerpt]]
            lines.append(f"... {len(records) - 2 * excerpt} events elided ...")
            lines += [_fmt_event_line(r) for r in records[-excerpt:]]
        lines += ["```", ""]

    return "\n".join(lines) + "\n"


def report_from_jsonl(
    path: str,
    metrics=None,
    title: Optional[str] = None,
    excerpt: int = 12,
) -> str:
    """Load a JSONL event log and render it (see :func:`render_report`)."""
    from ..obs.tracing import read_jsonl

    events = read_jsonl(path)
    return render_report(
        events, metrics=metrics, title=title or f"Run report — {path}",
        excerpt=excerpt,
    )
