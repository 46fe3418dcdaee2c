"""Render an obs run summary as the ``obs report`` text table.

Stdlib-only on purpose: :mod:`repro.obs` is imported from deep library
layers (``repro.kernels``), so the render path must not pull in the
analysis stack.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.3f}"
    return str(value)


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return lines


def render_summary(summary: Dict[str, Any]) -> str:
    """The per-run report: spans, histograms, counters and gauges."""
    lines: List[str] = []
    run_id = summary.get("run_id", "<unsaved>")
    label = summary.get("label")
    title = f"obs run {run_id}" + (f" ({label})" if label else "")
    lines.append(title)
    lines.append("=" * len(title))
    fused = summary.get("fused_status", "unknown")
    if isinstance(fused, dict):
        fused = " ".join(f"{family}={status}" for family, status in fused.items())
    lines.append(f"events: {summary.get('num_events', 0)}  fused: {fused}")

    histograms: Dict[str, Any] = summary.get("histograms", {})
    spans = {k: v for k, v in histograms.items() if k.startswith("span.")}
    values = {k: v for k, v in histograms.items() if not k.startswith("span.")}
    if spans:
        rows = [
            [
                name[len("span.") :],
                str(stats["count"]),
                f"{stats['count'] * stats['mean']:.1f}",
                f"{stats['p50']:.3f}",
                f"{stats['p99']:.3f}",
                f"{stats['max']:.3f}",
            ]
            for name, stats in spans.items()
        ]
        lines.append("")
        lines.append("spans (durations in ms, exact percentiles)")
        lines.extend(
            _render_table(["span", "count", "total", "p50", "p99", "max"], rows)
        )
    if values:
        rows = [
            [
                name,
                str(stats["count"]),
                _format_value(stats["mean"]),
                _format_value(stats["p50"]),
                _format_value(stats["p99"]),
            ]
            for name, stats in values.items()
        ]
        lines.append("")
        lines.append("histograms")
        lines.extend(_render_table(["metric", "count", "mean", "p50", "p99"], rows))

    counters: Dict[str, Any] = summary.get("counters", {})
    if counters:
        rows = [[name, _format_value(value)] for name, value in counters.items()]
        lines.append("")
        lines.append("counters")
        lines.extend(_render_table(["counter", "value"], rows))

    gauges: Dict[str, Any] = summary.get("gauges", {})
    if gauges:
        rows = [[name, _format_value(value)] for name, value in gauges.items()]
        lines.append("")
        lines.append("gauges")
        lines.extend(_render_table(["gauge", "value"], rows))

    return "\n".join(lines)
