"""Trace and metrics export.

Experiments produce :class:`~repro.env.trace.Trace` objects; this module
serialises them to CSV (for plotting with any external tool) and JSON (for
archiving alongside EXPERIMENTS.md), and loads them back, so long runs do
not need to be repeated to re-analyse their results.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Iterable

from repro.errors import ExperimentError
from repro.env.metrics import EpisodeMetrics
from repro.env.trace import FrameRecord, Trace

#: Column order used by the CSV exports (one column per FrameRecord field).
TRACE_FIELDS = tuple(field.name for field in dataclasses.fields(FrameRecord))


def trace_to_csv(trace: Trace, path: str | Path) -> Path:
    """Write a trace to ``path`` as CSV with one row per frame."""
    if len(trace) == 0:
        raise ExperimentError("cannot export an empty trace")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=TRACE_FIELDS)
        writer.writeheader()
        for record in trace:
            writer.writerow(dataclasses.asdict(record))
    return path


def trace_from_csv(path: str | Path) -> Trace:
    """Load a trace previously written by :func:`trace_to_csv`."""
    path = Path(path)
    if not path.exists():
        raise ExperimentError(f"trace file {path} does not exist")
    records = []
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            records.append(_record_from_row(row))
    return Trace(records)


#: Parser of each FrameRecord field type in a CSV row.
_PARSERS = {"int": int, "float": float, "str": str, "bool": lambda raw: raw in ("True", "true", "1")}


def _record_from_row(row: dict) -> FrameRecord:
    return FrameRecord(
        **{f.name: _PARSERS[f.type](row[f.name]) for f in dataclasses.fields(FrameRecord)}
    )


def metrics_to_json(metrics: EpisodeMetrics, path: str | Path, label: str = "") -> Path:
    """Write an :class:`EpisodeMetrics` summary to ``path`` as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dataclasses.asdict(metrics)
    if label:
        payload["label"] = label
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def metrics_from_json(path: str | Path) -> dict:
    """Load a metrics JSON file back into a plain dictionary."""
    path = Path(path)
    if not path.exists():
        raise ExperimentError(f"metrics file {path} does not exist")
    return json.loads(path.read_text(encoding="utf-8"))


def traces_to_directory(traces: dict[str, Trace], directory: str | Path) -> list[Path]:
    """Write one CSV per named trace into ``directory`` (e.g. per method)."""
    directory = Path(directory)
    written = []
    for name, trace in traces.items():
        written.append(trace_to_csv(trace, directory / f"{name}.csv"))
    return written


def summarise_to_markdown(rows: Iterable[tuple[str, EpisodeMetrics]]) -> str:
    """Render ``(label, metrics)`` pairs as a Markdown table (for reports)."""
    lines = [
        "| method | mean latency (ms) | latency std (ms) | satisfaction | mean T (C) | throttled |",
        "|---|---|---|---|---|---|",
    ]
    count = 0
    for label, metrics in rows:
        count += 1
        lines.append(
            f"| {label} | {metrics.mean_latency_ms:.1f} | {metrics.latency_std_ms:.1f} | "
            f"{metrics.satisfaction_rate * 100:.1f}% | {metrics.mean_temperature_c:.1f} | "
            f"{metrics.throttled_fraction * 100:.1f}% |"
        )
    if count == 0:
        raise ExperimentError("no rows to summarise")
    return "\n".join(lines)
