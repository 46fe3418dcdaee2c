"""Resilience metrics: how a fleet behaved under injected faults.

Summarises a (possibly faulted, possibly supervised) fleet run into the
quantities a degraded-operation report quotes: tail latency (p99) next to
the mean, how many (frame, session) cells ran degraded (sensor outage,
spike or throttling storm), how often the latency constraint still held,
and — for supervised runs — what the crash-recovery machinery observed
(worker deaths, restarts, time spent recovering).

The metrics read the run's columnar trace and the degraded mask recorded by
the fault-injection wrappers; nothing here re-runs anything.  Trace
aggregation streams bounded column windows (see
:mod:`repro.analysis.streaming`), so the report works unchanged — and in
bounded memory — whether the trace is an in-memory
:class:`~repro.env.fleet.FleetTrace` or a memory-mapped chunk store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.analysis.streaming import streaming_trace_stats
from repro.errors import ExperimentError


@dataclass(frozen=True)
class ResilienceReport:
    """Degraded-operation summary of one fleet run.

    Attributes:
        scenario: Name of the scenario that ran.
        num_frames: Episode length in frames.
        num_sessions: Fleet size.
        mean_latency_ms: Mean per-frame total latency across the fleet.
        p99_latency_ms: 99th-percentile per-frame total latency.
        constraint_met_fraction: Fraction of (frame, session) cells whose
            latency constraint held.
        degraded_cells: Number of (frame, session) cells that ran degraded.
        degraded_fraction: ``degraded_cells`` over all cells.
        degraded_sessions: Number of sessions with at least one degraded
            frame.
        crashes_detected: Worker deaths the supervisor observed (0 for
            unsupervised runs).
        restarts: Shard restarts the supervisor performed.
        recovery_s: Wall-clock seconds spent re-running shards after the
            first detected death.
    """

    scenario: str
    num_frames: int
    num_sessions: int
    mean_latency_ms: float
    p99_latency_ms: float
    constraint_met_fraction: float
    degraded_cells: int
    degraded_fraction: float
    degraded_sessions: int
    crashes_detected: int = 0
    restarts: int = 0
    recovery_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation (for report files and CI)."""
        return {
            "scenario": self.scenario,
            "num_frames": self.num_frames,
            "num_sessions": self.num_sessions,
            "mean_latency_ms": self.mean_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "constraint_met_fraction": self.constraint_met_fraction,
            "degraded_cells": self.degraded_cells,
            "degraded_fraction": self.degraded_fraction,
            "degraded_sessions": self.degraded_sessions,
            "crashes_detected": self.crashes_detected,
            "restarts": self.restarts,
            "recovery_s": self.recovery_s,
        }


def resilience_report(result: Any) -> ResilienceReport:
    """Summarise a fleet-run result into a :class:`ResilienceReport`.

    Accepts any result carrying a ``fleet_trace`` (and optionally a
    ``degraded`` mask and a supervised run's ``recovery`` report):
    :class:`~repro.runtime.fleet.FleetScenarioResult` and
    :class:`~repro.runtime.shards.SupervisedScenarioResult` both qualify.
    """
    trace = getattr(result, "fleet_trace", None)
    if trace is None or len(trace) == 0:
        raise ExperimentError("resilience_report needs a result with a fleet trace")
    # Single streaming pass over bounded column windows: no
    # (frames, sessions) matrix is ever materialised, so the report scales
    # to memory-mapped traces far larger than RAM.
    stats = streaming_trace_stats(trace)
    shape = (stats.num_frames, stats.num_sessions)
    total_cells = stats.num_frames * stats.num_sessions

    degraded = getattr(result, "degraded", None)
    if degraded is None:
        degraded_cells = 0
        degraded_sessions = 0
    else:
        degraded = np.asarray(degraded, dtype=bool)
        if degraded.shape != shape:
            raise ExperimentError(
                f"degraded mask shape {degraded.shape} does not match the "
                f"trace shape {shape}"
            )
        degraded_cells = int(degraded.sum())
        degraded_sessions = int(degraded.any(axis=0).sum())

    recovery = getattr(result, "recovery", None)
    scenario = getattr(result, "scenario", None)
    return ResilienceReport(
        scenario=getattr(scenario, "name", str(scenario or "")),
        num_frames=stats.num_frames,
        num_sessions=stats.num_sessions,
        mean_latency_ms=stats.mean_latency_ms,
        p99_latency_ms=stats.p99_latency_ms,
        constraint_met_fraction=stats.constraint_met_fraction,
        degraded_cells=degraded_cells,
        degraded_fraction=degraded_cells / float(total_cells),
        degraded_sessions=degraded_sessions,
        crashes_detected=0 if recovery is None else int(recovery.crashes_detected),
        restarts=0 if recovery is None else int(recovery.restarts),
        recovery_s=0.0 if recovery is None else float(recovery.recovery_s),
    )


def resilience_table(reports: "ResilienceReport | List[ResilienceReport]") -> str:
    """Render one or more resilience reports as an aligned text table."""
    if isinstance(reports, ResilienceReport):
        reports = [reports]
    if not reports:
        raise ExperimentError("resilience_table needs at least one report")
    headers = [
        "scenario",
        "sessions",
        "frames",
        "mean ms",
        "p99 ms",
        "met %",
        "degraded %",
        "crashes",
        "restarts",
        "recovery s",
    ]
    rows = [
        [
            report.scenario,
            str(report.num_sessions),
            str(report.num_frames),
            f"{report.mean_latency_ms:.1f}",
            f"{report.p99_latency_ms:.1f}",
            f"{100.0 * report.constraint_met_fraction:.1f}",
            f"{100.0 * report.degraded_fraction:.1f}",
            str(report.crashes_detected),
            str(report.restarts),
            f"{report.recovery_s:.2f}",
        ]
        for report in reports
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)
