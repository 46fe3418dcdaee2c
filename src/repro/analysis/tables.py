"""Table rendering.

Produces the Table 1/2 layout of the paper: one block per detector, one row
per method, with mean latency, latency standard deviation and satisfaction
rate per dataset.  Output is plain text so it can be printed by benchmarks
and embedded in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from repro.env.metrics import EpisodeMetrics


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render a simple fixed-width text table."""
    columns = len(headers)
    widths = [len(h) for h in headers]
    for row in rows:
        for index in range(columns):
            cell = str(row[index]) if index < len(row) else ""
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        padded = [str(cells[i]).ljust(widths[i]) if i < len(cells) else " " * widths[i] for i in range(columns)]
        return "| " + " | ".join(padded) + " |"

    separator = "|-" + "-|-".join("-" * w for w in widths) + "-|"
    lines = [render_row(headers), separator]
    lines.extend(render_row(row) for row in rows)
    return "\n".join(lines)


def comparison_table(
    results: Mapping[str, Mapping[str, Mapping[str, EpisodeMetrics]]],
    datasets: Sequence[str],
    title: str = "",
) -> str:
    """Render a paper-style quantitative comparison table.

    Args:
        results: Nested mapping ``detector -> method -> dataset -> metrics``.
        datasets: Dataset column order (e.g. ``["kitti", "visdrone2019"]``).
        title: Optional heading line.

    Returns:
        The formatted table as a string.
    """
    headers = ["Detector", "Method"]
    for dataset in datasets:
        headers.extend(
            [f"{dataset} l(ms)", f"{dataset} sigma(ms)", f"{dataset} R_L"]
        )
    rows = []
    for detector, methods in results.items():
        for method, per_dataset in methods.items():
            row = [detector, method]
            for dataset in datasets:
                metrics = per_dataset.get(dataset)
                if metrics is None:
                    row.extend(["-", "-", "-"])
                else:
                    row.extend(
                        [
                            f"{metrics.mean_latency_ms:.1f}",
                            f"{metrics.latency_std_ms:.1f}",
                            f"{metrics.satisfaction_rate * 100:.1f}%",
                        ]
                    )
            rows.append(row)
    table = format_table(headers, rows)
    if title:
        return f"{title}\n{table}"
    return table


def scenario_group_table(result, title: str = "") -> str:
    """Render the per-group summary of a completed scenario.

    One row per (device, detector) group of a
    :class:`~repro.runtime.fleet.FleetScenarioResult` — in-process, sharded
    or supervised alike — in first-appearance order of its
    ``assignments``: the group's device and detector, which specs its
    sessions came from, and the session-averaged headline metrics (mean
    latency, satisfaction rate, mean/peak temperature, throttled share).

    Args:
        result: The result of running a scenario
            (:func:`repro.runtime.fleet.run_fleet_scenario`).
        title: Optional heading line.
    """
    headers = [
        "Group",
        "Specs",
        "Sessions",
        "l(ms)",
        "R_L",
        "T_mean(C)",
        "T_max(C)",
        "Throttled",
    ]
    groups: Dict[Tuple[str, str], list] = {}
    for assignment in result.assignments:
        key = (assignment.spec.device, assignment.spec.detector)
        groups.setdefault(key, []).append(assignment)
    rows = []
    for (device, detector), assignments in groups.items():
        metrics = [result.sessions[a.index].metrics for a in assignments]
        count = len(metrics)
        specs = sorted({a.spec.name for a in assignments})
        rows.append(
            [
                f"{device}/{detector}",
                ", ".join(specs),
                str(count),
                f"{sum(m.mean_latency_ms for m in metrics) / count:.1f}",
                f"{sum(m.satisfaction_rate for m in metrics) / count * 100:.1f}%",
                f"{sum(m.mean_temperature_c for m in metrics) / count:.1f}",
                f"{max(m.max_temperature_c for m in metrics):.1f}",
                f"{sum(m.throttled_fraction for m in metrics) / count * 100:.1f}%",
            ]
        )
    table = format_table(headers, rows)
    if title:
        return f"{title}\n{table}"
    return table


def generalization_matrix_table(matrix, title: str = "") -> str:
    """Render the cross-scenario transfer grid of trained policies.

    One row per policy (labelled with its short content id and the scenario
    it was trained on), one column per evaluation scenario; each cell shows
    the mean latency and satisfaction rate the frozen policy achieved on
    that scenario.  Cells whose device geometry the policy cannot drive are
    marked ``-``.

    Args:
        matrix: A completed
            :class:`~repro.policies.matrix.GeneralizationMatrix`
            (:func:`repro.policies.run_generalization_matrix`).
        title: Optional heading line.
    """
    headers = ["Policy (trained on)"] + [spec.name for spec in matrix.scenarios]
    rows = []
    for record in matrix.policies:
        trained_on = record.train_scenario or record.method or record.metadata.get(
            "kind", "?"
        )
        row = [f"{record.policy_id[:10]} ({trained_on})"]
        for spec in matrix.scenarios:
            cell = matrix.cell(record.policy_id, spec.name)
            # Render from the cell's captured metrics so the table never
            # touches session traces (falling back for cells built before
            # metrics were captured at matrix construction).
            metrics = cell.metrics
            if metrics is None and cell.session is not None:
                metrics = cell.session.metrics
            if not cell.compatible or metrics is None:
                row.append("-")
            else:
                row.append(
                    f"{metrics.mean_latency_ms:.0f}ms "
                    f"{metrics.satisfaction_rate * 100:.0f}%"
                )
        rows.append(row)
    table = format_table(headers, rows)
    if title:
        return f"{title}\n{table}"
    return table


def fleet_summary_table(summaries, title: str = "") -> str:
    """Render one or more :class:`~repro.analysis.streaming.FleetSummary`.

    The whole-fleet report layout: sessions, frames, mean/p99/max latency,
    constraint satisfaction, throttling, temperatures, total energy.  The
    summaries are computed streaming
    (:func:`~repro.analysis.streaming.summarize_fleet`), so this renders a
    10k-session report without ever materialising a trace.
    """
    from repro.analysis.streaming import FleetSummary

    if isinstance(summaries, FleetSummary):
        summaries = [summaries]
    headers = [
        "Sessions",
        "Frames",
        "l(ms)",
        "p99(ms)",
        "max(ms)",
        "R_L",
        "thr %",
        "cpu C",
        "gpu C",
        "max C",
        "energy kJ",
    ]
    rows = [
        [
            str(summary.num_sessions),
            str(summary.num_frames),
            f"{summary.mean_latency_ms:.1f}",
            f"{summary.p99_latency_ms:.1f}",
            f"{summary.max_latency_ms:.1f}",
            f"{summary.constraint_met_fraction:.3f}",
            f"{100.0 * summary.throttled_fraction:.1f}",
            f"{summary.mean_cpu_temperature_c:.1f}",
            f"{summary.mean_gpu_temperature_c:.1f}",
            f"{summary.max_temperature_c:.1f}",
            f"{summary.total_energy_j / 1000.0:.2f}",
        ]
        for summary in summaries
    ]
    table = format_table(headers, rows)
    if title:
        return f"{title}\n{table}"
    return table


def metrics_row(metrics: EpisodeMetrics) -> Dict[str, float]:
    """Flatten the headline table quantities of one metrics object."""
    return {
        "mean_latency_ms": metrics.mean_latency_ms,
        "latency_std_ms": metrics.latency_std_ms,
        "satisfaction_rate": metrics.satisfaction_rate,
        "mean_temperature_c": metrics.mean_temperature_c,
        "max_temperature_c": metrics.max_temperature_c,
        "throttled_fraction": metrics.throttled_fraction,
    }
