"""Episode metrics.

The quantitative results of the paper (Tables 1 and 2) report, per
(detector, dataset, method) combination: the mean latency ``l``, the latency
standard deviation ``sigma_l`` and the satisfaction rate ``R_L`` (fraction
of frames meeting the latency constraint).  :func:`summarize_sessions`
computes these plus the thermal and energy metrics used in the discussion
sections, for every session of a trace at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.env.trace import COLUMN_DTYPES, Trace


@dataclass(frozen=True)
class EpisodeMetrics:
    """Summary statistics of one episode trace.

    Attributes:
        num_frames: Number of frames summarised.
        mean_latency_ms: Mean end-to-end latency (``l`` in the tables).
        latency_std_ms: Standard deviation of latency (``sigma_l``).
        min_latency_ms / max_latency_ms: Latency extremes.
        p95_latency_ms: 95th-percentile latency.
        satisfaction_rate: Fraction of frames meeting the constraint (``R_L``).
        mean_stage1_latency_ms / mean_stage2_latency_ms: Per-stage means.
        stage2_latency_std_ms: Standard deviation of the second-stage latency.
        mean_temperature_c: Mean of the per-frame mean (CPU, GPU) temperature.
        max_temperature_c: Hottest per-frame mean temperature observed.
        max_cpu_temperature_c / max_gpu_temperature_c: Per-die maxima.
        throttled_fraction: Fraction of frames with hardware throttling active.
        total_energy_j: Total energy consumed over the episode.
        mean_proposals: Mean RPN proposal count.
    """

    num_frames: int
    mean_latency_ms: float
    latency_std_ms: float
    min_latency_ms: float
    max_latency_ms: float
    p95_latency_ms: float
    satisfaction_rate: float
    mean_stage1_latency_ms: float
    mean_stage2_latency_ms: float
    stage2_latency_std_ms: float
    mean_temperature_c: float
    max_temperature_c: float
    max_cpu_temperature_c: float
    max_gpu_temperature_c: float
    throttled_fraction: float
    total_energy_j: float
    mean_proposals: float

    @property
    def stage1_latency_share(self) -> float:
        """Fraction of mean latency spent in stage 1 (≈0.8 per paper §4.2)."""
        total = self.mean_stage1_latency_ms + self.mean_stage2_latency_ms
        if total <= 0:
            return 0.0
        return self.mean_stage1_latency_ms / total


#: The trace columns the metrics read.
_METRIC_COLUMNS = (
    "total_latency_ms", "stage1_latency_ms", "stage2_latency_ms", "met_constraint",
    "cpu_temperature_c", "gpu_temperature_c", "cpu_throttled", "gpu_throttled",
    "energy_j", "num_proposals",
)


def _session_rows(trace) -> Dict[str, np.ndarray]:
    """The metric columns as C-contiguous ``(sessions, frames)`` rows.

    A scalar :class:`Trace` is one row; a column-window fleet trace (or a
    mapping of its columns) is transposed, chunk by chunk, so every
    session's frames are contiguous, as in a trace built frame by frame.
    """
    if isinstance(trace, Trace):
        return {name: trace.column(name)[np.newaxis] for name in _METRIC_COLUMNS}
    if isinstance(trace, Mapping):
        return {name: np.ascontiguousarray(trace[name].T) for name in _METRIC_COLUMNS}
    rows = {}
    for name in _METRIC_COLUMNS:
        rows[name] = np.empty((trace.num_sessions, len(trace)), dtype=COLUMN_DTYPES[name])
        for offset, block in trace.iter_column_chunks(name):
            rows[name][:, offset : offset + len(block)] = block.T
    return rows


def _summarize_rows(rows: Mapping[str, np.ndarray]) -> List[EpisodeMetrics]:
    """One :class:`EpisodeMetrics` per row: each statistic is one reduction
    along ``axis=1``, bit for bit the 1-D reduction of each row's frames."""
    latency = rows["total_latency_ms"]
    if latency.shape[1] == 0:
        raise ExperimentError("cannot summarise an empty trace")
    stage2 = rows["stage2_latency_ms"]
    mean_temps = 0.5 * (rows["cpu_temperature_c"] + rows["gpu_temperature_c"])
    statistics = (  # in EpisodeMetrics field order, after num_frames
        np.mean(latency, axis=1),
        np.std(latency, axis=1),
        np.min(latency, axis=1),
        np.max(latency, axis=1),
        np.percentile(latency, 95, axis=1),
        np.mean(rows["met_constraint"], axis=1),
        np.mean(rows["stage1_latency_ms"], axis=1),
        np.mean(stage2, axis=1),
        np.std(stage2, axis=1),
        np.mean(mean_temps, axis=1),
        np.max(mean_temps, axis=1),
        np.max(rows["cpu_temperature_c"], axis=1),
        np.max(rows["gpu_temperature_c"], axis=1),
        np.mean(rows["cpu_throttled"] | rows["gpu_throttled"], axis=1),
        np.sum(rows["energy_j"], axis=1),
        np.mean(rows["num_proposals"], axis=1),
    )
    return [
        EpisodeMetrics(latency.shape[1], *values)
        for values in zip(*(statistic.tolist() for statistic in statistics))
    ]


def summarize_sessions(trace) -> Tuple[List[EpisodeMetrics], List[EpisodeMetrics]]:
    """Whole-episode and steady-half :class:`EpisodeMetrics` of every session.

    ``trace`` is a scalar :class:`Trace`, a column-window fleet trace, or a
    mapping of ``(frames, sessions)`` columns (a slice of a fleet's columns
    summarises just those sessions, bit for bit).  The steady half is the
    second half of the frames (all of them below four frames).

    Raises:
        ExperimentError: If the trace is empty.
    """
    rows = _session_rows(trace)
    frames = rows["total_latency_ms"].shape[1]
    start = frames // 2 if frames >= 4 else 0
    steady = {name: row[:, start:] for name, row in rows.items()}
    return _summarize_rows(rows), _summarize_rows(steady)


def summarize_trace(trace: Trace) -> EpisodeMetrics:
    """Compute :class:`EpisodeMetrics` for a trace (the one-session reduction).

    Raises:
        ExperimentError: If the trace is empty.
    """
    return _summarize_rows(_session_rows(trace))[0]


def downsample_series(values: np.ndarray, max_points: int = 100) -> np.ndarray:
    """Average ``values`` into at most ``max_points`` buckets.

    Figure benches print latency/temperature series; averaging into a fixed
    number of buckets keeps the printed output readable regardless of the
    episode length.
    """
    if max_points <= 0:
        raise ExperimentError("max_points must be positive")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return values
    if values.size <= max_points:
        return values.copy()
    edges = np.linspace(0, values.size, max_points + 1, dtype=int)
    return np.array(
        [np.mean(values[start:end]) for start, end in zip(edges[:-1], edges[1:]) if end > start]
    )
