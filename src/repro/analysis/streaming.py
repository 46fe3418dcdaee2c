"""Streaming (bounded-memory) aggregation over columnar fleet traces.

Every aggregate a fleet report quotes — mean and tail latency, constraint
satisfaction, throttling and energy totals — is computable in a single pass
over bounded column windows, so reports over 10k+ session fleets never
materialise a full ``(frames, sessions)`` matrix, let alone per-frame
record objects.  The consumers here speak the *column-window protocol*
shared by the in-memory :class:`~repro.env.fleet.FleetTrace` and the
memory-mapped :class:`~repro.store.MappedFleetTrace`:
``iter_column_chunks(name)`` yields ``(frame_offset, block)`` views one
chunk at a time — slices of the in-memory trace's ``(frames, sessions)``
columns, or for a mapped store one chunk file's pages at a time.

Exact percentiles are still possible in bounded memory:
:class:`StreamingPercentile` keeps only the top ``n - floor(q/100*(n-1))``
order statistics (about 1% of the cells for p99) via chunked
``np.partition`` partials, then interpolates exactly like
``np.percentile``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from repro.errors import ExperimentError


class StreamingPercentile:
    """Exact percentile over a stream of chunks in bounded memory.

    The q-th percentile (linear interpolation, numpy's default) depends
    only on the ``ceil((1 - q/100) * (n-1)) + 1`` largest values of the
    stream; this accumulator keeps exactly those via per-chunk
    ``np.partition`` merges.  Memory is ``O(keep + chunk)`` independent of
    the stream length; the result interpolates with the same guarded lerp
    ``np.percentile`` uses.
    """

    def __init__(self, total_count: int, q: float = 99.0):
        if total_count <= 0:
            raise ExperimentError("total_count must be positive")
        if not 0.0 <= q <= 100.0:
            raise ExperimentError(f"percentile q={q} outside [0, 100]")
        self.total_count = int(total_count)
        self.q = float(q)
        virtual = (self.q / 100.0) * (self.total_count - 1)
        self._lo = int(math.floor(virtual))
        self._frac = virtual - self._lo
        #: Largest order statistics needed: x[lo] .. x[n-1] of the sorted stream.
        self._keep = self.total_count - self._lo
        self._top = np.empty(0, dtype=np.float64)
        self._pushed = 0

    def push(self, values: np.ndarray) -> None:
        """Fold one chunk of values into the running top-k partial."""
        chunk = np.asarray(values, dtype=np.float64).ravel()
        if chunk.size == 0:
            return
        self._pushed += chunk.size
        if self._pushed > self.total_count:
            raise ExperimentError(
                f"streamed {self._pushed} values, declared {self.total_count}"
            )
        merged = np.concatenate([self._top, chunk])
        if merged.size > self._keep:
            merged = np.partition(merged, merged.size - self._keep)[
                merged.size - self._keep :
            ]
        self._top = merged

    def result(self) -> float:
        """The exact percentile of everything pushed."""
        if self._pushed != self.total_count:
            raise ExperimentError(
                f"streamed {self._pushed} of {self.total_count} declared values"
            )
        top = np.sort(self._top)
        a = float(top[0])
        if self._frac == 0.0 or top.size < 2:
            return a
        b = float(top[1])
        t = self._frac
        # Guarded lerp, matching numpy's percentile interpolation.
        if t < 0.5:
            return a + (b - a) * t
        return b - (b - a) * (1.0 - t)


class StreamingMoments:
    """Running count/mean/variance/min/max over a stream of chunks.

    Sum-based accumulation in float64: each pushed block contributes its
    ``sum`` and ``sum of squares`` once, so memory is O(1) regardless of
    stream length and two accumulators over the same stream merge by
    simple addition (the property the obs layer uses to fold worker-side
    histograms into the parent registry).
    """

    __slots__ = ("count", "_sum", "_sumsq", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self._sum = 0.0
        self._sumsq = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def push(self, values: np.ndarray) -> None:
        """Fold one chunk of values into the running moments."""
        block = np.asarray(values, dtype=np.float64).ravel()
        if block.size == 0:
            return
        self.count += block.size
        self._sum += float(block.sum(dtype=np.float64))
        self._sumsq += float(np.square(block).sum(dtype=np.float64))
        self.minimum = min(self.minimum, float(block.min()))
        self.maximum = max(self.maximum, float(block.max()))

    def push_value(self, value: float) -> None:
        """Fold a single scalar (cheaper than a one-element array push)."""
        v = float(value)
        self.count += 1
        self._sum += v
        self._sumsq += v * v
        if v < self.minimum:
            self.minimum = v
        if v > self.maximum:
            self.maximum = v

    def merge(self, other: "StreamingMoments") -> None:
        """Fold another accumulator's stream into this one."""
        self.count += other.count
        self._sum += other._sum
        self._sumsq += other._sumsq
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ExperimentError("no values pushed")
        return self._sum / self.count

    @property
    def variance(self) -> float:
        """Population variance (ddof=0), clamped at zero against rounding."""
        mean = self.mean
        return max(0.0, self._sumsq / self.count - mean * mean)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class StreamingTraceStats:
    """Single-pass latency/constraint aggregates of one fleet trace."""

    num_frames: int
    num_sessions: int
    mean_latency_ms: float
    p99_latency_ms: float
    min_latency_ms: float
    max_latency_ms: float
    constraint_met_fraction: float


def streaming_trace_stats(trace: Any) -> StreamingTraceStats:
    """Latency and constraint aggregates without materialising matrices.

    ``trace`` is any column-window trace-like (:class:`FleetTrace` or
    :class:`~repro.store.MappedFleetTrace`).
    """
    num_frames = len(trace)
    num_sessions = trace.num_sessions
    if num_frames == 0:
        raise ExperimentError("cannot summarise an empty trace")
    total = num_frames * num_sessions
    latency_sum = 0.0
    latency_min = math.inf
    latency_max = -math.inf
    percentile = StreamingPercentile(total, 99.0)
    for _, block in trace.iter_column_chunks("total_latency_ms"):
        latency_sum += float(block.sum(dtype=np.float64))
        latency_min = min(latency_min, float(block.min()))
        latency_max = max(latency_max, float(block.max()))
        percentile.push(block)
    met = 0
    for _, block in trace.iter_column_chunks("met_constraint"):
        met += int(np.count_nonzero(block))
    return StreamingTraceStats(
        num_frames=num_frames,
        num_sessions=num_sessions,
        mean_latency_ms=latency_sum / total,
        p99_latency_ms=percentile.result(),
        min_latency_ms=latency_min,
        max_latency_ms=latency_max,
        constraint_met_fraction=met / total,
    )


@dataclass(frozen=True)
class FleetSummary:
    """Fleet-wide report aggregates, built in one bounded-memory pass.

    The fleet analogue of :class:`~repro.env.metrics.EpisodeMetrics`: the
    headline quantities of a whole-fleet report, aggregated over every
    (frame, session) cell of a trace without materialising it.
    """

    num_sessions: int
    num_frames: int
    total_frames: int
    mean_latency_ms: float
    p99_latency_ms: float
    min_latency_ms: float
    max_latency_ms: float
    constraint_met_fraction: float
    throttled_fraction: float
    mean_cpu_temperature_c: float
    mean_gpu_temperature_c: float
    max_temperature_c: float
    total_energy_j: float
    mean_proposals: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation (for report files and CI)."""
        return {
            "num_sessions": self.num_sessions,
            "num_frames": self.num_frames,
            "total_frames": self.total_frames,
            "mean_latency_ms": self.mean_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "min_latency_ms": self.min_latency_ms,
            "max_latency_ms": self.max_latency_ms,
            "constraint_met_fraction": self.constraint_met_fraction,
            "throttled_fraction": self.throttled_fraction,
            "mean_cpu_temperature_c": self.mean_cpu_temperature_c,
            "mean_gpu_temperature_c": self.mean_gpu_temperature_c,
            "max_temperature_c": self.max_temperature_c,
            "total_energy_j": self.total_energy_j,
            "mean_proposals": self.mean_proposals,
        }


def _column_sum_max(trace: Any, name: str):
    total = 0.0
    maximum = -math.inf
    for _, block in trace.iter_column_chunks(name):
        total += float(block.sum(dtype=np.float64))
        maximum = max(maximum, float(block.max()))
    return total, maximum


def summarize_fleet(trace: Any) -> FleetSummary:
    """Summarise a fleet trace-like into a :class:`FleetSummary`.

    One bounded pass per column; works identically on in-memory and
    memory-mapped traces, so a 10k-session report can run directly off a
    chunk store on disk.
    """
    stats = streaming_trace_stats(trace)
    total = stats.num_frames * stats.num_sessions
    cpu_sum, cpu_max = _column_sum_max(trace, "cpu_temperature_c")
    gpu_sum, gpu_max = _column_sum_max(trace, "gpu_temperature_c")
    energy_sum, _ = _column_sum_max(trace, "energy_j")
    proposal_sum, _ = _column_sum_max(trace, "num_proposals")
    throttled = 0
    for (_, cpu_block), (_, gpu_block) in zip(
        trace.iter_column_chunks("cpu_throttled"),
        trace.iter_column_chunks("gpu_throttled"),
    ):
        throttled += int(np.count_nonzero(cpu_block | gpu_block))
    return FleetSummary(
        num_sessions=stats.num_sessions,
        num_frames=stats.num_frames,
        total_frames=total,
        mean_latency_ms=stats.mean_latency_ms,
        p99_latency_ms=stats.p99_latency_ms,
        min_latency_ms=stats.min_latency_ms,
        max_latency_ms=stats.max_latency_ms,
        constraint_met_fraction=stats.constraint_met_fraction,
        throttled_fraction=throttled / total,
        mean_cpu_temperature_c=cpu_sum / total,
        mean_gpu_temperature_c=gpu_sum / total,
        max_temperature_c=max(cpu_max, gpu_max),
        total_energy_j=energy_sum,
        mean_proposals=proposal_sum / total,
    )
