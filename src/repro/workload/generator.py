"""Frame streams.

A frame stream yields one :class:`Frame` per inference iteration.  The plain
:class:`FrameStream` draws frames from a single dataset's scene process; the
:class:`DomainSwitchStream` concatenates several datasets (optionally with
different latency constraints) to reproduce the paper's Fig. 7b domain
change experiment (KITTI → VisDrone2019 mid-run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.workload.dataset import DatasetProfile


@dataclass(frozen=True)
class Frame:
    """One image frame presented to the detector.

    Attributes:
        index: Zero-based frame index within the stream.
        dataset: Name of the dataset the frame belongs to.
        image_scale: Stage-1 work multiplier for this frame.
        scene_candidates: Number of candidate objects in the scene; drives
            the RPN proposal count.
        latency_constraint_ms: Per-frame latency constraint override, or
            ``None`` to use the experiment's default constraint.
    """

    index: int
    dataset: str
    image_scale: float
    scene_candidates: float
    latency_constraint_ms: float | None = None


class FrameStream:
    """Infinite stream of frames drawn from one dataset profile."""

    def __init__(
        self,
        dataset: DatasetProfile,
        rng: np.random.Generator,
        latency_constraint_ms: float | None = None,
    ):
        self.dataset = dataset
        self._rng = rng
        self._latency_constraint_ms = latency_constraint_ms
        self._process = dataset.scene_process()
        self._process.reset(rng)
        self._index = 0

    @property
    def frames_emitted(self) -> int:
        """Number of frames generated so far."""
        return self._index

    def next_frame(self) -> Frame:
        """Generate the next frame."""
        candidates = self._process.step(self._rng)
        frame = Frame(
            index=self._index,
            dataset=self.dataset.name,
            image_scale=self.dataset.image_scale,
            scene_candidates=candidates,
            latency_constraint_ms=self._latency_constraint_ms,
        )
        self._index += 1
        return frame

    def take(self, count: int) -> list[Frame]:
        """Generate ``count`` frames as a list."""
        if count < 0:
            raise WorkloadError("count must be non-negative")
        return [self.next_frame() for _ in range(count)]

    def __iter__(self) -> Iterator[Frame]:
        while True:
            yield self.next_frame()


@dataclass(frozen=True)
class DomainSegment:
    """One segment of a domain-switch schedule.

    Attributes:
        dataset: Dataset profile active during the segment.
        num_frames: Number of frames in the segment.
        latency_constraint_ms: Latency constraint while the segment is
            active (domain changes usually come with new requirements).
    """

    dataset: DatasetProfile
    num_frames: int
    latency_constraint_ms: float | None = None

    def __post_init__(self) -> None:
        if self.num_frames <= 0:
            raise WorkloadError("segment must contain at least one frame")


class DomainSwitchStream:
    """Frame stream that switches dataset (and constraint) between segments.

    Used for Fig. 7b: the device first processes KITTI frames and then, at a
    scheduled iteration, switches to VisDrone2019 with a different latency
    constraint.  After the last segment the final dataset keeps producing
    frames indefinitely.
    """

    def __init__(self, segments: Sequence[DomainSegment], rng: np.random.Generator):
        if not segments:
            raise WorkloadError("DomainSwitchStream requires at least one segment")
        self._segments = list(segments)
        self._rng = rng
        self._segment_index = 0
        self._frames_in_segment = 0
        self._index = 0
        self._stream = self._make_stream(self._segments[0])

    def _make_stream(self, segment: DomainSegment) -> FrameStream:
        return FrameStream(
            segment.dataset, self._rng, latency_constraint_ms=segment.latency_constraint_ms
        )

    @property
    def current_dataset(self) -> str:
        """Name of the dataset currently producing frames."""
        return self._segments[self._segment_index].dataset.name

    @property
    def frames_emitted(self) -> int:
        """Number of frames generated so far, across segments."""
        return self._index

    @property
    def total_scheduled_frames(self) -> int:
        """Total number of frames across all scheduled segments."""
        return sum(segment.num_frames for segment in self._segments)

    def next_frame(self) -> Frame:
        """Generate the next frame, advancing segments as scheduled."""
        segment = self._segments[self._segment_index]
        if (
            self._frames_in_segment >= segment.num_frames
            and self._segment_index < len(self._segments) - 1
        ):
            self._segment_index += 1
            self._frames_in_segment = 0
            segment = self._segments[self._segment_index]
            self._stream = self._make_stream(segment)
        inner = self._stream.next_frame()
        frame = Frame(
            index=self._index,
            dataset=inner.dataset,
            image_scale=inner.image_scale,
            scene_candidates=inner.scene_candidates,
            latency_constraint_ms=inner.latency_constraint_ms,
        )
        self._index += 1
        self._frames_in_segment += 1
        return frame

    def take(self, count: int) -> list[Frame]:
        """Generate ``count`` frames as a list."""
        if count < 0:
            raise WorkloadError("count must be non-negative")
        return [self.next_frame() for _ in range(count)]

    def __iter__(self) -> Iterator[Frame]:
        while True:
            yield self.next_frame()
