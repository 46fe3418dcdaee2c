"""The Python scalar stepping, kept as the fleet engine's equivalence oracle.

:class:`ReferenceInferenceEnvironment` is the scalar frame loop that
:class:`~repro.env.environment.InferenceEnvironment` ran before it became
one session of the fleet engine: one :class:`~repro.hardware.device.EdgeDevice`,
the scalar :class:`~repro.detection.latency.ExecutionModel` and the
detector's proposal sampler, stepped in Python frame by frame on a
:class:`~repro.workload.generator.FrameStream` or
:class:`~repro.workload.generator.DomainSwitchStream`.  No production path
runs it: :func:`repro.runtime.fleet.scalar_reference_session` and the
layer-by-layer tests build it to check that the fleet engine reproduces the
scalar arithmetic bit for bit.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import ConfigurationError, ExperimentError
from repro.detection.detector import DetectorModel
from repro.detection.latency import ExecutionModel, compute_profile_for
from repro.env.ambient import AmbientProfile, ConstantAmbient
from repro.env.environment import (
    FrameResult,
    FrameStartObservation,
    MidFrameObservation,
    StreamLike,
)
from repro.env.trace import FrameRecord
from repro.hardware.device import EdgeDevice
from repro.workload.generator import Frame


class _Phase(enum.Enum):
    """Internal frame-processing phase used to enforce the call protocol."""

    IDLE = "idle"
    STARTED = "started"
    AFTER_STAGE1 = "after_stage1"


class ReferenceInferenceEnvironment:
    """The Python scalar stepping of one session: the equivalence oracle.

    Same constructor, frame protocol and errors as
    :class:`~repro.env.environment.InferenceEnvironment`, stepping an
    :class:`~repro.hardware.device.EdgeDevice`, the scalar
    :class:`~repro.detection.latency.ExecutionModel` and the detector's
    proposal sampler on a scalar stream frame by frame.  Only
    :func:`repro.runtime.fleet.scalar_reference_session` and tests build it.

    Args:
        device: The simulated edge device.
        detector: Detector cost model to run.
        stream: Frame stream supplying the workload.
        latency_constraint_ms: Default per-frame latency constraint L
            (frames may override it, e.g. after a domain switch).
        ambient: Ambient temperature profile; defaults to a constant 25 °C.
        rng: Random generator for proposal sampling.
        throttle_threshold_c: Temperature threshold exposed to controllers
            (defaults to the device's hardware trip point).
        idle_between_frames_ms: Idle gap inserted between frames (0 for the
            paper's back-to-back inference setting).
    """

    def __init__(
        self,
        device: EdgeDevice,
        detector: DetectorModel,
        stream: StreamLike,
        latency_constraint_ms: float,
        ambient: AmbientProfile | None = None,
        rng: np.random.Generator | None = None,
        throttle_threshold_c: float | None = None,
        idle_between_frames_ms: float = 0.0,
    ):
        if latency_constraint_ms <= 0:
            raise ConfigurationError("latency_constraint_ms must be positive")
        if idle_between_frames_ms < 0:
            raise ConfigurationError("idle_between_frames_ms must be non-negative")
        self.device = device
        self.detector = detector
        self.stream = stream
        self.default_latency_constraint_ms = latency_constraint_ms
        self.ambient = ambient if ambient is not None else ConstantAmbient()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.throttle_threshold_c = (
            throttle_threshold_c
            if throttle_threshold_c is not None
            else min(
                device.cpu_throttle.trip_temperature_c,
                device.gpu_throttle.trip_temperature_c,
            )
        )
        self.idle_between_frames_ms = idle_between_frames_ms
        self.execution = ExecutionModel(compute_profile_for(device.name))

        self._phase = _Phase.IDLE
        self._frame: Frame | None = None
        self._frame_index = 0
        self._previous_latency_ms: float | None = None
        self._last_cpu_utilisation = 0.0
        self._last_gpu_utilisation = 0.0
        self._stage1_latency_ms = 0.0
        self._stage1_levels = (0, 0)
        self._stage1_throttled = False
        self._frame_energy_j = 0.0
        self._num_proposals = 0
        self._constraint_ms = latency_constraint_ms

        self.device.reset(self.ambient.initial_temperature())

    # -- lifecycle -----------------------------------------------------------------

    def reset(self) -> None:
        """Reset the device (cold start) and the frame counter."""
        self.device.reset(self.ambient.initial_temperature())
        self._phase = _Phase.IDLE
        self._frame = None
        self._frame_index = 0
        self._previous_latency_ms = None
        self._last_cpu_utilisation = 0.0
        self._last_gpu_utilisation = 0.0

    # -- decision application ---------------------------------------------------------

    def apply_levels(self, cpu_level: int, gpu_level: int) -> None:
        """Request CPU/GPU frequency levels on behalf of the controller."""
        self.device.request_levels(cpu_level, gpu_level)

    # -- frame protocol ------------------------------------------------------------------

    def begin_frame(self) -> FrameStartObservation:
        """Draw the next frame and return the start-of-frame observation."""
        if self._phase is not _Phase.IDLE:
            raise ExperimentError(
                f"begin_frame called while a frame is in phase {self._phase.value!r}"
            )
        self.device.set_ambient(self.ambient.temperature_at(self._frame_index))
        self._frame = self.stream.next_frame()
        self._constraint_ms = (
            self._frame.latency_constraint_ms
            if self._frame.latency_constraint_ms is not None
            else self.default_latency_constraint_ms
        )
        self._frame_energy_j = 0.0
        self._phase = _Phase.STARTED
        return FrameStartObservation(
            frame_index=self._frame_index,
            dataset=self._frame.dataset,
            cpu_temperature_c=self.device.cpu_temperature_c,
            gpu_temperature_c=self.device.gpu_temperature_c,
            cpu_level=self.device.cpu_level,
            gpu_level=self.device.gpu_level,
            cpu_num_levels=self.device.cpu.num_levels,
            gpu_num_levels=self.device.gpu.num_levels,
            latency_constraint_ms=self._constraint_ms,
            remaining_budget_ms=self._constraint_ms,
            previous_latency_ms=self._previous_latency_ms,
            cpu_utilisation=self._last_cpu_utilisation,
            gpu_utilisation=self._last_gpu_utilisation,
            ambient_temperature_c=self.device.ambient_temperature_c,
            throttle_threshold_c=self.throttle_threshold_c,
            cpu_throttled=self.device.cpu_throttled,
            gpu_throttled=self.device.gpu_throttled,
        )

    def run_first_stage(self) -> MidFrameObservation:
        """Execute stage 1 and return the mid-frame observation."""
        if self._phase is not _Phase.STARTED:
            raise ExperimentError("run_first_stage must follow begin_frame")
        assert self._frame is not None
        cost = self.detector.stage1_cost(self._frame.image_scale)
        segment = self.execution.execute(
            cost, self.device.cpu.frequency_khz, self.device.gpu.frequency_khz
        )
        self._stage1_levels = (self.device.cpu_level, self.device.gpu_level)
        telemetry = self.device.execute(
            segment.latency_ms, segment.cpu_utilisation, segment.gpu_utilisation
        )
        self._stage1_latency_ms = segment.latency_ms
        self._stage1_throttled = telemetry.any_throttled
        self._frame_energy_j += telemetry.energy_j
        self._last_cpu_utilisation = segment.cpu_utilisation
        self._last_gpu_utilisation = segment.gpu_utilisation
        self._num_proposals = self.detector.propose(self._frame.scene_candidates, self.rng)
        self._phase = _Phase.AFTER_STAGE1
        return MidFrameObservation(
            frame_index=self._frame_index,
            dataset=self._frame.dataset,
            cpu_temperature_c=self.device.cpu_temperature_c,
            gpu_temperature_c=self.device.gpu_temperature_c,
            cpu_level=self.device.cpu_level,
            gpu_level=self.device.gpu_level,
            cpu_num_levels=self.device.cpu.num_levels,
            gpu_num_levels=self.device.gpu.num_levels,
            latency_constraint_ms=self._constraint_ms,
            remaining_budget_ms=self._constraint_ms - self._stage1_latency_ms,
            stage1_latency_ms=self._stage1_latency_ms,
            num_proposals=self._num_proposals,
            cpu_utilisation=segment.cpu_utilisation,
            gpu_utilisation=segment.gpu_utilisation,
            ambient_temperature_c=self.device.ambient_temperature_c,
            throttle_threshold_c=self.throttle_threshold_c,
            cpu_throttled=self.device.cpu_throttled,
            gpu_throttled=self.device.gpu_throttled,
        )

    def run_second_stage(self) -> FrameResult:
        """Execute stage 2 (if any), finish the frame and return its result."""
        if self._phase is not _Phase.AFTER_STAGE1:
            raise ExperimentError("run_second_stage must follow run_first_stage")
        assert self._frame is not None
        stage2_latency_ms = 0.0
        stage2_levels = (self.device.cpu_level, self.device.gpu_level)
        stage2_throttled = False
        if self.detector.is_two_stage:
            cost = self.detector.stage2_cost(self._num_proposals, self._frame.image_scale)
            segment = self.execution.execute(
                cost, self.device.cpu.frequency_khz, self.device.gpu.frequency_khz
            )
            stage2_levels = (self.device.cpu_level, self.device.gpu_level)
            telemetry = self.device.execute(
                segment.latency_ms, segment.cpu_utilisation, segment.gpu_utilisation
            )
            stage2_latency_ms = segment.latency_ms
            stage2_throttled = telemetry.any_throttled
            self._frame_energy_j += telemetry.energy_j
            self._last_cpu_utilisation = segment.cpu_utilisation
            self._last_gpu_utilisation = segment.gpu_utilisation
        if self.idle_between_frames_ms > 0:
            idle_telemetry = self.device.idle(self.idle_between_frames_ms)
            self._frame_energy_j += idle_telemetry.energy_j

        total_latency_ms = self._stage1_latency_ms + stage2_latency_ms
        record = FrameRecord(
            index=self._frame_index,
            dataset=self._frame.dataset,
            num_proposals=self._num_proposals,
            stage1_latency_ms=self._stage1_latency_ms,
            stage2_latency_ms=stage2_latency_ms,
            total_latency_ms=total_latency_ms,
            latency_constraint_ms=self._constraint_ms,
            met_constraint=total_latency_ms <= self._constraint_ms,
            cpu_temperature_c=self.device.cpu_temperature_c,
            gpu_temperature_c=self.device.gpu_temperature_c,
            cpu_level_stage1=self._stage1_levels[0],
            gpu_level_stage1=self._stage1_levels[1],
            cpu_level_stage2=stage2_levels[0],
            gpu_level_stage2=stage2_levels[1],
            cpu_throttled=self._stage1_throttled or stage2_throttled or self.device.cpu_throttled,
            gpu_throttled=self._stage1_throttled or stage2_throttled or self.device.gpu_throttled,
            ambient_temperature_c=self.device.ambient_temperature_c,
            energy_j=self._frame_energy_j,
        )
        self._previous_latency_ms = total_latency_ms
        self._frame_index += 1
        self._phase = _Phase.IDLE
        self._frame = None
        return FrameResult(record=record)

    # -- convenience -------------------------------------------------------------------

    @property
    def frames_processed(self) -> int:
        """Number of completed frames since construction/reset."""
        return self._frame_index

    def latency_at_levels(
        self, cpu_level: int, gpu_level: int, num_proposals: int, image_scale: float = 1.0
    ) -> float:
        """Predicted whole-frame latency at given levels (profiling helper)."""
        cost = self.detector.total_cost(num_proposals, image_scale)
        return self.execution.latency_ms(
            cost,
            self.device.cpu.frequency_table.frequency_khz(cpu_level),
            self.device.gpu.frequency_table.frequency_khz(gpu_level),
        )
