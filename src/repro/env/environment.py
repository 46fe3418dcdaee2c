"""The frame-by-frame inference environment.

:class:`InferenceEnvironment` runs a detector on a workload stream on a
simulated device, exposing the two per-frame decision points that structure
the Lotus framework:

1. :meth:`begin_frame` returns the observation available at the start of an
   image inference (temperatures, frequencies, constraint) — the controller
   may set frequencies before stage 1 runs.
2. :meth:`run_first_stage` executes pre-processing + backbone + RPN at the
   current frequencies, heats the device accordingly, samples the proposal
   count, and returns the mid-frame observation — the controller may adjust
   frequencies again before stage 2 runs.
3. :meth:`run_second_stage` executes the proposal-dependent second stage and
   returns the complete :class:`FrameResult`.

A strict phase protocol is enforced so that policies cannot accidentally
skip a stage or act twice; that protocol is precisely the contract a real
deployment has (the second decision can only happen once the RPN has
produced its proposals).

The environment is one session of the fleet engine: it steps a one-session
:class:`~repro.env.fleet.BatchedInferenceEnvironment` (its ``fleet``), so a
frame is the fleet's three phase kernels, one ``fleet_normal`` draw and a
level-request kernel per decision, and each phase reads its observation or
result from row 0 of the fleet's staging blocks as Python scalars.  The
scalar stream handed in becomes a one-session
:class:`~repro.workload.fleet.FleetFrameStream` that continues it, Fig. 7b's
domain-switch schedule included.  The Python scalar stepping survives only
as the equivalence oracle, :class:`repro.env.reference.ReferenceInferenceEnvironment`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.errors import ConfigurationError
from repro.detection.detector import DetectorModel
from repro.detection.latency import ExecutionModel, compute_profile_for
from repro.env.ambient import AmbientProfile, ConstantAmbient
from repro.env.trace import FrameRecord
from repro.hardware.device import EdgeDevice
from repro.kernels import fused_fleet
from repro.workload.fleet import FleetFrameStream
from repro.workload.generator import DomainSwitchStream, FrameStream

StreamLike = Union[FrameStream, DomainSwitchStream]


@dataclass(frozen=True)
class FrameStartObservation:
    """Observation available at the start of an image inference (state s_2i).

    Attributes:
        frame_index: Index of the frame about to be processed.
        dataset: Dataset the frame belongs to.
        cpu_temperature_c / gpu_temperature_c: Current die temperatures.
        cpu_level / gpu_level: Current effective frequency levels.
        cpu_num_levels / gpu_num_levels: Sizes of the frequency tables.
        latency_constraint_ms: Constraint L for this frame.
        remaining_budget_ms: Time left to meet the constraint (equals L at
            the start of the frame; this is the paper's ΔL_{2i}).
        previous_latency_ms: Total latency of the previous frame (None for
            the first frame) — the feedback signal utilisation-style
            governors and zTT react to.
        cpu_utilisation / gpu_utilisation: Utilisation observed during the
            previous frame (0 before the first frame).
        ambient_temperature_c: Current ambient temperature.
        throttle_threshold_c: Hardware trip temperature of the device.
        cpu_throttled / gpu_throttled: Whether throttling is currently active.
    """

    frame_index: int
    dataset: str
    cpu_temperature_c: float
    gpu_temperature_c: float
    cpu_level: int
    gpu_level: int
    cpu_num_levels: int
    gpu_num_levels: int
    latency_constraint_ms: float
    remaining_budget_ms: float
    previous_latency_ms: float | None
    cpu_utilisation: float
    gpu_utilisation: float
    ambient_temperature_c: float
    throttle_threshold_c: float
    cpu_throttled: bool
    gpu_throttled: bool


@dataclass(frozen=True)
class MidFrameObservation:
    """Observation available after the RPN (state s_{2i+1}).

    Carries everything :class:`FrameStartObservation` does, plus the number
    of proposals produced by the first stage and how much of the latency
    budget the first stage consumed.
    """

    frame_index: int
    dataset: str
    cpu_temperature_c: float
    gpu_temperature_c: float
    cpu_level: int
    gpu_level: int
    cpu_num_levels: int
    gpu_num_levels: int
    latency_constraint_ms: float
    remaining_budget_ms: float
    stage1_latency_ms: float
    num_proposals: int
    cpu_utilisation: float
    gpu_utilisation: float
    ambient_temperature_c: float
    throttle_threshold_c: float
    cpu_throttled: bool
    gpu_throttled: bool


@dataclass(frozen=True)
class FrameResult:
    """End-of-frame feedback handed to the policy and recorded in the trace."""

    record: FrameRecord

    @property
    def total_latency_ms(self) -> float:
        """End-to-end latency of the frame."""
        return self.record.total_latency_ms

    @property
    def latency_constraint_ms(self) -> float:
        """Constraint in force for the frame."""
        return self.record.latency_constraint_ms

    @property
    def latency_slack_ms(self) -> float:
        """ΔL_i = L - l_i; negative when the constraint was violated."""
        return self.record.latency_constraint_ms - self.record.total_latency_ms

    @property
    def met_constraint(self) -> bool:
        """Whether the frame met its latency constraint."""
        return self.record.met_constraint

    @property
    def cpu_temperature_c(self) -> float:
        """CPU temperature at the end of the frame."""
        return self.record.cpu_temperature_c

    @property
    def gpu_temperature_c(self) -> float:
        """GPU temperature at the end of the frame."""
        return self.record.gpu_temperature_c

    @property
    def num_proposals(self) -> int:
        """Proposal count of the frame."""
        return self.record.num_proposals


def _frozen(cls, **fields):
    """``cls(**fields)`` for the frozen observation, result and record
    dataclasses (every field given; none has a ``__post_init__``), with the
    instance dict set at once: their ``__init__`` sets each field through
    ``object.__setattr__``, several microseconds per instance, three or
    four instances per frame."""
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


def _session_zero(blocks) -> tuple:
    """Session 0's column of a phase's staging blocks (float64, int64 and
    bool rows, in the ``OBSERVATION_*`` or ``RESULT_*`` order of
    :mod:`repro.kernels.build`) as lists of Python scalars."""
    floats, ints, flags = blocks
    return floats.ravel().tolist(), ints.ravel().tolist(), flags.ravel().tolist()


class InferenceEnvironment:
    """Detector inference loop on a simulated device: one fleet session.

    Args:
        device: The simulated edge device (its description: the session's
            state lives in ``fleet``, and ``device`` is never stepped).
        detector: Detector cost model to run.
        stream: Frame stream supplying the workload; the environment takes
            over its generator and state, so it must not be drawn from
            elsewhere afterwards.
        latency_constraint_ms: Default per-frame latency constraint L
            (frames may override it, e.g. after a domain switch).
        ambient: Ambient temperature profile; defaults to a constant 25 °C.
        rng: Random generator for proposal sampling.
        throttle_threshold_c: Temperature threshold exposed to controllers
            (defaults to the device's hardware trip point).
        idle_between_frames_ms: Idle gap inserted between frames (0 for the
            paper's back-to-back inference setting).

    Attributes:
        fleet: The one-session
            :class:`~repro.env.fleet.BatchedInferenceEnvironment` that runs
            the frames; ``fleet.state.device`` holds the live device state
            (temperatures, levels, throttling) as length-1 arrays.
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
        # The fleet module builds on this module's observation types.
        from repro.env.fleet import BatchedInferenceEnvironment

        if latency_constraint_ms <= 0:
            raise ConfigurationError("latency_constraint_ms must be positive")
        self.device = device
        self.detector = detector
        self.default_latency_constraint_ms = latency_constraint_ms
        self.ambient = ambient if ambient is not None else ConstantAmbient()
        self.idle_between_frames_ms = idle_between_frames_ms
        self.fleet = BatchedInferenceEnvironment(
            device,
            detector,
            FleetFrameStream.continuing(stream, latency_constraint_ms),
            ambient=self.ambient,
            rngs=[rng if rng is not None else np.random.default_rng(0)],
            throttle_threshold_c=throttle_threshold_c,
            idle_between_frames_ms=idle_between_frames_ms,
        )
        self.throttle_threshold_c = self.fleet.throttle_threshold_c
        self.execution = ExecutionModel(compute_profile_for(device.name))
        self._frequency_tables = (device.cpu.frequency_table, device.gpu.frequency_table)
        self._num_levels = (device.cpu.num_levels, device.gpu.num_levels)

    # -- lifecycle -----------------------------------------------------------------

    def reset(self) -> None:
        """Reset the device (cold start) and the frame counter."""
        self.fleet.reset()

    # -- decision application ---------------------------------------------------------

    def apply_levels(self, cpu_level: int, gpu_level: int) -> None:
        """Request CPU/GPU frequency levels on behalf of the controller.

        Levels are checked as :meth:`EdgeDevice.request_levels
        <repro.hardware.device.EdgeDevice.request_levels>` checks them
        (a :class:`~repro.errors.FrequencyError` for a non-integer or an
        out-of-range level), then requested from the fleet.
        """
        cpu_table, gpu_table = self._frequency_tables
        cpu_table.validate_level(cpu_level)
        gpu_table.validate_level(gpu_level)
        self.fleet.state.device.request_levels(cpu_level, gpu_level)

    # -- frame protocol ------------------------------------------------------------------

    def begin_frame(self) -> FrameStartObservation:
        """Draw the next frame and return the start-of-frame observation."""
        fleet = self.fleet
        fleet._step_begin(fused_fleet())
        floats, ints, flags = _session_zero(fleet._start_blocks)
        return _frozen(
            FrameStartObservation,
            frame_index=fleet._frame_index,
            dataset=fleet.state.datasets[0],
            cpu_temperature_c=floats[0],
            gpu_temperature_c=floats[1],
            cpu_level=ints[0],
            gpu_level=ints[1],
            cpu_num_levels=self._num_levels[0],
            gpu_num_levels=self._num_levels[1],
            latency_constraint_ms=floats[2],
            remaining_budget_ms=floats[3],
            previous_latency_ms=None if fleet.state.previous_latency_ms is None else floats[4],
            cpu_utilisation=floats[5],
            gpu_utilisation=floats[6],
            ambient_temperature_c=floats[7],
            throttle_threshold_c=self.throttle_threshold_c,
            cpu_throttled=flags[0],
            gpu_throttled=flags[1],
        )

    def run_first_stage(self) -> MidFrameObservation:
        """Execute stage 1 and return the mid-frame observation."""
        fleet = self.fleet
        fleet._step_first_stage(fused_fleet())
        floats, ints, flags = _session_zero(fleet._mid_blocks)
        return _frozen(
            MidFrameObservation,
            frame_index=fleet._frame_index,
            dataset=fleet.state.datasets[0],
            cpu_temperature_c=floats[0],
            gpu_temperature_c=floats[1],
            cpu_level=ints[0],
            gpu_level=ints[1],
            cpu_num_levels=self._num_levels[0],
            gpu_num_levels=self._num_levels[1],
            latency_constraint_ms=floats[2],
            remaining_budget_ms=floats[3],
            stage1_latency_ms=floats[4],
            num_proposals=ints[2],
            cpu_utilisation=floats[5],
            gpu_utilisation=floats[6],
            ambient_temperature_c=floats[7],
            throttle_threshold_c=self.throttle_threshold_c,
            cpu_throttled=flags[0],
            gpu_throttled=flags[1],
        )

    def run_second_stage(self) -> FrameResult:
        """Execute stage 2 (if any), finish the frame and return its result."""
        fleet = self.fleet
        index = fleet._frame_index
        fleet._step_second_stage(fused_fleet())
        floats, ints, flags = _session_zero(fleet._result_blocks)
        record = _frozen(
            FrameRecord,
            index=index,
            dataset=fleet.state.datasets[0],
            num_proposals=ints[0],
            stage1_latency_ms=floats[0],
            stage2_latency_ms=floats[1],
            total_latency_ms=floats[2],
            latency_constraint_ms=floats[3],
            met_constraint=flags[0],
            cpu_temperature_c=floats[4],
            gpu_temperature_c=floats[5],
            cpu_level_stage1=ints[1],
            gpu_level_stage1=ints[2],
            cpu_level_stage2=ints[3],
            gpu_level_stage2=ints[4],
            cpu_throttled=flags[1],
            gpu_throttled=flags[2],
            ambient_temperature_c=floats[6],
            energy_j=floats[7],
        )
        return _frozen(FrameResult, record=record)

    # -- convenience -------------------------------------------------------------------

    @property
    def frames_processed(self) -> int:
        """Number of completed frames since construction/reset."""
        return self.fleet.frames_processed

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
