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
   returns the frame's :class:`~repro.env.trace.FrameRecord`, which the
   policy receives and the trace records.

A strict phase protocol is enforced so that policies cannot accidentally
skip a stage or act twice; that protocol is precisely the contract a real
deployment has (the second decision can only happen once the RPN has
produced its proposals).

The environment is one session of the fleet engine: it steps a one-session
:class:`~repro.env.fleet.BatchedInferenceEnvironment` (its ``fleet``), so a
frame is the fleet's three phase kernels, one ``fleet_normal`` draw and a
level-request kernel per decision, and each phase reads its observation or
record from session 0 of the fleet's staging blocks as Python scalars.  Which
field each staging row holds is said once, by the phase's :class:`PhaseRows`
table (:data:`START_ROWS`, :data:`MID_ROWS`, :data:`RESULT_ROWS`, built from
the row names of :mod:`repro.kernels.build`), and the fleet's batch
observations and frame results are read through the same tables.  The
scalar stream handed in becomes a one-session
:class:`~repro.workload.fleet.FleetFrameStream` that continues it, Fig. 7b's
domain-switch schedule included.  The Python scalar stepping survives only
as the equivalence oracle, :class:`repro.env.reference.ReferenceInferenceEnvironment`.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.errors import ConfigurationError
from repro.detection.detector import DetectorModel
from repro.env.ambient import AmbientProfile, ConstantAmbient
from repro.env.trace import FrameRecord
from repro.hardware.device import EdgeDevice
from repro.kernels import fused_fleet
from repro.kernels.build import (
    OBSERVATION_FLAGS,
    OBSERVATION_FLOATS,
    OBSERVATION_INTS,
    RESULT_FLAGS,
    RESULT_FLOATS,
    RESULT_INTS,
)
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


def check_fields(cls, names) -> None:
    """Fail loudly unless ``names`` (``None`` entries aside) are exactly
    ``cls``'s dataclass fields.  The frame types are built without their
    ``__init__`` (:func:`_frozen`), so a staging row renamed in
    :mod:`repro.kernels.build` would otherwise leave a field missing."""
    declared = {field.name for field in dataclasses.fields(cls)}
    named = set(names) - {None}
    if named != declared:
        raise TypeError(
            f"{cls.__name__} declares {sorted(declared - named)} that nothing "
            f"fills and is filled with {sorted(named - declared)} it does not declare"
        )


class PhaseRows:
    """The one frame schema: which field each row of a phase's staging
    blocks holds.

    Both engines read every observation and frame result through one of
    these tables: :class:`InferenceEnvironment` its one session's values
    as Python scalars (:meth:`scalars`), and
    :class:`~repro.env.fleet.BatchedInferenceEnvironment` each row as an
    array over the sessions (:meth:`arrays`).

    Args:
        cls: The scalar type the phase hands out, checked at construction
            to have exactly the rows' fields and the ``shared`` ones.
        blocks: The row names of the phase's float64, int64 and bool
            blocks (``OBSERVATION_*`` or ``RESULT_*`` of
            :mod:`repro.kernels.build`).
        shared: The fields of ``cls`` that no row holds.
        renamed: The phase's own name for a row, or ``None`` for a row the
            phase leaves unused.
    """

    def __init__(self, cls, blocks: tuple, shared: tuple, **renamed):
        self.names = tuple(renamed.get(name, name) for block in blocks for name in block)
        # Each block's rows by one itemgetter, which indexes them in C in
        # about half the time iterating the block takes.  Every block has
        # two rows or more: an itemgetter of one index returns the row
        # itself, not a tuple.
        self._rows = tuple(operator.itemgetter(*range(len(block))) for block in blocks)
        check_fields(cls, self.names + shared)

    def scalars(self, blocks, first_frame: bool = False) -> dict:
        """A one-session phase's fields, as Python scalars."""
        floats, ints, flags = blocks
        values = floats.ravel().tolist() + ints.ravel().tolist() + flags.ravel().tolist()
        return self._fields(values, first_frame)

    def arrays(self, blocks, first_frame: bool = False) -> dict:
        """Every session's fields: the blocks' rows."""
        (floats, ints, flags), (float_rows, int_rows, flag_rows) = blocks, self._rows
        return self._fields(float_rows(floats) + int_rows(ints) + flag_rows(flags), first_frame)

    def _fields(self, values, first_frame: bool) -> dict:
        fields = dict(zip(self.names, values))
        fields.pop(None, None)
        if first_frame and "previous_latency_ms" in fields:
            fields["previous_latency_ms"] = None  # no frame before the first
        return fields


_OBSERVATION_BLOCKS = (OBSERVATION_FLOATS, OBSERVATION_INTS, OBSERVATION_FLAGS)
_OBSERVATION_SHARED = (
    "frame_index", "dataset", "cpu_num_levels", "gpu_num_levels", "throttle_threshold_c",
)
#: The start observation's ``latency_ms`` row is the previous frame's
#: latency, and it leaves the ``num_proposals`` row unused.
START_ROWS = PhaseRows(
    FrameStartObservation, _OBSERVATION_BLOCKS, _OBSERVATION_SHARED,
    latency_ms="previous_latency_ms", num_proposals=None,
)
#: The mid observation's ``latency_ms`` row is stage 1's latency.
MID_ROWS = PhaseRows(
    MidFrameObservation, _OBSERVATION_BLOCKS, _OBSERVATION_SHARED,
    latency_ms="stage1_latency_ms",
)
RESULT_ROWS = PhaseRows(
    FrameRecord, (RESULT_FLOATS, RESULT_INTS, RESULT_FLAGS), ("index", "dataset")
)


def _frozen(cls, fields: dict, **shared):
    """``cls(**fields, **shared)`` for the frozen observation, result and
    record dataclasses (every field given; none has a ``__post_init__``),
    adopting ``fields`` as the instance dict: their ``__init__`` sets each
    field through ``object.__setattr__``, several microseconds per
    instance, three per frame."""
    fields.update(shared)
    instance = object.__new__(cls)
    object.__setattr__(instance, "__dict__", fields)
    return instance


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
        fields = START_ROWS.scalars(fleet._start_blocks, fleet.state.previous_latency_ms is None)
        return self._observation(FrameStartObservation, fields)

    def run_first_stage(self) -> MidFrameObservation:
        """Execute stage 1 and return the mid-frame observation."""
        fleet = self.fleet
        fleet._step_first_stage(fused_fleet())
        return self._observation(MidFrameObservation, MID_ROWS.scalars(fleet._mid_blocks))

    def _observation(self, cls, fields: dict):
        fleet = self.fleet
        return _frozen(
            cls,
            fields,
            frame_index=fleet._frame_index,
            dataset=fleet.state.datasets[0],
            cpu_num_levels=self._num_levels[0],
            gpu_num_levels=self._num_levels[1],
            throttle_threshold_c=self.throttle_threshold_c,
        )

    def run_second_stage(self) -> FrameRecord:
        """Execute stage 2 (if any), finish the frame and return its record."""
        fleet = self.fleet
        fleet._step_second_stage(fused_fleet())
        return _frozen(
            FrameRecord,
            RESULT_ROWS.scalars(fleet._result_blocks),
            index=fleet._frame_index - 1,
            dataset=fleet.state.datasets[0],
        )

    # -- convenience -------------------------------------------------------------------

    @property
    def frames_processed(self) -> int:
        """Number of completed frames since construction/reset."""
        return self.fleet.frames_processed
