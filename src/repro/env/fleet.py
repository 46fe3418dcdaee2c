"""The vectorized fleet inference environment.

:class:`BatchedInferenceEnvironment` advances N independent inference
sessions in lock-step, exposing the exact two-decision-point phase protocol
of the scalar :class:`~repro.env.environment.InferenceEnvironment` over
*batch* observations: every observation field is a length-N array, one
entry per session.  All sessions share one device model and detector; each
session has its own workload column (dataset, latency constraint), ambient
schedule, proposal-noise generator, thermal state, throttle state and
frequency levels, held struct-of-arrays in a :class:`FleetState`.  The
workload arrives as one :class:`~repro.workload.fleet.FleetFrameStream`
and the ambient schedules as one :class:`SessionAmbient`.

Seed-for-seed equivalence: session ``i`` of a fleet built from streams and
generators seeded like scalar runs produces the *bit-identical* trace the
Python scalar stepping (:class:`~repro.env.reference.ReferenceInferenceEnvironment`)
produces with those seeds — the batched kernels in
:mod:`repro.hardware.fleet` and :mod:`repro.detection.fleet` replay the
scalar arithmetic elementwise, and the per-session random streams are
consumed in the same order.  ``tests/test_fleet_equivalence.py`` enforces
this.  The scalar :class:`~repro.env.environment.InferenceEnvironment` is
itself a one-session environment of this class, read through its
``_step_*`` phases and the staging blocks' row 0.

With the ``fleet`` kernels (:mod:`repro.kernels`), each frame phase is one
C call on a table bound once to the environment's, its fleet's and its
stream's own arrays: ``fleet_begin_frame`` (ambient, AR(1) workload step,
start observation), ``fleet_first_stage`` (stage 1, proposal counts, mid
observation) and ``fleet_second_stage`` (stage 2, idle gap, frame result).
``begin_frame`` also draws the frame's stream innovations and proposal
noise in one ``fleet_normal`` call (each generator's own sequence is
unchanged: draws from different generators commute) and takes NumPy's
``exp`` of the noise in place.  The ``REPRO_FUSED=0`` reference is the
NumPy composition of :meth:`~repro.workload.fleet.FleetFrameStream.next_frames`,
:func:`~repro.detection.fleet.stage1_cost_arrays` /
:func:`~repro.detection.fleet.stage2_cost_arrays`,
:meth:`~repro.detection.fleet.BatchedExecutionModel.execute`,
:func:`~repro.detection.fleet.propose_batch` and the
:class:`~repro.hardware.fleet.DeviceFleet` calls.  Either way, each phase
writes what a policy observes into one staging block per dtype (float64,
int64, bool) and hands out a fresh copy of each block, the observation's
fields being its rows, so nothing a policy receives aliases a value the
environment or the trace reads later; a frame result's blocks are also
read-only, as the trace sink keeps them by reference.

There is one fleet frame loop, :func:`run_grouped_fleet_episode`: a fleet
is a list of :class:`FleetSessionGroup` sub-fleets (one per device and
detector), and :func:`run_fleet_episode` runs a single group.

Policies drive the fleet through the :class:`FleetPolicy` protocol.
Vectorized implementations live in :mod:`repro.governors.fleet` (the
default governors, static policies) and :mod:`repro.core.fleet` (the
fleet-trained Lotus agent); :class:`PerSessionPolicies` adapts any list of
scalar :class:`~repro.env.policy.Policy` objects, preserving their exact
per-session behaviour.
"""

from __future__ import annotations

import enum
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from repro.errors import ConfigurationError, DetectorError, ExperimentError
from repro.detection.detector import DetectorModel
from repro.detection.fleet import (
    BatchedExecutionModel,
    propose_batch,
    proposal_tail_table,
    stage1_cost_arrays,
    stage2_cost_arrays,
    stage_cost_tables,
)
from repro.detection.latency import compute_profile_for
from repro.env.ambient import AmbientProfile, ConstantAmbient
from repro.env.environment import (
    FrameResult,
    FrameStartObservation,
    MidFrameObservation,
    _frozen,
)
from repro.env.policy import Policy
from repro.env.trace import (
    COLUMN_DTYPES,
    FrameRecord,
    Trace,
    checked_column,
    frame_record,
    session_slice,
)
from repro.hardware.device import EdgeDevice
from repro.hardware.fleet import IDLE_CPU_UTILISATION, IDLE_GPU_UTILISATION, DeviceFleet
from repro.kernels import SessionGenerators, check_scales, fused_fleet
from repro.kernels.build import (
    OBSERVATION_FLAGS,
    OBSERVATION_FLOATS,
    OBSERVATION_INTS,
    RESULT_FLAGS,
    RESULT_FLOATS,
    RESULT_INTS,
)
from repro.workload.fleet import FleetFrameStream


# ---------------------------------------------------------------------------
# State and observations
# ---------------------------------------------------------------------------


@dataclass
class FleetState:
    """Struct-of-arrays state of N concurrent sessions.

    Attributes:
        device: Batched device state (temperatures, levels, throttle flags,
            energy) shared-model across the fleet.
        rngs: Per-session proposal-noise generators.
        previous_latency_ms: Last frame's total latency per session (``None``
            before the first frame; sessions advance lock-step).
        cpu_utilisation / gpu_utilisation: Utilisation observed during the
            most recent executed segment, per session.
        constraint_ms: Latency constraint in force for the current frame.
        image_scale / scene_candidates: Current frame's workload parameters.
        datasets: Current frame's dataset name per session.
        num_proposals: Stage-1 proposal counts of the current frame.
        stage1_latency_ms: Stage-1 latency of the current frame.
        frame_energy_j: Energy accumulated by the current frame.

    Every array is written in place, never rebound: the fused frame's table
    holds their addresses (``previous_latency_ms`` is ``None`` or the
    environment's own array).
    """

    device: DeviceFleet
    rngs: SessionGenerators
    previous_latency_ms: np.ndarray | None
    cpu_utilisation: np.ndarray
    gpu_utilisation: np.ndarray
    constraint_ms: np.ndarray
    image_scale: np.ndarray
    scene_candidates: np.ndarray
    datasets: tuple
    num_proposals: np.ndarray
    stage1_latency_ms: np.ndarray
    frame_energy_j: np.ndarray

    @property
    def num_sessions(self) -> int:
        """Fleet size N."""
        return self.device.num_sessions


@dataclass(frozen=True)
class FleetStartObservation:
    """Batch counterpart of :class:`FrameStartObservation` (arrays over N)."""

    frame_index: int
    datasets: tuple
    cpu_temperature_c: np.ndarray
    gpu_temperature_c: np.ndarray
    cpu_level: np.ndarray
    gpu_level: np.ndarray
    cpu_num_levels: int
    gpu_num_levels: int
    latency_constraint_ms: np.ndarray
    remaining_budget_ms: np.ndarray
    previous_latency_ms: np.ndarray | None
    cpu_utilisation: np.ndarray
    gpu_utilisation: np.ndarray
    ambient_temperature_c: np.ndarray
    throttle_threshold_c: float
    cpu_throttled: np.ndarray
    gpu_throttled: np.ndarray

    @property
    def num_sessions(self) -> int:
        """Fleet size N."""
        return len(self.cpu_temperature_c)

    def take(self, indices: np.ndarray) -> "FleetStartObservation":
        """The observation restricted to the sessions in ``indices``.

        Used by sub-fleet policy combinators: every per-session array is
        fancy-indexed (so element ``j`` of the result is session
        ``indices[j]`` of the full observation) while the shared scalars are
        passed through unchanged.
        """
        indices = np.asarray(indices, dtype=np.int64)
        return FleetStartObservation(
            frame_index=self.frame_index,
            datasets=tuple(self.datasets[i] for i in indices),
            cpu_temperature_c=self.cpu_temperature_c[indices],
            gpu_temperature_c=self.gpu_temperature_c[indices],
            cpu_level=self.cpu_level[indices],
            gpu_level=self.gpu_level[indices],
            cpu_num_levels=self.cpu_num_levels,
            gpu_num_levels=self.gpu_num_levels,
            latency_constraint_ms=self.latency_constraint_ms[indices],
            remaining_budget_ms=self.remaining_budget_ms[indices],
            previous_latency_ms=(
                None
                if self.previous_latency_ms is None
                else self.previous_latency_ms[indices]
            ),
            cpu_utilisation=self.cpu_utilisation[indices],
            gpu_utilisation=self.gpu_utilisation[indices],
            ambient_temperature_c=self.ambient_temperature_c[indices],
            throttle_threshold_c=self.throttle_threshold_c,
            cpu_throttled=self.cpu_throttled[indices],
            gpu_throttled=self.gpu_throttled[indices],
        )

    def session(self, i: int) -> FrameStartObservation:
        """The scalar observation session ``i`` would see."""
        return FrameStartObservation(
            frame_index=self.frame_index,
            dataset=self.datasets[i],
            cpu_temperature_c=float(self.cpu_temperature_c[i]),
            gpu_temperature_c=float(self.gpu_temperature_c[i]),
            cpu_level=int(self.cpu_level[i]),
            gpu_level=int(self.gpu_level[i]),
            cpu_num_levels=self.cpu_num_levels,
            gpu_num_levels=self.gpu_num_levels,
            latency_constraint_ms=float(self.latency_constraint_ms[i]),
            remaining_budget_ms=float(self.remaining_budget_ms[i]),
            previous_latency_ms=(
                None
                if self.previous_latency_ms is None
                else float(self.previous_latency_ms[i])
            ),
            cpu_utilisation=float(self.cpu_utilisation[i]),
            gpu_utilisation=float(self.gpu_utilisation[i]),
            ambient_temperature_c=float(self.ambient_temperature_c[i]),
            throttle_threshold_c=self.throttle_threshold_c,
            cpu_throttled=bool(self.cpu_throttled[i]),
            gpu_throttled=bool(self.gpu_throttled[i]),
        )


@dataclass(frozen=True)
class FleetMidObservation:
    """Batch counterpart of :class:`MidFrameObservation` (arrays over N)."""

    frame_index: int
    datasets: tuple
    cpu_temperature_c: np.ndarray
    gpu_temperature_c: np.ndarray
    cpu_level: np.ndarray
    gpu_level: np.ndarray
    cpu_num_levels: int
    gpu_num_levels: int
    latency_constraint_ms: np.ndarray
    remaining_budget_ms: np.ndarray
    stage1_latency_ms: np.ndarray
    num_proposals: np.ndarray
    cpu_utilisation: np.ndarray
    gpu_utilisation: np.ndarray
    ambient_temperature_c: np.ndarray
    throttle_threshold_c: float
    cpu_throttled: np.ndarray
    gpu_throttled: np.ndarray

    @property
    def num_sessions(self) -> int:
        """Fleet size N."""
        return len(self.cpu_temperature_c)

    def take(self, indices: np.ndarray) -> "FleetMidObservation":
        """The observation restricted to the sessions in ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        return FleetMidObservation(
            frame_index=self.frame_index,
            datasets=tuple(self.datasets[i] for i in indices),
            cpu_temperature_c=self.cpu_temperature_c[indices],
            gpu_temperature_c=self.gpu_temperature_c[indices],
            cpu_level=self.cpu_level[indices],
            gpu_level=self.gpu_level[indices],
            cpu_num_levels=self.cpu_num_levels,
            gpu_num_levels=self.gpu_num_levels,
            latency_constraint_ms=self.latency_constraint_ms[indices],
            remaining_budget_ms=self.remaining_budget_ms[indices],
            stage1_latency_ms=self.stage1_latency_ms[indices],
            num_proposals=self.num_proposals[indices],
            cpu_utilisation=self.cpu_utilisation[indices],
            gpu_utilisation=self.gpu_utilisation[indices],
            ambient_temperature_c=self.ambient_temperature_c[indices],
            throttle_threshold_c=self.throttle_threshold_c,
            cpu_throttled=self.cpu_throttled[indices],
            gpu_throttled=self.gpu_throttled[indices],
        )

    def session(self, i: int) -> MidFrameObservation:
        """The scalar observation session ``i`` would see."""
        return MidFrameObservation(
            frame_index=self.frame_index,
            dataset=self.datasets[i],
            cpu_temperature_c=float(self.cpu_temperature_c[i]),
            gpu_temperature_c=float(self.gpu_temperature_c[i]),
            cpu_level=int(self.cpu_level[i]),
            gpu_level=int(self.gpu_level[i]),
            cpu_num_levels=self.cpu_num_levels,
            gpu_num_levels=self.gpu_num_levels,
            latency_constraint_ms=float(self.latency_constraint_ms[i]),
            remaining_budget_ms=float(self.remaining_budget_ms[i]),
            stage1_latency_ms=float(self.stage1_latency_ms[i]),
            num_proposals=int(self.num_proposals[i]),
            cpu_utilisation=float(self.cpu_utilisation[i]),
            gpu_utilisation=float(self.gpu_utilisation[i]),
            ambient_temperature_c=float(self.ambient_temperature_c[i]),
            throttle_threshold_c=self.throttle_threshold_c,
            cpu_throttled=bool(self.cpu_throttled[i]),
            gpu_throttled=bool(self.gpu_throttled[i]),
        )


@dataclass(frozen=True)
class FleetFrameResult:
    """Batch end-of-frame feedback: one completed frame across N sessions.

    Field-for-field the array counterpart of
    :class:`~repro.env.trace.FrameRecord`, and one row of a
    :class:`FleetTrace`'s columns; :meth:`record` is session ``i``'s
    :class:`~repro.env.trace.FrameRecord` row view, built on demand so the
    hot loop never constructs N dataclasses per frame.
    """

    index: int
    datasets: tuple
    num_proposals: np.ndarray
    stage1_latency_ms: np.ndarray
    stage2_latency_ms: np.ndarray
    total_latency_ms: np.ndarray
    latency_constraint_ms: np.ndarray
    met_constraint: np.ndarray
    cpu_temperature_c: np.ndarray
    gpu_temperature_c: np.ndarray
    cpu_level_stage1: np.ndarray
    gpu_level_stage1: np.ndarray
    cpu_level_stage2: np.ndarray
    gpu_level_stage2: np.ndarray
    cpu_throttled: np.ndarray
    gpu_throttled: np.ndarray
    ambient_temperature_c: np.ndarray
    energy_j: np.ndarray

    @property
    def num_sessions(self) -> int:
        """Fleet size N."""
        return len(self.total_latency_ms)

    @property
    def latency_slack_ms(self) -> np.ndarray:
        """Per-session ``L - l_i``; negative where the constraint broke."""
        return self.latency_constraint_ms - self.total_latency_ms

    def take(self, indices: np.ndarray) -> "FleetFrameResult":
        """The frame result restricted to the sessions in ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        return FleetFrameResult(
            index=self.index,
            datasets=tuple(self.datasets[i] for i in indices),
            **{name: getattr(self, name)[indices] for name in COLUMN_DTYPES},
        )

    def record(self, i: int) -> FrameRecord:
        """Session ``i``'s scalar :class:`FrameRecord` row view."""
        return frame_record(self.index, self.datasets[i], _frame_columns(self), i)

    def result(self, i: int) -> FrameResult:
        """Session ``i``'s scalar :class:`FrameResult`."""
        return FrameResult(record=self.record(i))


#: The value columns of a frame result, in :data:`COLUMN_DTYPES` order.
_frame_columns = operator.attrgetter(*COLUMN_DTYPES)


class FleetTrace:
    """Columnar trace of a fleet episode: one ``(frames, N)`` array per column.

    The columns follow :data:`~repro.env.trace.COLUMN_DTYPES`, plus one
    dataset-name tuple per frame.  Frames are appended one
    :class:`FleetFrameResult` at a time (the episode loop's sink protocol),
    held by reference like a :class:`repro.store.FleetTraceWriter` chunk,
    and stacked onto the columns by the next read; or whole columns are
    adopted (:meth:`from_columns`).  Frames and per-session traces are
    built from the columns on demand.
    """

    def __init__(self, num_sessions: int):
        if num_sessions <= 0:
            raise ExperimentError("num_sessions must be positive")
        self.num_sessions = num_sessions
        self._start_index = 0
        self._datasets: List[tuple] = []
        self._appended: List[FleetFrameResult] = []
        self._columns: dict[str, np.ndarray] = {
            name: np.empty((0, num_sessions), dtype=dtype)
            for name, dtype in COLUMN_DTYPES.items()
        }

    @classmethod
    def from_columns(
        cls,
        columns: dict,
        datasets: Sequence[tuple],
        start_index: int = 0,
    ) -> "FleetTrace":
        """The bulk constructor: adopt whole ``(frames, N)`` columns.

        ``columns`` maps every :data:`~repro.env.trace.COLUMN_DTYPES` name
        to an array of that dtype; ``datasets`` holds one N-tuple per frame.
        """
        num_sessions = np.shape(columns["total_latency_ms"])[1]
        trace = cls(num_sessions)
        shape = (len(datasets), num_sessions)
        trace._columns = {
            name: checked_column(name, columns[name], shape) for name in COLUMN_DTYPES
        }
        trace._datasets = list(datasets)
        trace._start_index = int(start_index)
        return trace

    def append(self, frame: FleetFrameResult) -> None:
        """Append one completed fleet frame (frame indices must be contiguous)."""
        if frame.num_sessions != self.num_sessions:
            raise ExperimentError(
                f"frame has {frame.num_sessions} sessions, trace expects "
                f"{self.num_sessions}"
            )
        size = len(self._datasets)
        if size == 0:
            self._start_index = int(frame.index)
        elif frame.index != self._start_index + size:
            raise ExperimentError(
                f"non-contiguous frame index {frame.index} "
                f"(expected {self._start_index + size})"
            )
        self._appended.append(frame)
        self._datasets.append(frame.datasets)

    def _stacked(self) -> dict:
        """The columns, with the frames appended since the last read stacked on."""
        if self._appended:
            shape = (len(self._datasets), self.num_sessions)
            rows = [vars(frame) for frame in self._appended]
            self._columns = {
                name: checked_column(
                    name, np.vstack([column] + [row[name] for row in rows]), shape
                )
                for name, column in self._columns.items()
            }
            self._appended = []
        return self._columns

    def __getstate__(self) -> dict:
        # Pickle columns only, so equal traces pickle to equal bytes.
        self._stacked()
        return self.__dict__

    def __len__(self) -> int:
        return len(self._datasets)

    def __iter__(self) -> Iterator[FleetFrameResult]:
        for frame in range(len(self)):
            yield self[frame]

    def __getitem__(self, index: int) -> FleetFrameResult:
        """Frame ``index`` (0-based offset) as views of the columns."""
        index = range(len(self))[index]
        return FleetFrameResult(
            index=self._start_index + index,
            datasets=self._datasets[index],
            **{name: column[index] for name, column in self._stacked().items()},
        )

    @property
    def total_frames(self) -> int:
        """Aggregate frames processed across the fleet (frames x sessions)."""
        return len(self) * self.num_sessions

    @property
    def start_index(self) -> int:
        """Global index of the first frame (0 for an empty trace)."""
        return self._start_index

    def session_trace(self, i: int) -> Trace:
        """Session ``i``'s scalar :class:`Trace` (contiguous column copies)."""
        return session_slice(self, i)

    def column_window(self, name: str, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Frames ``[start, stop)`` of one column as a ``(frames, N)`` view.

        The in-memory counterpart of
        :meth:`repro.store.MappedFleetTrace.column_window`, so streaming
        consumers can treat both trace representations uniformly.
        """
        return self._stacked()[name][start:stop]

    def iter_column_chunks(
        self, name: str, start: int = 0, stop: int | None = None
    ) -> Iterator[tuple]:
        """Yield ``(frame_offset, block)`` windows of one column.

        Mirrors :meth:`repro.store.MappedFleetTrace.iter_column_chunks`, so
        streaming aggregation is identical for both representations.
        """
        stop = len(self) if stop is None else min(stop, len(self))
        chunk = 256
        for lo in range(start, stop, chunk):
            hi = min(lo + chunk, stop)
            yield lo, self.column_window(name, lo, hi)

    def datasets_window(self, start: int = 0, stop: int | None = None) -> List[tuple]:
        """Per-frame dataset-name tuples for frames ``[start, stop)``."""
        return self._datasets[start:stop]

    def latencies_ms(self) -> np.ndarray:
        """Total latency as a ``(frames, sessions)`` matrix."""
        return self.column_window("total_latency_ms").copy()

    def constraint_met(self) -> np.ndarray:
        """Constraint satisfaction as a ``(frames, sessions)`` boolean matrix."""
        return self.column_window("met_constraint").copy()


# ---------------------------------------------------------------------------
# Fleet policy protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetDecision:
    """Joint frequency-level requests for (a subset of) the fleet.

    Attributes:
        cpu_levels / gpu_levels: Requested levels per session.
        mask: Optional boolean mask of sessions the decision applies to;
            unmasked sessions keep their previously requested levels (the
            batch analogue of a scalar policy returning ``None``).
    """

    cpu_levels: np.ndarray
    gpu_levels: np.ndarray
    mask: np.ndarray | None = None


class FleetPolicy(ABC):
    """A DVFS policy acting on observation batches across the fleet."""

    #: Human-readable policy name used in tables and reports.
    name: str = "fleet-policy"

    @abstractmethod
    def begin_frame(self, observation: FleetStartObservation) -> FleetDecision | None:
        """Decide frequencies at the start of an image inference."""

    @abstractmethod
    def mid_frame(self, observation: FleetMidObservation) -> FleetDecision | None:
        """Decide frequencies after the RPN, per session."""

    def end_frame(self, result: FleetFrameResult) -> None:
        """Receive the completed frame's per-session outcomes."""

    def reset(self) -> None:
        """Reset any internal state before a new episode."""


class PerSessionPolicies(FleetPolicy):
    """Adapter driving one scalar :class:`Policy` per session.

    Preserves each policy's exact scalar behaviour (observations are
    materialised per session), so any existing policy — including learning
    agents with per-session networks — runs on the fleet engine unchanged.
    This is the compatibility path; vectorized policies avoid the per-session
    materialisation cost.
    """

    def __init__(self, policies: Sequence[Policy]):
        if not policies:
            raise ConfigurationError("need at least one policy")
        self.policies = list(policies)
        self.name = f"per-session({policies[0].name})"

    def reset(self) -> None:
        for policy in self.policies:
            policy.reset()

    def _gather(self, decisions, observation) -> FleetDecision | None:
        if all(decision is None for decision in decisions):
            return None
        cpu = observation.cpu_level.copy()
        gpu = observation.gpu_level.copy()
        mask = np.zeros(len(decisions), dtype=bool)
        for i, decision in enumerate(decisions):
            if decision is not None:
                cpu[i] = decision.cpu_level
                gpu[i] = decision.gpu_level
                mask[i] = True
        return FleetDecision(cpu_levels=cpu, gpu_levels=gpu, mask=mask)

    def begin_frame(self, observation: FleetStartObservation) -> FleetDecision | None:
        decisions = [
            policy.begin_frame(observation.session(i))
            for i, policy in enumerate(self.policies)
        ]
        return self._gather(decisions, observation)

    def mid_frame(self, observation: FleetMidObservation) -> FleetDecision | None:
        decisions = [
            policy.mid_frame(observation.session(i))
            for i, policy in enumerate(self.policies)
        ]
        return self._gather(decisions, observation)

    def end_frame(self, result: FleetFrameResult) -> None:
        for i, policy in enumerate(self.policies):
            policy.end_frame(result.result(i))

    def loss_histories(self) -> List[List[float]]:
        """Per-session loss histories (empty lists for non-learning policies)."""
        return [list(getattr(p, "loss_history", [])) for p in self.policies]

    def reward_histories(self) -> List[List[float]]:
        """Per-session reward histories (empty lists where not recorded)."""
        return [list(getattr(p, "reward_history", [])) for p in self.policies]

    # -- checkpointing -------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Per-session snapshots (``None`` entries for stateless policies)."""
        return {
            "policies": [
                policy.state_dict() if hasattr(policy, "state_dict") else None
                for policy in self.policies
            ]
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into the session policies."""
        states = payload["policies"]
        if len(states) != len(self.policies):
            raise ConfigurationError(
                f"snapshot carries {len(states)} session policies for "
                f"{len(self.policies)} sessions"
            )
        for policy, state in zip(self.policies, states):
            if state is not None:
                policy.load_state_dict(state)


# ---------------------------------------------------------------------------
# The environment
# ---------------------------------------------------------------------------


class SessionAmbient:
    """Per-session ambient schedules for one fleet.

    Wraps one :class:`~repro.env.ambient.AmbientProfile` per session and
    exposes the profile protocol over length-N arrays, so every session may
    follow its own day/night cycle, ramp or zone schedule.  Element ``i`` is
    exactly what the scalar environment computes for session ``i``'s own
    profile, preserving the seed-for-seed equivalence contract.  Profiles
    are pure functions of the frame index, so each *distinct* profile object
    is evaluated once per frame and its value indexed out to the sessions
    that share it (a homogeneous cell costs one call, not N).
    """

    def __init__(self, profiles: Sequence[AmbientProfile]):
        if not profiles:
            raise ConfigurationError("need at least one ambient profile")
        self.profiles = tuple(profiles)
        slots: dict[int, int] = {}
        distinct: List[AmbientProfile] = []
        for profile in self.profiles:
            if id(profile) not in slots:
                slots[id(profile)] = len(distinct)
                distinct.append(profile)
        self._distinct = tuple(distinct)
        #: Each session's index into the distinct profiles.
        self.slot = np.array(
            [slots[id(profile)] for profile in self.profiles], dtype=np.int64
        )

    @property
    def num_sessions(self) -> int:
        """Fleet size N."""
        return len(self.profiles)

    @property
    def num_distinct(self) -> int:
        """The number of distinct profile objects."""
        return len(self._distinct)

    def distinct_at(self, frame_index: int) -> list:
        """Each distinct profile's temperature at ``frame_index``; session
        ``i`` follows entry ``slot[i]``."""
        return [profile.temperature_at(frame_index) for profile in self._distinct]

    def temperature_at(self, frame_index: int) -> np.ndarray:
        """Per-session ambient temperatures when processing ``frame_index``."""
        return np.array(self.distinct_at(frame_index))[self.slot]

    def initial_temperature(self) -> np.ndarray:
        """Per-session ambient temperatures before the first frame."""
        values = [profile.initial_temperature() for profile in self._distinct]
        return np.array(values)[self.slot]


class _Phase(enum.Enum):
    IDLE = "idle"
    STARTED = "started"
    AFTER_STAGE1 = "after_stage1"


class BatchedInferenceEnvironment:
    """Detector inference across N lock-step sessions on one device model.

    Args:
        device: Template edge device (shared description; per-session state
            lives in the fleet arrays).
        detector: Detector cost model all sessions run.
        streams: The workload: one
            :class:`~repro.workload.fleet.FleetFrameStream`, which defines
            the fleet size and carries every session's dataset and latency
            constraint.
        ambient: Ambient schedule — one
            :class:`~repro.env.ambient.AmbientProfile` per session, or a
            single profile every session follows (default: a constant
            25 °C).  Either form is held as a :class:`SessionAmbient`.
        rngs: Per-session proposal-noise generators; defaults to
            ``default_rng(i)``.
        throttle_threshold_c: Temperature threshold exposed to controllers.
        idle_between_frames_ms: Idle gap inserted between frames.
    """

    def __init__(
        self,
        device: EdgeDevice,
        detector: DetectorModel,
        streams: FleetFrameStream,
        ambient: "AmbientProfile | Sequence[AmbientProfile] | None" = None,
        rngs: Sequence[np.random.Generator] | None = None,
        throttle_threshold_c: float | None = None,
        idle_between_frames_ms: float = 0.0,
    ):
        if idle_between_frames_ms < 0:
            raise ConfigurationError("idle_between_frames_ms must be non-negative")
        if not isinstance(streams, FleetFrameStream):
            raise ConfigurationError(
                f"the workload must be a FleetFrameStream, got {type(streams).__name__}"
            )
        self._stream = streams
        num_sessions = streams.num_sessions
        if rngs is None:
            rngs = [np.random.default_rng(i) for i in range(num_sessions)]
        if len(rngs) != num_sessions:
            raise ConfigurationError(
                f"got {len(rngs)} generators for {num_sessions} sessions"
            )
        self.device = device
        self.detector = detector
        if ambient is None:
            ambient = ConstantAmbient()
        if isinstance(ambient, AmbientProfile):
            ambient = [ambient] * num_sessions
        self.ambient = SessionAmbient(list(ambient))
        if self.ambient.num_sessions != num_sessions:
            raise ConfigurationError(
                f"got {self.ambient.num_sessions} ambient profiles for "
                f"{num_sessions} sessions"
            )
        self.throttle_threshold_c = (
            throttle_threshold_c
            if throttle_threshold_c is not None
            else min(
                device.cpu_throttle.trip_temperature_c,
                device.gpu_throttle.trip_temperature_c,
            )
        )
        self.idle_between_frames_ms = idle_between_frames_ms
        self.execution = BatchedExecutionModel(compute_profile_for(device.name))

        fleet = DeviceFleet(device, num_sessions, self.ambient.initial_temperature())
        n = num_sessions
        self.state = FleetState(
            device=fleet,
            rngs=SessionGenerators(rngs),
            previous_latency_ms=None,
            cpu_utilisation=np.zeros(n),
            gpu_utilisation=np.zeros(n),
            constraint_ms=np.zeros(n),
            image_scale=np.ones(n),
            scene_candidates=np.zeros(n),
            datasets=("",) * n,
            num_proposals=np.zeros(n, dtype=np.int64),
            stage1_latency_ms=np.zeros(n),
            frame_energy_j=np.zeros(n),
        )
        self._phase = _Phase.IDLE
        self._frame_index = 0
        # The frame's own arrays and the phases' staging blocks, written
        # only in place like the state's.
        self._previous_latency = np.zeros(n)
        self._stage2_latency = np.zeros(n)
        self._stage1_levels = np.zeros((2, n), dtype=np.int64)
        self._stage1_throttled = np.zeros(n, dtype=bool)
        # A fused frame's draws: the stream innovations, then the proposal
        # noise factors, which run_first_stage reads.
        self._draws = np.zeros(2 * n)
        self._start_blocks = _blocks(OBSERVATION_FLOATS, OBSERVATION_INTS, OBSERVATION_FLAGS, n)
        self._mid_blocks = _blocks(OBSERVATION_FLOATS, OBSERVATION_INTS, OBSERVATION_FLAGS, n)
        self._result_blocks = _blocks(RESULT_FLOATS, RESULT_INTS, RESULT_FLAGS, n)
        self._fused: _FusedFrame | None = None
        self.state.device.reset(self.ambient.initial_temperature())

    def __getstate__(self) -> dict:
        # The fused frame holds raw addresses of this environment's arrays
        # and generators; a copy (pickle or deepcopy) binds its own.
        state = self.__dict__.copy()
        state["_fused"] = None
        return state

    def _fused_frame(self, kernel) -> "_FusedFrame":
        if self._fused is None:
            self._fused = _FusedFrame(self, kernel)
        return self._fused

    def _run_stage(self, second: bool):
        """Execute stage 1 or 2 at the current levels, adding its energy to
        the frame's: ``(latency, cpu utilisation, gpu utilisation,
        throttled)``, each a fresh array.  The NumPy reference of the
        stage the phase kernels run."""
        state = self.state
        device = state.device
        if second:
            cpu_kc, gpu_kc = stage2_cost_arrays(
                self.detector, state.num_proposals, state.image_scale
            )
        else:
            cpu_kc, gpu_kc = stage1_cost_arrays(self.detector, state.image_scale)
        segment = self.execution.execute(
            cpu_kc, gpu_kc, device.cpu_frequency_khz, device.gpu_frequency_khz
        )
        telemetry = device.execute(
            segment.latency_ms, segment.cpu_utilisation, segment.gpu_utilisation
        )
        state.frame_energy_j += telemetry.energy_j
        return (
            segment.latency_ms, segment.cpu_utilisation, segment.gpu_utilisation,
            telemetry.any_throttled,
        )

    @staticmethod
    def _snapshot(blocks, read_only: bool = False) -> tuple:
        """Fresh copies of a phase's staging blocks, whose rows (in the
        ``OBSERVATION_*`` or ``RESULT_*`` order of
        :mod:`repro.kernels.build`) become the fields handed out."""
        floats, ints, flags = blocks
        snapshot = floats.copy(), ints.copy(), flags.copy()
        if read_only:
            for block in snapshot:
                block.setflags(write=False)
        return snapshot

    def _observe(self, blocks, latency: np.ndarray, remaining: np.ndarray) -> None:
        """The NumPy form of the phase kernels' observation rows, in the
        ``OBSERVATION_*`` order of :mod:`repro.kernels.build`."""
        floats, ints, flags = blocks
        state = self.state
        device = state.device
        floats[:] = (
            device.cpu_temperature_c, device.gpu_temperature_c, state.constraint_ms,
            remaining, latency, state.cpu_utilisation, state.gpu_utilisation,
            device.ambient_temperature_c,
        )
        ints[:2] = (device.cpu_level, device.gpu_level)
        flags[:] = (device.cpu_throttled, device.gpu_throttled)

    # -- lifecycle -----------------------------------------------------------------

    @property
    def num_sessions(self) -> int:
        """Fleet size N."""
        return self.state.num_sessions

    @property
    def frames_processed(self) -> int:
        """Completed lock-step frames since construction/reset."""
        return self._frame_index

    def reset(self) -> None:
        """Reset the fleet devices (cold start) and the frame counter."""
        self.state.device.reset(self.ambient.initial_temperature())
        self._phase = _Phase.IDLE
        self._frame_index = 0
        self.state.previous_latency_ms = None
        self.state.cpu_utilisation.fill(0.0)
        self.state.gpu_utilisation.fill(0.0)

    # -- checkpointing ---------------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of the environment at a frame boundary.

        Captures everything the next :meth:`begin_frame` →
        :meth:`run_second_stage` cycle reads — device state, workload
        cursors, proposal generators, the previous frame's latency and
        utilisation feedback, and the frame counter — so a restored
        environment continues bit-identically to an uninterrupted one.
        Only valid between frames (phase ``idle``); per-frame transients
        are rebuilt by the next frame and need not be captured.
        """
        if self._phase is not _Phase.IDLE:
            raise ExperimentError(
                f"state_dict is only valid at a frame boundary, not in phase "
                f"{self._phase.value!r}"
            )
        state = self.state
        return {
            "num_sessions": int(self.num_sessions),
            "frame_index": int(self._frame_index),
            "device": state.device.state_dict(),
            "stream": self._stream.state_dict(),
            "rngs": [rng.bit_generator.state for rng in state.rngs],
            "previous_latency_ms": (
                None
                if state.previous_latency_ms is None
                else state.previous_latency_ms.copy()
            ),
            "cpu_utilisation": state.cpu_utilisation.copy(),
            "gpu_utilisation": state.gpu_utilisation.copy(),
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this environment.

        The environment must have been constructed from the same device,
        detector, workload and generators as the one that produced the
        snapshot (the recovery layer guarantees this by rebuilding the
        shard deterministically before restoring).
        """
        if int(payload["num_sessions"]) != self.num_sessions:
            raise ExperimentError(
                f"snapshot was captured from a {payload['num_sessions']}-session "
                f"environment but this one drives {self.num_sessions} sessions"
            )
        state = self.state
        state.device.load_state_dict(payload["device"])
        self._stream.load_state_dict(payload["stream"])
        for rng, rng_state in zip(state.rngs, payload["rngs"]):
            rng.bit_generator.state = rng_state
        if payload["previous_latency_ms"] is None:
            state.previous_latency_ms = None
        else:
            self._previous_latency[:] = payload["previous_latency_ms"]
            state.previous_latency_ms = self._previous_latency
        state.cpu_utilisation[:] = payload["cpu_utilisation"]
        state.gpu_utilisation[:] = payload["gpu_utilisation"]
        self._phase = _Phase.IDLE
        self._frame_index = int(payload["frame_index"])
        self._fused = None  # the stream's segment may have changed

    # -- decision application --------------------------------------------------------

    def apply_levels(
        self,
        cpu_levels: np.ndarray,
        gpu_levels: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> None:
        """Request per-session frequency levels on behalf of the policy."""
        self.state.device.request_levels(cpu_levels, gpu_levels, mask=mask)

    def apply_decision(self, decision: FleetDecision | None) -> None:
        """Apply a policy decision (``None`` leaves all requests untouched)."""
        if decision is None:
            return
        self.apply_levels(decision.cpu_levels, decision.gpu_levels, decision.mask)

    # -- frame protocol ----------------------------------------------------------------

    def begin_frame(self) -> FleetStartObservation:
        """Draw every session's next frame; return the batch observation.

        With the ``fleet`` kernels: one ``fleet_normal`` draw (stream
        innovations and proposal noise), NumPy's ``exp`` of the noise, and
        one ``fleet_begin_frame`` call.  The proposal noise is drawn here
        rather than in :meth:`run_first_stage`, so a frame abandoned in
        between has advanced the proposal generators on this path only;
        to continue identically on both paths, restore a
        :meth:`state_dict` taken at a frame boundary.
        """
        return self._begin_frame(fused_fleet())

    def _begin_frame(self, kernel) -> FleetStartObservation:
        """:meth:`begin_frame` on the given ``fleet`` kernels, or NumPy for ``None``."""
        self._step_begin(kernel)
        state = self.state
        floats, ints, flags = self._snapshot(self._start_blocks)
        device = state.device
        return _frozen(
            FleetStartObservation,
            frame_index=self._frame_index,
            datasets=state.datasets,
            cpu_temperature_c=floats[0],
            gpu_temperature_c=floats[1],
            cpu_level=ints[0],
            gpu_level=ints[1],
            cpu_num_levels=device.cpu.num_levels,
            gpu_num_levels=device.gpu.num_levels,
            latency_constraint_ms=floats[2],
            remaining_budget_ms=floats[3],
            previous_latency_ms=None if state.previous_latency_ms is None else floats[4],
            cpu_utilisation=floats[5],
            gpu_utilisation=floats[6],
            ambient_temperature_c=floats[7],
            throttle_threshold_c=self.throttle_threshold_c,
            cpu_throttled=flags[0],
            gpu_throttled=flags[1],
        )

    def _step_begin(self, kernel) -> None:
        """Start the frame, writing the start observation's staging blocks."""
        if self._phase is not _Phase.IDLE:
            raise ExperimentError(
                f"begin_frame called while a frame is in phase {self._phase.value!r}"
            )
        state = self.state
        if kernel is None:
            state.device.set_ambient(self.ambient.temperature_at(self._frame_index))
            batch = self._stream.next_frames()
            state.image_scale[:] = batch.image_scale
            state.scene_candidates[:] = batch.scene_candidates
            state.constraint_ms[:] = batch.latency_constraint_ms
            state.datasets = batch.datasets
            state.frame_energy_j.fill(0.0)
            self._observe(self._start_blocks, self._previous_latency, state.constraint_ms)
        else:
            if self._stream.enter_due_segment():
                self._fused = None  # a new segment's names and draw scales
            fused = self._fused or self._fused_frame(kernel)
            fused.ambient_values[:] = self.ambient.distinct_at(self._frame_index)
            fused.draw()
            if fused.noise is not None:
                # np.exp, as the scalar ProposalModel.sample uses.
                np.exp(fused.noise, out=fused.noise)
            kernel.fleet_begin_frame(fused.table)
            self._stream.count_frame()
            state.datasets = fused.datasets
        self._phase = _Phase.STARTED

    def run_first_stage(self) -> FleetMidObservation:
        """Execute stage 1 for every session; return the batch observation.

        With the ``fleet`` kernels, the stage's costs, segment model,
        device segment and frame energy, the proposal counts and the
        observation are one ``fleet_first_stage`` call.
        """
        return self._first_stage(fused_fleet())

    def _first_stage(self, kernel) -> FleetMidObservation:
        """:meth:`run_first_stage` on the given ``fleet`` kernels, or NumPy for ``None``."""
        self._step_first_stage(kernel)
        state = self.state
        device = state.device
        floats, ints, flags = self._snapshot(self._mid_blocks)
        return _frozen(
            FleetMidObservation,
            frame_index=self._frame_index,
            datasets=state.datasets,
            cpu_temperature_c=floats[0],
            gpu_temperature_c=floats[1],
            cpu_level=ints[0],
            gpu_level=ints[1],
            cpu_num_levels=device.cpu.num_levels,
            gpu_num_levels=device.gpu.num_levels,
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

    def _step_first_stage(self, kernel) -> None:
        """Run stage 1, writing the mid observation's staging blocks."""
        if self._phase is not _Phase.STARTED:
            raise ExperimentError("run_first_stage must follow begin_frame")
        state = self.state
        device = state.device
        if kernel is None:
            levels = (device.cpu_level.copy(), device.gpu_level.copy())
            latency, cpu_utilisation, gpu_utilisation, throttled = self._run_stage(
                second=False
            )
            self._stage1_levels[:] = levels
            state.stage1_latency_ms[:] = latency
            self._stage1_throttled[:] = throttled
            state.cpu_utilisation[:] = cpu_utilisation
            state.gpu_utilisation[:] = gpu_utilisation
            state.num_proposals[:] = propose_batch(
                self.detector, state.scene_candidates, state.rngs
            )
            self._observe(
                self._mid_blocks, state.stage1_latency_ms,
                state.constraint_ms - state.stage1_latency_ms,
            )
            self._mid_blocks[1][2] = state.num_proposals
        elif not kernel.fleet_first_stage((self._fused or self._fused_frame(kernel)).table):
            raise DetectorError("frequencies must be positive")
        self._phase = _Phase.AFTER_STAGE1

    def run_second_stage(self) -> FleetFrameResult:
        """Execute stage 2 (if any) for every session; finish the frame.

        With the ``fleet`` kernels, stage 2, the idle gap and the frame
        result are one ``fleet_second_stage`` call.  The result's arrays
        are read-only.
        """
        return self._second_stage(fused_fleet())

    def _second_stage(self, kernel) -> FleetFrameResult:
        """:meth:`run_second_stage` on the given ``fleet`` kernels, or NumPy for ``None``."""
        index = self._frame_index
        self._step_second_stage(kernel)
        floats, ints, flags = self._snapshot(self._result_blocks, read_only=True)
        return _frozen(
            FleetFrameResult,
            index=index,
            datasets=self.state.datasets,
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

    def _step_second_stage(self, kernel) -> None:
        """Run stage 2 and finish the frame, writing the result's staging
        blocks."""
        if self._phase is not _Phase.AFTER_STAGE1:
            raise ExperimentError("run_second_stage must follow run_first_stage")
        state = self.state
        if kernel is None:
            device = state.device
            n = self.num_sessions
            stage2_levels = (device.cpu_level.copy(), device.gpu_level.copy())
            stage2_throttled = np.zeros(n, dtype=bool)
            if self.detector.is_two_stage:
                (
                    latency, cpu_utilisation, gpu_utilisation, stage2_throttled,
                ) = self._run_stage(second=True)
                self._stage2_latency[:] = latency
                state.cpu_utilisation[:] = cpu_utilisation
                state.gpu_utilisation[:] = gpu_utilisation
            else:
                self._stage2_latency.fill(0.0)
            if self.idle_between_frames_ms > 0:
                idle_telemetry = device.idle(np.full(n, self.idle_between_frames_ms))
                state.frame_energy_j += idle_telemetry.energy_j
            total = state.stage1_latency_ms + self._stage2_latency
            throttled = self._stage1_throttled | stage2_throttled
            floats, ints, flags = self._result_blocks
            floats[:] = (
                state.stage1_latency_ms, self._stage2_latency, total, state.constraint_ms,
                device.cpu_temperature_c, device.gpu_temperature_c,
                device.ambient_temperature_c, state.frame_energy_j,
            )
            ints[:] = (state.num_proposals, *self._stage1_levels, *stage2_levels)
            flags[:] = (
                total <= state.constraint_ms, throttled | device.cpu_throttled,
                throttled | device.gpu_throttled,
            )
            self._previous_latency[:] = total
        elif not kernel.fleet_second_stage((self._fused or self._fused_frame(kernel)).table):
            raise DetectorError("frequencies must be positive")
        state.previous_latency_ms = self._previous_latency
        self._frame_index += 1
        self._phase = _Phase.IDLE


def _blocks(floats: tuple, ints: tuple, flags: tuple, n: int) -> tuple:
    """One phase's staging blocks: a row per field, per dtype."""
    return (
        np.zeros((len(floats), n)),
        np.zeros((len(ints), n), dtype=np.int64),
        np.zeros((len(flags), n), dtype=bool),
    )


class _FusedFrame:
    """One environment's fused frame: the three phase kernels' table.

    Bound on the environment's first fused frame to its own, its fleet's
    and its stream's arrays (all written only in place), through the
    sub-tables the phases run, which it keeps alive.  It also holds the
    frame's draw (:meth:`~repro.kernels.SessionGenerators.bind_normal`:
    the stream's generators, then, for a detector with proposal noise, the
    environment's, into the environment's draw buffer) and the distinct
    ambient values ``begin_frame`` fills before the kernel.  The
    environment drops it when pickled or copied, so everything a frame
    carries from one phase to the next lives in the environment's arrays.
    """

    def __init__(self, env: "BatchedInferenceEnvironment", kernel):
        state, n, detector = env.state, env.num_sessions, env.detector
        stream = env._stream.kernel_arguments()
        device = state.device.argument_table(kernel)
        model = detector.proposal_model
        noisy = detector.is_two_stage and model.noise_std > 0
        scales, generators = stream["innovation_std"], stream["rngs"]
        if noisy:
            scales = np.concatenate([scales, check_scales(np.full(n, model.noise_std))])
            generators = SessionGenerators([*generators, *state.rngs])
        draws = env._draws[: scales.size]
        self.draw = generators.bind_normal(scales, draws)
        self.noise = draws[n:] if noisy else None
        self.ambient_values = np.zeros(env.ambient.num_distinct)
        self.datasets = stream["names"]
        ar1 = kernel.ar1_table(
            stream["current"], stream["mean"], stream["correlation"], draws[:n],
            stream["minimum"], stream["maximum"],
        )
        shared = {
            "device": device.values,
            "device_constants": device.constants,
            "image_scale": state.image_scale,
            "proposals": state.num_proposals,
            "cpu_utilisation": state.cpu_utilisation,
            "gpu_utilisation": state.gpu_utilisation,
            "frame_energy": state.frame_energy_j,
        }
        stages = [
            kernel.stage_table(
                {**shared, "latency": latency, **stage_cost_tables(detector, second)}
            )
            for second, latency in (
                (False, state.stage1_latency_ms), (True, env._stage2_latency),
            )
        ]
        tail = None
        if detector.is_two_stage:
            tail = proposal_tail_table(
                kernel, detector, state.scene_candidates, self.noise, state.num_proposals
            )
        blocks = {
            f"{phase}_{kind}": block
            for phase, phase_blocks in (
                ("start", env._start_blocks), ("mid", env._mid_blocks),
                ("result", env._result_blocks),
            )
            for kind, block in zip(("floats", "ints", "flags"), phase_blocks)
        }
        self._tables = (stages, ar1, tail)
        self.table = kernel.frame_table({
            "device": device.values,
            "device_constants": device.constants,
            "stage1": stages[0].values,
            "stage2": stages[1].values,
            "ar1": ar1.values,
            "proposal": 0 if tail is None else tail.values,
            "proposal_constants": 0 if tail is None else tail.constants,
            "two_stage": detector.is_two_stage,
            "idle": env.idle_between_frames_ms > 0,
            "ambient_values": self.ambient_values,
            "ambient_slot": env.ambient.slot,
            "stream_image_scale": stream["image_scale"],
            "stream_constraint": stream["constraint"],
            "image_scale": state.image_scale,
            "scene": state.scene_candidates,
            "constraint": state.constraint_ms,
            "previous_latency": env._previous_latency,
            "cpu_utilisation": state.cpu_utilisation,
            "gpu_utilisation": state.gpu_utilisation,
            "frame_energy": state.frame_energy_j,
            "stage1_latency": state.stage1_latency_ms,
            "stage2_latency": env._stage2_latency,
            "num_proposals": state.num_proposals,
            "stage1_cpu_level": env._stage1_levels[0],
            "stage1_gpu_level": env._stage1_levels[1],
            "stage1_throttled": env._stage1_throttled,
            **blocks,
            **env.execution.kernel_constants(),
            "idle_ms": env.idle_between_frames_ms,
            "idle_cpu_utilisation": IDLE_CPU_UTILISATION,
            "idle_gpu_utilisation": IDLE_GPU_UTILISATION,
        })


# ---------------------------------------------------------------------------
# Session groups and the episode loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetSessionGroup:
    """One sub-fleet of a fleet run that shares a device model and detector.

    A fleet is partitioned into groups that share one device model and one
    detector (the quantities the batched kernels require to be uniform);
    everything else — dataset, ambient schedule, latency constraint, seed,
    policy — may vary per session *within* the group.  A homogeneous cell
    is a single group.
    Each group is one :class:`BatchedInferenceEnvironment` advanced as a
    single batched kernel; ``session_indices`` maps the group's local
    session order back to positions in the combined fleet.

    Attributes:
        environment: The group's batched environment (local sessions
            ``0..n_g-1``).
        policy: The fleet policy driving the group's sessions.
        session_indices: Global fleet index of each local session.
    """

    environment: BatchedInferenceEnvironment
    policy: FleetPolicy
    session_indices: tuple

    def __post_init__(self) -> None:
        if len(self.session_indices) != self.environment.num_sessions:
            raise ExperimentError(
                f"group has {self.environment.num_sessions} sessions but "
                f"{len(self.session_indices)} session indices"
            )


#: The per-session array fields of a :class:`FleetFrameResult`: the trace
#: columns of :data:`~repro.env.trace.COLUMN_DTYPES`, in the same order.
_FRAME_RESULT_ARRAY_FIELDS = tuple(COLUMN_DTYPES)


def validate_session_partition(
    session_indices: Sequence[Sequence[int]],
    num_sessions: int,
    allow_empty_groups: bool = True,
) -> List[np.ndarray]:
    """Check that the index groups partition ``0..N-1``; return int arrays.

    The single definition of the partition invariant shared by the grouped
    episode loop and the sub-fleet policy combinator
    (:class:`repro.governors.fleet.SubFleetPolicies`): indices in range,
    disjoint across groups, and together covering every session.
    """
    targets = [
        np.asarray(indices, dtype=np.int64) for indices in session_indices
    ]
    seen = np.zeros(num_sessions, dtype=bool)
    for target in targets:
        if not allow_empty_groups and target.size == 0:
            raise ConfigurationError("every group needs at least one session")
        if target.size and (target.min() < 0 or target.max() >= num_sessions):
            raise ConfigurationError(
                f"session index out of range [0, {num_sessions - 1}]"
            )
        if seen[target].any():
            raise ConfigurationError("groups must cover disjoint session indices")
        seen[target] = True
    if not seen.all():
        missing = np.flatnonzero(~seen).tolist()
        raise ConfigurationError(f"groups leave sessions {missing} uncovered")
    return targets


def _scatter_frame_results(
    results: Sequence[FleetFrameResult],
    targets: Sequence[np.ndarray],
    num_sessions: int,
) -> FleetFrameResult:
    """Scatter pre-validated per-group results into one combined frame."""
    index = results[0].index
    arrays = {
        name: np.empty(num_sessions, dtype=dtype) for name, dtype in COLUMN_DTYPES.items()
    }
    datasets: List[str] = [""] * num_sessions
    for result, target in zip(results, targets):
        if result.index != index:
            raise ExperimentError(
                f"group frame indices diverged ({result.index} != {index})"
            )
        for field in _FRAME_RESULT_ARRAY_FIELDS:
            arrays[field][target] = getattr(result, field)
        for local, global_index in enumerate(target.tolist()):
            datasets[global_index] = result.datasets[local]
    return FleetFrameResult(index=index, datasets=tuple(datasets), **arrays)


def run_grouped_fleet_episode(
    groups: Sequence[FleetSessionGroup],
    num_frames: int,
    reset_environments: bool = True,
    reset_policies: bool = True,
    sink=None,
):
    """Run a fleet — one or more grouped sub-fleets — in lock-step.

    The one fleet frame loop, the batch analogue of
    :func:`repro.env.episode.run_episode`: every group advances through the
    same three-phase frame protocol each iteration (each phase as one
    batched kernel per group), and the per-group frame results are
    re-interleaved into a single columnar :class:`FleetTrace` ordered by
    global session index.  Groups never interact, so each session's
    trajectory is bit-identical to what it would produce in a homogeneous
    fleet — or a scalar run — of its own configuration and seed.  A single
    group already in global order (indices ``0..N-1``) needs no
    re-interleaving, so its frame results are appended as they are.

    Args:
        sink: Optional frame sink with an ``append(FleetFrameResult)``
            method — e.g. a :class:`repro.store.FleetTraceWriter` spooling
            chunks to disk so the episode never holds the full trace in
            memory.  Defaults to a fresh in-memory :class:`FleetTrace`.
            When a writer is passed the caller owns sealing it
            (``close()``).

    Returns:
        The sink — the combined columnar trace over all groups' sessions
        unless a custom sink was supplied.
    """
    if num_frames <= 0:
        raise ExperimentError("num_frames must be positive")
    if not groups:
        raise ExperimentError("need at least one session group")
    num_sessions = sum(group.environment.num_sessions for group in groups)
    # The partition is fixed for the whole episode: validate it once and
    # keep only the scatter on the per-frame path.
    targets = validate_session_partition(
        [group.session_indices for group in groups], num_sessions
    )
    in_order = len(groups) == 1 and np.array_equal(targets[0], np.arange(num_sessions))
    for group in groups:
        if reset_environments:
            group.environment.reset()
        if reset_policies:
            group.policy.reset()
    trace = FleetTrace(num_sessions) if sink is None else sink
    for _ in range(num_frames):
        for group in groups:
            observation = group.environment.begin_frame()
            group.environment.apply_decision(group.policy.begin_frame(observation))
        for group in groups:
            observation = group.environment.run_first_stage()
            group.environment.apply_decision(group.policy.mid_frame(observation))
        results = []
        for group in groups:
            result = group.environment.run_second_stage()
            group.policy.end_frame(result)
            results.append(result)
        if in_order:
            trace.append(results[0])
        else:
            trace.append(_scatter_frame_results(results, targets, num_sessions))
    return trace


def run_fleet_episode(
    environment: BatchedInferenceEnvironment,
    policy: FleetPolicy,
    num_frames: int,
    reset_environment: bool = True,
    reset_policy: bool = True,
    sink=None,
):
    """Run ``policy`` on one environment for ``num_frames`` lock-step frames.

    The single-group call of :func:`run_grouped_fleet_episode` (same
    ``sink`` contract).

    Returns:
        The sink — the columnar :class:`FleetTrace` of all processed frames
        unless a custom sink was supplied.
    """
    group = FleetSessionGroup(
        environment=environment,
        policy=policy,
        session_indices=tuple(range(environment.num_sessions)),
    )
    return run_grouped_fleet_episode(
        [group],
        num_frames,
        reset_environments=reset_environment,
        reset_policies=reset_policy,
        sink=sink,
    )
