"""Declarative, seeded fault plans.

A :class:`FaultPlan` is a small, serialisable description of *what goes
wrong* during a run: sensor dropouts and spikes, throttling storms, lossy
communication channels, and worker crashes.  Plans follow the same
discipline as ambient profiles (:mod:`repro.env.ambient`): they are frozen
dataclasses with a validated dict/JSON codec (the canonical form a
scenario's content fingerprint carries), so a faulted run is exactly as
reproducible as a clean one.

Two layers:

* the **plan** — typed events, human-authored, attached to a
  :class:`~repro.scenarios.spec.ScenarioSpec`;
* the **schedule** (:func:`compile_fault_plan`) — dense per-frame,
  per-session boolean/float arrays derived deterministically from the
  plan's seed.  Stochastic events (a dropout with ``probability < 1``) are
  resolved here with one generator per *global* session index
  (``default_rng([seed, session])``), so the compiled schedule for a
  session never depends on how the fleet is grouped or sharded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import FaultError


def _session_tuple(sessions: object) -> Optional[Tuple[int, ...]]:
    """Normalise a session filter to a sorted tuple (``None`` = all)."""
    if sessions is None:
        return None
    try:
        values = tuple(sorted(int(s) for s in sessions))  # type: ignore[arg-type]
    except TypeError as exc:
        raise FaultError(f"sessions must be an iterable of ints: {exc}") from exc
    if any(s < 0 for s in values):
        raise FaultError("session indices must be non-negative")
    if len(set(values)) != len(values):
        raise FaultError("session indices must be unique")
    return values


def _check_rate(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise FaultError(f"{name} must be within [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class SensorDropout:
    """Thermal/utilisation telemetry goes dark for a window of frames.

    While a session is dropped, policies see the last-known-good sensor
    readings (graceful degradation); the run keeps going and the affected
    frames are recorded as degraded.

    Attributes:
        start_frame: First affected frame.
        num_frames: Length of the window.
        sessions: Global session indices affected (``None`` = every session).
        probability: Per-(frame, session) chance the reading is lost within
            the window; ``1.0`` is a hard outage, lower values model flaky
            telemetry, resolved deterministically from the plan seed.
    """

    start_frame: int
    num_frames: int
    sessions: Optional[Tuple[int, ...]] = None
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.start_frame < 0 or self.num_frames <= 0:
            raise FaultError(
                "sensor dropout needs start_frame >= 0 and num_frames >= 1"
            )
        object.__setattr__(self, "sessions", _session_tuple(self.sessions))
        object.__setattr__(
            self, "probability", _check_rate("probability", self.probability)
        )


@dataclass(frozen=True)
class SensorSpike:
    """A one-frame bogus temperature reading (added on top of the truth).

    Attributes:
        frame: Affected frame.
        delta_c: Celsius offset added to both die-temperature readings.
        sessions: Global session indices affected (``None`` = every session).
    """

    frame: int
    delta_c: float
    sessions: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.frame < 0:
            raise FaultError("sensor spike frame must be non-negative")
        if not np.isfinite(self.delta_c):
            raise FaultError("sensor spike delta_c must be finite")
        object.__setattr__(self, "sessions", _session_tuple(self.sessions))


@dataclass(frozen=True)
class ThrottlingStorm:
    """A window where affected sessions are forced to their lowest levels.

    Models an external thermal-management daemon clamping frequencies: the
    policy's decisions are overridden to level 0 on both domains for the
    duration, and the frames are recorded as degraded.
    """

    start_frame: int
    num_frames: int
    sessions: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.start_frame < 0 or self.num_frames <= 0:
            raise FaultError(
                "throttling storm needs start_frame >= 0 and num_frames >= 1"
            )
        object.__setattr__(self, "sessions", _session_tuple(self.sessions))


@dataclass(frozen=True)
class ChannelFaults:
    """Loss characteristics of the agent/client channel.

    Consumed by :class:`repro.comms.LossyChannel`: each sent message is
    independently dropped, delayed or duplicated at these rates.
    """

    drop_rate: float = 0.0
    delay_rate: float = 0.0
    delay_ms: float = 25.0
    duplicate_rate: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "drop_rate", _check_rate("drop_rate", self.drop_rate))
        object.__setattr__(
            self, "delay_rate", _check_rate("delay_rate", self.delay_rate)
        )
        object.__setattr__(
            self, "duplicate_rate", _check_rate("duplicate_rate", self.duplicate_rate)
        )
        if self.delay_ms < 0:
            raise FaultError("delay_ms must be non-negative")
        object.__setattr__(self, "delay_ms", float(self.delay_ms))


@dataclass(frozen=True)
class WorkerCrash:
    """Kill one shard's worker process at the start of frame ``frame``.

    Consumed by the supervised sharded runtime
    (:func:`repro.runtime.shards.run_supervised_scenario`): the worker
    owning shard ``shard`` calls ``os._exit`` when it reaches the frame,
    and the supervisor restarts it from its latest periodic checkpoint.
    """

    frame: int
    shard: int = 0

    def __post_init__(self) -> None:
        if self.frame < 0:
            raise FaultError("worker crash frame must be non-negative")
        if self.shard < 0:
            raise FaultError("worker crash shard must be non-negative")


FaultEvent = Union[SensorDropout, SensorSpike, ThrottlingStorm, ChannelFaults, WorkerCrash]

_EVENT_KINDS: Dict[str, type] = {
    "sensor_dropout": SensorDropout,
    "sensor_spike": SensorSpike,
    "throttling_storm": ThrottlingStorm,
    "channel_faults": ChannelFaults,
    "worker_crash": WorkerCrash,
}
_EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "sensor_dropout": ("start_frame", "num_frames", "sessions", "probability"),
    "sensor_spike": ("frame", "delta_c", "sessions"),
    "throttling_storm": ("start_frame", "num_frames", "sessions"),
    "channel_faults": ("drop_rate", "delay_rate", "delay_ms", "duplicate_rate"),
    "worker_crash": ("frame", "shard"),
}


def _event_to_dict(event: FaultEvent) -> Dict[str, Any]:
    for kind, cls in _EVENT_KINDS.items():
        if type(event) is cls:
            payload: Dict[str, Any] = {"kind": kind}
            for name in _EVENT_FIELDS[kind]:
                value = getattr(event, name)
                payload[name] = list(value) if isinstance(value, tuple) else value
            return payload
    raise FaultError(f"unknown fault event type {type(event).__name__!r}")


def _event_from_dict(payload: Dict[str, Any]) -> FaultEvent:
    if not isinstance(payload, dict):
        raise FaultError("fault event payload must be a mapping")
    kind = payload.get("kind")
    if kind not in _EVENT_KINDS:
        raise FaultError(f"unknown fault event kind {kind!r}")
    known = set(_EVENT_FIELDS[kind]) | {"kind"}
    unexpected = set(payload) - known
    if unexpected:
        raise FaultError(
            f"unexpected keys in {kind!r} fault event: {sorted(unexpected)}"
        )
    kwargs = {name: payload[name] for name in _EVENT_FIELDS[kind] if name in payload}
    if "sessions" in kwargs and kwargs["sessions"] is not None:
        kwargs["sessions"] = tuple(kwargs["sessions"])
    try:
        return _EVENT_KINDS[kind](**kwargs)
    except TypeError as exc:
        raise FaultError(f"malformed {kind!r} fault event: {exc}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative schedule of faults for one run.

    Attributes:
        events: The typed fault events, applied in order.
        seed: Seed resolving every stochastic event; the same plan (seed
            included) always compiles to the identical fault schedule.
        name: Optional label carried into reports.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, tuple(_EVENT_KINDS.values())):
                raise FaultError(
                    f"fault plan events must be fault event instances, got "
                    f"{type(event).__name__!r}"
                )
        if len([e for e in self.events if isinstance(e, ChannelFaults)]) > 1:
            raise FaultError("a fault plan can carry at most one channel_faults event")
        object.__setattr__(self, "seed", int(self.seed))
        if not isinstance(self.name, str):
            raise FaultError("fault plan name must be a string")

    # -- queries -------------------------------------------------------------------------

    @property
    def channel(self) -> Optional[ChannelFaults]:
        """The plan's channel-loss characteristics, if any."""
        for event in self.events:
            if isinstance(event, ChannelFaults):
                return event
        return None

    @property
    def crashes(self) -> Tuple[WorkerCrash, ...]:
        """Worker-crash events, in plan order."""
        return tuple(e for e in self.events if isinstance(e, WorkerCrash))

    # -- codec ---------------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation (round-trips through
        :func:`fault_plan_from_dict`)."""
        return {
            "kind": "fault-plan",
            "name": self.name,
            "seed": self.seed,
            "events": [_event_to_dict(event) for event in self.events],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def fault_plan_from_dict(payload: Dict[str, Any]) -> FaultPlan:
    """Rebuild a :class:`FaultPlan` from its :meth:`~FaultPlan.to_dict`."""
    if not isinstance(payload, dict):
        raise FaultError("fault plan payload must be a mapping")
    if payload.get("kind") != "fault-plan":
        raise FaultError(f"expected kind 'fault-plan', got {payload.get('kind')!r}")
    known = {"kind", "name", "seed", "events"}
    unexpected = set(payload) - known
    if unexpected:
        raise FaultError(f"unexpected keys in fault plan: {sorted(unexpected)}")
    events_payload = payload.get("events", [])
    if not isinstance(events_payload, list):
        raise FaultError("fault plan 'events' must be a list")
    return FaultPlan(
        events=tuple(_event_from_dict(event) for event in events_payload),
        seed=int(payload.get("seed", 0)),
        name=str(payload.get("name", "")),
    )


def fault_plan_from_json(text: str) -> FaultPlan:
    """Rebuild a :class:`FaultPlan` from a JSON string."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FaultError(f"malformed fault plan JSON: {exc}") from exc
    return fault_plan_from_dict(payload)


# -- compilation ------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSchedule:
    """Dense, per-frame × per-session fault masks compiled from a plan.

    Attributes:
        sessions: The global session indices the columns correspond to.
        dropout: ``(num_frames, len(sessions))`` bool — sensor reading lost.
        spike_c: Same shape, float — Celsius offset added to temperature
            readings (0 where no spike).
        storm: Same shape, bool — decisions clamped to minimum levels.
    """

    sessions: Tuple[int, ...]
    dropout: np.ndarray
    spike_c: np.ndarray
    storm: np.ndarray

    @property
    def num_frames(self) -> int:
        """Number of frames the schedule covers."""
        return int(self.dropout.shape[0])

    @property
    def num_sessions(self) -> int:
        """Number of session columns."""
        return int(self.dropout.shape[1])

    @property
    def any_faults(self) -> bool:
        """Whether any frame of any session is affected."""
        return bool(
            self.dropout.any() or self.storm.any() or np.any(self.spike_c != 0.0)
        )

    def take(self, columns: Sequence[int]) -> "FaultSchedule":
        """A schedule restricted to the given column positions."""
        cols = np.asarray(list(columns), dtype=int)
        return FaultSchedule(
            sessions=tuple(self.sessions[c] for c in cols.tolist()),
            dropout=self.dropout[:, cols].copy(),
            spike_c=self.spike_c[:, cols].copy(),
            storm=self.storm[:, cols].copy(),
        )


def _affects(event_sessions: Optional[Tuple[int, ...]], session: int) -> bool:
    return event_sessions is None or session in event_sessions


def compile_fault_plan(
    plan: FaultPlan,
    num_frames: int,
    session_indices: Sequence[int],
) -> FaultSchedule:
    """Resolve a plan into dense per-frame masks for the given sessions.

    Each column is compiled independently from a generator seeded with
    ``[plan.seed, global_session_index]``, consumed in event order — so a
    session's schedule is a pure function of the plan and its global index,
    regardless of fleet grouping or sharding.  Windows extending past
    ``num_frames`` are truncated (stochastic draws still cover the full
    declared window, keeping the schedule invariant under frame-count
    extension).
    """
    if num_frames <= 0:
        raise FaultError("num_frames must be positive")
    sessions = tuple(int(s) for s in session_indices)
    if any(s < 0 for s in sessions):
        raise FaultError("session indices must be non-negative")
    shape = (num_frames, len(sessions))
    dropout = np.zeros(shape, dtype=bool)
    spike_c = np.zeros(shape, dtype=float)
    storm = np.zeros(shape, dtype=bool)
    for column, session in enumerate(sessions):
        rng = np.random.default_rng([plan.seed, session])
        for event in plan.events:
            if isinstance(event, SensorDropout):
                draws = None
                if event.probability < 1.0:
                    draws = rng.random(event.num_frames) < event.probability
                if not _affects(event.sessions, session):
                    continue
                for offset in range(event.num_frames):
                    frame = event.start_frame + offset
                    if frame >= num_frames:
                        break
                    if draws is None or draws[offset]:
                        dropout[frame, column] = True
            elif isinstance(event, SensorSpike):
                if _affects(event.sessions, session) and event.frame < num_frames:
                    spike_c[event.frame, column] += event.delta_c
            elif isinstance(event, ThrottlingStorm):
                if not _affects(event.sessions, session):
                    continue
                stop = min(event.start_frame + event.num_frames, num_frames)
                storm[event.start_frame : stop, column] = True
    return FaultSchedule(
        sessions=sessions, dropout=dropout, spike_c=spike_c, storm=storm
    )
