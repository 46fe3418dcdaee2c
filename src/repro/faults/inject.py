"""Fault injection wrappers: graceful degradation at the policy boundary.

Faults are injected between the environment and the policy, never inside
the simulator: the environment always advances on the true physics, while
the policy sees corrupted *sensor readings* (dropouts hold the
last-known-good values, spikes add a bogus offset) and throttling storms
override its *decisions*.  This keeps the frame records untouched — a
faulted run's trace stays schema-compatible with a clean one — and makes
the wrappers trivially checkpointable for crash recovery.

Only sensor-shaped fields are corrupted (die temperatures, utilisations,
ambient, throttle flags).  Actuator state (current levels), the latency
budget and pipeline-internal measurements (stage-1 latency, proposal
count) are known locally on the device and survive a telemetry outage.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.env.fleet import (
    FleetDecision,
    FleetFrameResult,
    FleetMidObservation,
    FleetPolicy,
    FleetStartObservation,
)
from repro.faults.plan import FaultSchedule
from repro.obs import bus as _obs

#: Observation fields treated as remote sensor readings (maskable).
SENSOR_FIELDS = (
    "cpu_temperature_c",
    "gpu_temperature_c",
    "cpu_utilisation",
    "gpu_utilisation",
    "ambient_temperature_c",
    "cpu_throttled",
    "gpu_throttled",
)
_TEMPERATURE_FIELDS = ("cpu_temperature_c", "gpu_temperature_c")


class FaultedFleetPolicy(FleetPolicy):
    """Wrap a fleet policy with a compiled fault schedule.

    On dropout frames the inner policy acts on the last-known-good sensor
    readings of each affected session; spike frames add the scheduled
    temperature offset; storm frames force the affected sessions to level 0
    on both domains.  The wrapper records which (frame, session) cells were
    degraded in :attr:`degraded`.

    Last-known-good is read only on a dropout frame, and a frame without a
    dropout replaces the whole snapshot, so the snapshot is taken only on
    a dropout frame and on the frame before one.  Every other frame without
    a spike reaches the inner policy untouched and uncopied; the snapshot
    then held (and checkpointed by :meth:`state_dict`) may be older than
    the last frame, which changes no decision.
    """

    def __init__(self, inner: FleetPolicy, schedule: FaultSchedule):
        self.inner = inner
        self.schedule = schedule
        self.name = f"faulted({inner.name})"
        self._frame = 0
        self._good_start: Optional[dict] = None
        self._good_mid: Optional[dict] = None
        self.degraded = np.zeros(
            (schedule.num_frames, schedule.num_sessions), dtype=bool
        )
        # Per-frame flags, so a frame that needs no work costs a lookup.
        dropped = schedule.dropout.any(axis=1)
        self._spiked = (schedule.spike_c != 0.0).any(axis=1).tolist()
        self._stormed = schedule.storm.any(axis=1).tolist()
        # A snapshot is due on a dropout frame and on the frame before one.
        self._snapshot = (dropped | np.append(dropped[1:], False)).tolist()

    # -- degradation ---------------------------------------------------------------------

    def _degrade(self, observation, good_key: str):
        frame = self._frame
        if frame >= self.schedule.num_frames:
            return observation
        replaced = observation
        if self._snapshot[frame]:
            replaced = self._hold_last_known_good(observation, good_key)
        if self._spiked[frame]:
            spike = self.schedule.spike_c[frame]
            fields = {
                name: getattr(replaced, name) + spike for name in _TEMPERATURE_FIELDS
            }
            replaced = dataclasses.replace(replaced, **fields)
            self.degraded[frame] |= spike != 0.0
            if _obs.active():
                _obs.inc("faults.spike_cells", int(np.count_nonzero(spike != 0.0)))
        return replaced

    def _hold_last_known_good(self, observation, good_key: str):
        """Replace dropped sessions' readings; refresh the snapshot."""
        frame = self._frame
        snapshot = {name: np.copy(getattr(observation, name)) for name in SENSOR_FIELDS}
        drop = self.schedule.dropout[frame]
        good = getattr(self, good_key)
        replaced = observation
        dropped = bool(drop.any())
        if dropped and good is not None:
            fields = {
                name: np.where(drop, good[name], getattr(observation, name))
                for name in SENSOR_FIELDS
            }
            replaced = dataclasses.replace(observation, **fields)
            self.degraded[frame] |= drop
            if _obs.active():
                _obs.inc("faults.dropout_cells", int(drop.sum()))
        # Last-known-good holds the final reading *before* the outage: only
        # non-dropped sessions refresh the snapshot.  With no session
        # dropped that is the whole fresh snapshot (an all-False np.where
        # would return its values exactly).
        if good is None or not dropped:
            setattr(self, good_key, snapshot)
        else:
            for name in SENSOR_FIELDS:
                good[name] = np.where(drop, good[name], snapshot[name])
        return replaced

    def _clamp(self, decision: Optional[FleetDecision]) -> Optional[FleetDecision]:
        frame = self._frame
        if frame >= self.schedule.num_frames or not self._stormed[frame]:
            return decision
        storm = self.schedule.storm[frame]
        self.degraded[frame] |= storm
        if _obs.active():
            _obs.inc("faults.storm_cells", int(storm.sum()))
        num_sessions = self.schedule.num_sessions
        if decision is None:
            return FleetDecision(
                cpu_levels=np.zeros(num_sessions, dtype=np.int64),
                gpu_levels=np.zeros(num_sessions, dtype=np.int64),
                mask=storm.copy(),
            )
        cpu = np.where(storm, 0, decision.cpu_levels).astype(np.int64)
        gpu = np.where(storm, 0, decision.gpu_levels).astype(np.int64)
        mask = None if decision.mask is None else (decision.mask | storm)
        return FleetDecision(cpu_levels=cpu, gpu_levels=gpu, mask=mask)

    # -- fleet policy protocol -----------------------------------------------------------

    def begin_frame(self, observation: FleetStartObservation):
        return self._clamp(self.inner.begin_frame(self._degrade(observation, "_good_start")))

    def mid_frame(self, observation: FleetMidObservation):
        return self._clamp(self.inner.mid_frame(self._degrade(observation, "_good_mid")))

    def end_frame(self, result: FleetFrameResult) -> None:
        self.inner.end_frame(result)
        self._frame += 1

    def reset(self) -> None:
        self.inner.reset()
        self._frame = 0
        self._good_start = None
        self._good_mid = None
        self.degraded[:] = False

    # -- checkpointing -------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of the wrapper's bookkeeping plus the inner policy's
        state (``None`` when the inner policy is stateless)."""
        inner = (
            self.inner.state_dict() if hasattr(self.inner, "state_dict") else None
        )
        return {
            "frame": int(self._frame),
            "good_start": None
            if self._good_start is None
            else {k: v.copy() for k, v in self._good_start.items()},
            "good_mid": None
            if self._good_mid is None
            else {k: v.copy() for k, v in self._good_mid.items()},
            "degraded": self.degraded.copy(),
            "inner": inner,
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        self._frame = int(payload["frame"])
        self._good_start = (
            None
            if payload["good_start"] is None
            else {k: np.copy(v) for k, v in payload["good_start"].items()}
        )
        self._good_mid = (
            None
            if payload["good_mid"] is None
            else {k: np.copy(v) for k, v in payload["good_mid"].items()}
        )
        self.degraded[:] = payload["degraded"]
        if payload["inner"] is not None:
            self.inner.load_state_dict(payload["inner"])
