"""Deterministic fault injection.

Declarative, seeded :class:`FaultPlan` objects describe sensor dropouts
and spikes, throttling storms, lossy channels and worker crashes; they
serialise exactly like ambient profiles, compile into dense per-frame
schedules (:func:`compile_fault_plan`), and inject at the fleet policy
boundary (:class:`FaultedFleetPolicy`) so the simulated physics — and
therefore the trace schema — stay untouched.  See :mod:`repro.comms` for the lossy-channel consumer and
:mod:`repro.runtime.shards` for supervised crash recovery.
"""

from repro.faults.inject import SENSOR_FIELDS, FaultedFleetPolicy
from repro.faults.plan import (
    ChannelFaults,
    FaultEvent,
    FaultPlan,
    FaultSchedule,
    SensorDropout,
    SensorSpike,
    ThrottlingStorm,
    WorkerCrash,
    compile_fault_plan,
    fault_plan_from_dict,
    fault_plan_from_json,
)

__all__ = [
    "ChannelFaults",
    "FaultEvent",
    "FaultPlan",
    "FaultSchedule",
    "FaultedFleetPolicy",
    "SENSOR_FIELDS",
    "SensorDropout",
    "SensorSpike",
    "ThrottlingStorm",
    "WorkerCrash",
    "compile_fault_plan",
    "fault_plan_from_dict",
    "fault_plan_from_json",
]
