"""Simulation environment.

Ties the hardware simulator, the detector cost models and the workload
streams together into the frame-by-frame inference loop that DVFS policies
(default governors, zTT, Lotus) control.  The environment exposes exactly
two decision points per frame — at the start of the frame and right after
the RPN, when the proposal count becomes known — mirroring the structure of
the Lotus framework (paper §4.2).
"""

from repro.env.ambient import (
    AmbientProfile,
    AmbientSegment,
    ConstantAmbient,
    DiurnalAmbient,
    LinearRampAmbient,
    StepAmbient,
    warm_cold_warm,
)
from repro.env.environment import (
    FrameResult,
    FrameStartObservation,
    InferenceEnvironment,
    MidFrameObservation,
)
from repro.env.episode import run_episode
from repro.env.fleet import (
    BatchedInferenceEnvironment,
    FleetDecision,
    FleetFrameResult,
    FleetMidObservation,
    FleetPolicy,
    FleetSessionGroup,
    FleetStartObservation,
    FleetState,
    FleetTrace,
    PerSessionPolicies,
    SessionAmbient,
    run_fleet_episode,
    run_grouped_fleet_episode,
)
from repro.env.metrics import EpisodeMetrics, summarize_trace
from repro.env.policy import FrequencyDecision, Policy
from repro.env.trace import Trace

__all__ = [
    "AmbientProfile",
    "AmbientSegment",
    "BatchedInferenceEnvironment",
    "ConstantAmbient",
    "DiurnalAmbient",
    "EpisodeMetrics",
    "FleetDecision",
    "FleetFrameResult",
    "FleetMidObservation",
    "FleetPolicy",
    "FleetSessionGroup",
    "FleetStartObservation",
    "FleetState",
    "FleetTrace",
    "FrameResult",
    "FrameStartObservation",
    "FrequencyDecision",
    "InferenceEnvironment",
    "LinearRampAmbient",
    "MidFrameObservation",
    "PerSessionPolicies",
    "Policy",
    "SessionAmbient",
    "StepAmbient",
    "Trace",
    "run_episode",
    "run_fleet_episode",
    "run_grouped_fleet_episode",
    "summarize_trace",
    "warm_cold_warm",
]
