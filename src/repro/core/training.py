"""Online training sessions.

A thin orchestration layer that runs a policy on an environment and packages
the trace, summary metrics and (for learning policies) the training
diagnostics into a single :class:`SessionResult`.  The experiment runners in
:mod:`repro.analysis.experiments` are built on top of this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple, Union

from repro.env.environment import InferenceEnvironment
from repro.env.episode import run_episode
from repro.env.metrics import EpisodeMetrics, summarize_sessions
from repro.env.policy import Policy
from repro.env.trace import Trace


@dataclass(frozen=True)
class SessionResult:
    """Outcome of one online session.

    Attributes:
        policy_name: Name of the policy that produced the trace.
        trace: Per-frame records of the whole session.  A session packaged
            from a fleet trace holds the fleet trace and its session index,
            and builds this :class:`Trace` on first read.
        metrics: Summary statistics over the whole trace.
        steady_metrics: Summary statistics over the second half of the trace
            only — for learning policies this excludes most of the
            exploration transient and is closer to the converged behaviour
            the paper's tables report.
        losses: TD losses recorded by the policy, if it learns (else empty).
        rewards: Per-frame rewards recorded by the policy, if any.
    """

    policy_name: str
    _trace: Union[Trace, Tuple[object, int]] = field(repr=False, compare=False)
    metrics: EpisodeMetrics
    steady_metrics: EpisodeMetrics
    losses: List[float]
    rewards: List[float]

    @property
    def trace(self) -> Trace:
        """Per-frame records of the whole session."""
        trace = self._trace
        if isinstance(trace, tuple):
            fleet_trace, session = trace
            trace = fleet_trace.session_trace(session)
            object.__setattr__(self, "_trace", trace)
        return trace

    def __getstate__(self) -> dict:
        # The session's own trace, never the fleet trace behind it, so a
        # lazy result pickles (and deep-copies) exactly like an eager one.
        return {**self.__dict__, "_trace": self.trace}


def session_result_from_trace(
    policy_name: str,
    trace: Trace,
    losses: List[float] | None = None,
    rewards: List[float] | None = None,
) -> SessionResult:
    """Package a completed trace into a :class:`SessionResult`.

    Shared by :class:`OnlineSession` (fresh runs) and the runtime's result
    cache (deserialised runs); fleet packaging runs the same reducer over
    all sessions at once, so every path produces bit-identical metrics.
    """
    (metrics,), (steady_metrics,) = summarize_sessions(trace)
    return SessionResult(
        policy_name=policy_name,
        _trace=trace,
        metrics=metrics,
        steady_metrics=steady_metrics,
        losses=list(losses) if losses else [],
        rewards=list(rewards) if rewards else [],
    )


class OnlineSession:
    """Couples an environment with a policy and runs online episodes."""

    def __init__(self, environment: InferenceEnvironment, policy: Policy):
        self.environment = environment
        self.policy = policy

    def run(self, num_frames: int, reset_environment: bool = True) -> SessionResult:
        """Run ``num_frames`` frames and summarise the outcome."""
        trace = run_episode(
            self.environment,
            self.policy,
            num_frames,
            reset_environment=reset_environment,
        )
        return session_result_from_trace(
            self.policy.name,
            trace,
            losses=list(getattr(self.policy, "loss_history", [])),
            rewards=list(getattr(self.policy, "reward_history", [])),
        )
