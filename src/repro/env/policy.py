"""Policy interface.

Everything that controls frequency in this repository — the reimplemented
Linux default governors, the zTT baseline, the Lotus agent and the frozen
checkpoint deployments of :mod:`repro.policies` — implements the same small
:class:`Policy` protocol: it may return a frequency decision at the start
of a frame, another one after the RPN, and receives the frame's outcome as
feedback.  The episode runner drives any policy through the same loop,
which is what makes the head-to-head comparisons of Tables 1/2
straightforward.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.env.environment import FrameStartObservation, MidFrameObservation
from repro.env.trace import FrameRecord


@dataclass(frozen=True)
class FrequencyDecision:
    """A joint CPU/GPU frequency-level request.

    Attributes:
        cpu_level: Requested CPU frequency level.
        gpu_level: Requested GPU frequency level.
    """

    cpu_level: int
    gpu_level: int


class Policy(ABC):
    """A DVFS control policy driven by the episode runner.

    Implementations return ``None`` from a decision hook to leave the
    frequencies untouched at that point (e.g. a governor that only acts once
    per frame, or the hardware-default behaviour between kernel governor
    invocations).
    """

    #: Human-readable policy name used in tables and reports.
    name: str = "policy"

    @abstractmethod
    def begin_frame(self, observation: FrameStartObservation) -> FrequencyDecision | None:
        """Decide frequencies at the start of an image inference."""

    @abstractmethod
    def mid_frame(self, observation: MidFrameObservation) -> FrequencyDecision | None:
        """Decide frequencies after the RPN, when the proposal count is known."""

    def end_frame(self, result: FrameRecord) -> None:
        """Receive the completed frame's record (latency, temperatures)."""

    def reset(self) -> None:
        """Reset any internal state before a new episode."""
