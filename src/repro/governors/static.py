"""Static policies: ``performance``, ``powersave`` and ``userspace``.

These are not used as paper baselines but are essential tooling: the
profiling experiments (Fig. 1, Fig. 2, the §4.2 stage split) are all run "at
fixed frequency", which is exactly what :class:`UserspacePolicy` /
:class:`PerformancePolicy` provide.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.env.environment import FrameStartObservation, MidFrameObservation
from repro.env.policy import FrequencyDecision, Policy
from repro.env.trace import FrameRecord


class UserspacePolicy(Policy):
    """Pin the CPU and GPU to fixed, user-chosen frequency levels."""

    def __init__(self, cpu_level: int, gpu_level: int):
        if cpu_level < 0 or gpu_level < 0:
            raise ConfigurationError("frequency levels must be non-negative")
        self.cpu_level = cpu_level
        self.gpu_level = gpu_level
        self.name = f"userspace(cpu={cpu_level},gpu={gpu_level})"

    def _decision(self, cpu_num_levels: int, gpu_num_levels: int) -> FrequencyDecision:
        return FrequencyDecision(
            cpu_level=min(self.cpu_level, cpu_num_levels - 1),
            gpu_level=min(self.gpu_level, gpu_num_levels - 1),
        )

    def begin_frame(self, observation: FrameStartObservation) -> FrequencyDecision:
        return self._decision(observation.cpu_num_levels, observation.gpu_num_levels)

    def mid_frame(self, observation: MidFrameObservation) -> FrequencyDecision:
        return self._decision(observation.cpu_num_levels, observation.gpu_num_levels)

    def end_frame(self, result: FrameRecord) -> None:
        return None


class PerformancePolicy(Policy):
    """Always request the maximum CPU and GPU operating points."""

    name = "performance"

    def begin_frame(self, observation: FrameStartObservation) -> FrequencyDecision:
        return FrequencyDecision(
            cpu_level=observation.cpu_num_levels - 1,
            gpu_level=observation.gpu_num_levels - 1,
        )

    def mid_frame(self, observation: MidFrameObservation) -> FrequencyDecision:
        return FrequencyDecision(
            cpu_level=observation.cpu_num_levels - 1,
            gpu_level=observation.gpu_num_levels - 1,
        )

    def end_frame(self, result: FrameRecord) -> None:
        return None


class PowersavePolicy(Policy):
    """Always request the minimum CPU and GPU operating points."""

    name = "powersave"

    def begin_frame(self, observation: FrameStartObservation) -> FrequencyDecision:
        return FrequencyDecision(cpu_level=0, gpu_level=0)

    def mid_frame(self, observation: MidFrameObservation) -> FrequencyDecision:
        return FrequencyDecision(cpu_level=0, gpu_level=0)

    def end_frame(self, result: FrameRecord) -> None:
        return None
