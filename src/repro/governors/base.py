"""Governor base classes and the combined default-governor policy.

Real systems run one governor per frequency domain — the CPU governor lives
in cpufreq, the GPU governor in devfreq — and each reacts only to its own
domain's utilisation.  :class:`DefaultGovernorPolicy` reproduces that
structure: a :class:`CpuGovernor` and a :class:`GpuGovernor` are invoked at
every decision point with the most recent utilisation sample, with no
knowledge of the application, the latency constraint or each other.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.env.environment import FrameStartObservation, MidFrameObservation
from repro.env.policy import FrequencyDecision, Policy
from repro.env.trace import FrameRecord


class CpuGovernor(ABC):
    """A cpufreq-style governor: utilisation in, frequency level out."""

    name: str = "cpu-governor"

    @abstractmethod
    def select_level(self, utilisation: float, current_level: int, num_levels: int) -> int:
        """Select a CPU frequency level from the observed utilisation."""

    def reset(self) -> None:
        """Clear any internal state (rate limits, sampling history)."""


class GpuGovernor(ABC):
    """A devfreq-style governor: utilisation in, frequency level out."""

    name: str = "gpu-governor"

    @abstractmethod
    def select_level(self, utilisation: float, current_level: int, num_levels: int) -> int:
        """Select a GPU frequency level from the observed utilisation."""

    def reset(self) -> None:
        """Clear any internal state."""


class DefaultGovernorPolicy(Policy):
    """The stock operating-system behaviour: independent CPU & GPU governors.

    The governors are sampled at both per-frame decision points (real
    governors run on a timer a few tens of milliseconds long, so they get
    many chances per frame; two samples per frame is the granularity of this
    simulation).  They see only utilisation — not temperature, not the
    latency constraint, not the proposal count — so under a sustained
    detector workload they drive both domains to their top operating points
    and eventually run into hardware thermal throttling.
    """

    def __init__(self, cpu_governor: CpuGovernor, gpu_governor: GpuGovernor):
        self.cpu_governor = cpu_governor
        self.gpu_governor = gpu_governor
        self.name = f"default({cpu_governor.name}+{gpu_governor.name})"

    def reset(self) -> None:
        self.cpu_governor.reset()
        self.gpu_governor.reset()

    def _decide(
        self,
        cpu_utilisation: float,
        gpu_utilisation: float,
        cpu_level: int,
        gpu_level: int,
        cpu_num_levels: int,
        gpu_num_levels: int,
    ) -> FrequencyDecision:
        next_cpu = self.cpu_governor.select_level(cpu_utilisation, cpu_level, cpu_num_levels)
        next_gpu = self.gpu_governor.select_level(gpu_utilisation, gpu_level, gpu_num_levels)
        return FrequencyDecision(cpu_level=next_cpu, gpu_level=next_gpu)

    def begin_frame(self, observation: FrameStartObservation) -> FrequencyDecision:
        return self._decide(
            observation.cpu_utilisation,
            observation.gpu_utilisation,
            observation.cpu_level,
            observation.gpu_level,
            observation.cpu_num_levels,
            observation.gpu_num_levels,
        )

    def mid_frame(self, observation: MidFrameObservation) -> FrequencyDecision:
        return self._decide(
            observation.cpu_utilisation,
            observation.gpu_utilisation,
            observation.cpu_level,
            observation.gpu_level,
            observation.cpu_num_levels,
            observation.gpu_num_levels,
        )

    def end_frame(self, result: FrameRecord) -> None:
        # Default governors are application-agnostic: the frame outcome
        # (latency, constraint satisfaction) is deliberately ignored.
        return None
