"""Lotus controller facade.

Most users of the library do not want to assemble the action space, state
encoder, Q-network and replay buffers by hand — they have an
:class:`~repro.env.environment.InferenceEnvironment` (or a device plus a
detector plus a workload) and want Lotus to manage it.
:class:`LotusController` builds a correctly parameterised
:class:`~repro.core.agent.LotusAgent` from the environment and exposes the
online management loop and an exploration-free evaluation mode.
"""

from __future__ import annotations

import numpy as np

from repro.core.agent import LotusAgent
from repro.core.config import LotusConfig
from repro.detection.fleet import proposal_scale
from repro.env.environment import InferenceEnvironment
from repro.env.episode import ProgressCallback, run_episode
from repro.env.metrics import EpisodeMetrics, summarize_trace
from repro.env.trace import Trace


def build_lotus_agent(
    environment: InferenceEnvironment,
    config: LotusConfig | None = None,
    rng: np.random.Generator | None = None,
) -> LotusAgent:
    """Build a :class:`LotusAgent` sized for ``environment``.

    The action space is taken from the device's frequency tables, the
    temperature normalisation from the environment's throttling threshold,
    and the proposal normalisation from the detector's post-NMS cap.
    """
    return LotusAgent(
        cpu_levels=environment.device.cpu.num_levels,
        gpu_levels=environment.device.gpu.num_levels,
        temperature_threshold_c=environment.throttle_threshold_c,
        proposal_scale=proposal_scale(environment.detector),
        config=config,
        rng=rng,
    )


class LotusController:
    """Online thermal / latency-variation management of one environment.

    Args:
        environment: The inference environment to manage.
        config: Agent hyper-parameters (defaults to :class:`LotusConfig`).
        rng: Random generator for the agent.
    """

    def __init__(
        self,
        environment: InferenceEnvironment,
        config: LotusConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.environment = environment
        self.agent = build_lotus_agent(environment, config, rng)

    def run(
        self,
        num_frames: int,
        reset_environment: bool = True,
        progress_callback: ProgressCallback | None = None,
    ) -> Trace:
        """Run online management (learning enabled) for ``num_frames`` frames."""
        self.agent.set_training(True)
        return run_episode(
            self.environment,
            self.agent,
            num_frames,
            reset_environment=reset_environment,
            progress_callback=progress_callback,
        )

    def evaluate(
        self,
        num_frames: int,
        reset_environment: bool = False,
    ) -> Trace:
        """Run the learned policy without exploration or further learning.

        By default the device state is *not* reset, matching the deployment
        scenario where evaluation continues from the thermal state reached
        during online learning.
        """
        was_training = self.agent.training
        self.agent.set_training(False)
        try:
            trace = run_episode(
                self.environment,
                self.agent,
                num_frames,
                reset_environment=reset_environment,
                reset_policy=False,
            )
        finally:
            self.agent.set_training(was_training)
        return trace

    def summarize(self, trace: Trace) -> EpisodeMetrics:
        """Convenience wrapper around :func:`summarize_trace`."""
        return summarize_trace(trace)
