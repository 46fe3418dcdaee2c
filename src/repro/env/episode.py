"""Episode runner.

Runs a policy against an :class:`InferenceEnvironment` for a number of
frames and records the resulting trace.  This is the single loop shared by
all experiments: the only thing that differs between a "default governor"
row and a "Lotus" row of the paper's tables is the policy object passed in.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ExperimentError
from repro.env.environment import InferenceEnvironment
from repro.env.policy import Policy
from repro.env.trace import Trace

ProgressCallback = Callable[[int, Trace], None]


def run_episode(
    environment: InferenceEnvironment,
    policy: Policy,
    num_frames: int,
    reset_environment: bool = True,
    reset_policy: bool = True,
    progress_callback: ProgressCallback | None = None,
) -> Trace:
    """Run ``policy`` on ``environment`` for ``num_frames`` frames.

    Args:
        environment: The inference environment to drive.
        policy: The DVFS policy under evaluation.
        num_frames: Number of image frames to process.
        reset_environment: Reset the device to a cold state first (the
            paper's episodes start from a cold device).
        reset_policy: Reset the policy's internal state first.
        progress_callback: Optional callable invoked after every frame with
            the frame index and the trace so far (used by long-running
            examples to report progress).

    Returns:
        The :class:`Trace` of all processed frames.
    """
    if num_frames <= 0:
        raise ExperimentError("num_frames must be positive")
    if reset_environment:
        environment.reset()
    if reset_policy:
        policy.reset()

    trace = Trace()
    for _ in range(num_frames):
        start_observation = environment.begin_frame()
        decision = policy.begin_frame(start_observation)
        if decision is not None:
            environment.apply_levels(decision.cpu_level, decision.gpu_level)

        mid_observation = environment.run_first_stage()
        decision = policy.mid_frame(mid_observation)
        if decision is not None:
            environment.apply_levels(decision.cpu_level, decision.gpu_level)

        result = environment.run_second_stage()
        policy.end_frame(result)
        trace.append(result)
        if progress_callback is not None:
            progress_callback(result.index, trace)
    return trace
