"""The default-governed fleet frame against the frame protocol.

A group driven by exactly :class:`BatchedDefaultGovernorPolicy` may run
its frame without the policy's protocol calls; every other policy is
driven through them.  These tests force the protocol path with a policy
that delegates each call to the governor pair (the frame loop cannot tell
it is a default governor) and compare the two paths bit for bit: on every
pinned governed cell, and through a refusal forced at each step of the
frame, where the error, the environment's phase and state, the trace and
the kernel-call counts must all be the protocol path's.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro import obs
from repro.detection.fleet import BatchedExecutionModel
from repro.env.fleet import (
    BatchedInferenceEnvironment,
    FleetPolicy,
    FleetTrace,
    run_fleet_episode,
)
from repro.errors import DetectorError
from repro.governors.fleet import BatchedDefaultGovernorPolicy
from repro.hardware.fleet import DeviceFleet
from repro.kernels import FAMILIES, fused_fleet, fused_random, resolve
from repro.kernels.build import GOVERNED_STEPS
from repro.kernels.fleet import FleetKernels

from tests.test_fleet_equivalence import (
    PINNED_GOVERNED_FLEET_DIGESTS,
    _fleet_trace_digest,
    governed_cell,
)


class _Delegating(FleetPolicy):
    """Every protocol call forwarded to ``inner``."""

    def __init__(self, inner: FleetPolicy):
        self.inner = inner
        self.name = inner.name

    def begin_frame(self, observation):
        return self.inner.begin_frame(observation)

    def mid_frame(self, observation):
        return self.inner.mid_frame(observation)

    def end_frame(self, result):
        self.inner.end_frame(result)

    def reset(self):
        self.inner.reset()


class _CountingGovernors(BatchedDefaultGovernorPolicy):
    """A default governor pair that counts its start decisions."""

    calls = 0

    def begin_frame(self, observation):
        self.calls += 1
        return super().begin_frame(observation)


def _require_fused() -> None:
    if fused_fleet() is None:
        pytest.skip("fused kernels unavailable on this host")
    # Resolved before any run counts kernel calls: a self-test runs them.
    fused_random()


@pytest.fixture(params=("fused", "numpy"))
def kernels(request, monkeypatch):
    if request.param == "numpy":
        monkeypatch.setattr(resolve, "_kernels", dict.fromkeys(FAMILIES))
    else:
        _require_fused()
    return request.param


@pytest.fixture
def governed_frames(monkeypatch) -> list:
    """The step each ``fleet_governed_frame`` call reached, in call order."""
    fused_fleet()  # resolved first: the fleet self-test runs governed frames
    reached = []
    run = FleetKernels.fleet_governed_frame
    monkeypatch.setattr(
        FleetKernels, "fleet_governed_frame",
        lambda self, table: reached.append(run(self, table)) or reached[-1],
    )
    return reached


def _environment_state(environment) -> dict:
    """Everything an environment holds between and inside frames."""
    state = environment.state
    arrays = (
        state.cpu_utilisation, state.gpu_utilisation, state.constraint_ms,
        state.image_scale, state.scene_candidates, state.num_proposals,
        state.stage1_latency_ms, state.frame_energy_j, environment._previous_latency,
        environment._stage2_latency, environment._stage1_levels,
        environment._stage1_throttled,
    )
    blocks = (environment._start_blocks, environment._mid_blocks, environment._result_blocks)
    return {
        "phase": environment._phase.value,
        "frame": environment._frame_index,
        "datasets": state.datasets,
        "previous": state.previous_latency_ms is None,
        "device": state.device.state_dict(),
        "stream": environment._stream.state_dict(),
        "rngs": [rng.bit_generator.state for rng in state.rngs],
        "arrays": [array.copy() for array in arrays],
        "blocks": [block.copy() for phase in blocks for block in phase],
    }


def _kernel_calls(registry) -> dict:
    return {
        dict(labels)["kernel"]: count
        for (name, labels), count in registry.counters.items()
        if name == "fused.kernel_calls"
    }


def _run(cell: str, protocol: bool, force=None, frames: int | None = None) -> tuple:
    """One run of ``cell``: ``force(environment)`` runs after the first
    three frames, then the episode continues.  Returns the error message
    (or ``None``), the environment's state, the trace digest and the
    kernel-call counts."""
    environment, policy, cell_frames = governed_cell(cell)
    frames = cell_frames if frames is None else frames
    if protocol:
        policy = _Delegating(policy)
    sink = FleetTrace(environment.num_sessions)
    registry = obs.enable()
    error = None
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            if force is None:
                run_fleet_episode(environment, policy, frames, sink=sink)
            else:
                run_fleet_episode(environment, policy, 3, sink=sink)
                force(environment)
                run_fleet_episode(
                    environment, policy, frames - 3, reset_environment=False,
                    reset_policy=False, sink=sink,
                )
    except DetectorError as exc:
        error = f"{type(exc).__name__}: {exc}"
    finally:
        obs.disable()
    return error, _environment_state(environment), _fleet_trace_digest(sink), _kernel_calls(
        registry
    )


def _assert_same_run(governed: tuple, protocol: tuple) -> None:
    error, state, digest, calls = governed
    assert error == protocol[0]
    assert resolve.same_bits(state, protocol[1])
    assert digest == protocol[2]
    assert calls == protocol[3]


@pytest.mark.parametrize("cell", sorted(PINNED_GOVERNED_FLEET_DIGESTS))
def test_governed_frame_matches_the_protocol_path(cell, governed_frames):
    # Without the fleet kernels both runs take the protocol path; the pins
    # hold on both (test_governed_fleet_trace_matches_pinned_digest).
    _require_fused()
    governed = _run(cell, protocol=False)
    assert governed[0] is None
    # Every frame ran whole in one call, and the protocol run makes none.
    assert governed_frames and set(governed_frames) == {len(GOVERNED_STEPS)}
    calls = len(governed_frames)
    _assert_same_run(governed, _run(cell, protocol=True))
    assert len(governed_frames) == calls


def test_a_subclass_overriding_begin_frame_takes_the_protocol_path(kernels):
    environment, policy, frames = governed_cell("mi11-lite")
    counting = _CountingGovernors(policy.cpu_governor, policy.gpu_governor)
    trace = run_fleet_episode(environment, counting, frames)
    assert counting.calls == frames
    assert _fleet_trace_digest(trace) == PINNED_GOVERNED_FLEET_DIGESTS["mi11-lite"]


def _nan_cpu_utilisation(environment) -> None:
    """The next start decision sees a NaN CPU utilisation in session 0."""
    environment.state.cpu_utilisation[0] = math.nan


def _nan_host_activity(environment) -> None:
    """Every stage from now on reports a NaN CPU utilisation (a NaN host
    activity, which the profile's own check would refuse)."""
    profile = dataclasses.replace(environment.execution.profile)
    object.__setattr__(profile, "host_activity", math.nan)
    environment.execution = BatchedExecutionModel(profile)
    environment._fused = None  # the frame's table holds the profile's constants


def _zero_cpu_frequencies(environment) -> None:
    """Every CPU level runs at 0 kHz: stage 1 is refused."""
    environment.state.device.cpu.frequency_khz[:] = 0.0


def _zero_second_stage_frequency(environment) -> None:
    """CPU level 5 runs at 0 kHz: in the domain-switch cell's next frame
    the one session runs stage 1 at level 6 and its mid decision picks
    level 5, so stage 2 is refused."""
    environment.state.device.cpu.frequency_khz[5] = 0.0


#: Each forced refusal: the step of the governed frame it stops at, the
#: cell it runs on, and the error the frame ends with.
_REFUSALS = {
    "start-decision": (_nan_cpu_utilisation, "jetson-orin-nano", None),
    "first-stage": (_zero_cpu_frequencies, "one-stage", "frequencies must be positive"),
    "mid-decision": (_nan_host_activity, "raspberry-pi-5", None),
    "second-stage": (
        _zero_second_stage_frequency, "domain-switch", "frequencies must be positive"
    ),
}


@pytest.mark.parametrize("refusal", sorted(_REFUSALS))
def test_a_refused_step_ends_the_frame_as_the_protocol_path(refusal, kernels, governed_frames):
    force, cell, message = _REFUSALS[refusal]
    governed = _run(cell, protocol=False, force=force)
    if kernels == "fused":
        # The kernel stopped at the refused step, in the fourth frame.
        assert governed_frames[3] == GOVERNED_STEPS.index(refusal.replace("-", "_"))
    else:
        assert not governed_frames
    protocol = _run(cell, protocol=True, force=force)
    _assert_same_run(governed, protocol)
    if message is None:
        assert governed[0] is None
    else:
        assert governed[0] == f"DetectorError: {message}"
        assert governed[1]["frame"] == 3


def test_a_governed_group_makes_no_protocol_call(monkeypatch):
    _require_fused()

    def refuse(self, *arguments):
        raise AssertionError("a protocol call on a governed frame")

    for owner, names in (
        (BatchedDefaultGovernorPolicy, ("begin_frame", "mid_frame", "end_frame")),
        (
            BatchedInferenceEnvironment,
            ("begin_frame", "run_first_stage", "run_second_stage", "apply_decision"),
        ),
        (DeviceFleet, ("request_levels", "execute")),
    ):
        for name in names:
            monkeypatch.setattr(owner, name, refuse)
    environment, policy, frames = governed_cell("wide")
    trace = run_fleet_episode(environment, policy, frames)
    assert _fleet_trace_digest(trace) == PINNED_GOVERNED_FLEET_DIGESTS["wide"]
