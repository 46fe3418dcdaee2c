"""Episode runner and the policy protocol."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.env.episode import run_episode
from repro.env.policy import FrequencyDecision, Policy
from repro.governors.static import PerformancePolicy, UserspacePolicy

from tests.conftest import make_small_environment


class RecordingPolicy(Policy):
    """Test policy that records every hook invocation."""

    name = "recording"

    def __init__(self):
        self.begin_calls = 0
        self.mid_calls = 0
        self.end_calls = 0
        self.reset_calls = 0
        self.results = []

    def reset(self):
        self.reset_calls += 1

    def begin_frame(self, observation):
        self.begin_calls += 1
        return FrequencyDecision(cpu_level=observation.cpu_num_levels - 1, gpu_level=3)

    def mid_frame(self, observation):
        self.mid_calls += 1
        return None

    def end_frame(self, result):
        self.end_calls += 1
        self.results.append(result.total_latency_ms)


def test_run_episode_drives_policy_hooks():
    env = make_small_environment()
    policy = RecordingPolicy()
    trace = run_episode(env, policy, num_frames=20)
    assert len(trace) == 20
    assert policy.begin_calls == 20
    assert policy.mid_calls == 20
    assert policy.end_calls == 20
    assert policy.reset_calls == 1
    assert policy.results == [r.total_latency_ms for r in trace.records]
    # The begin-frame decision was applied: stage 1 ran at GPU level 3.
    assert all(r.gpu_level_stage1 == 3 for r in trace.records)


def test_run_episode_without_resets_continues_state():
    env = make_small_environment()
    policy = PerformancePolicy()
    run_episode(env, policy, num_frames=5)
    trace = run_episode(env, policy, num_frames=5, reset_environment=False)
    assert trace[0].index == 5


def test_run_episode_progress_callback():
    env = make_small_environment()
    seen = []
    run_episode(
        env,
        UserspacePolicy(9, 3),
        num_frames=5,
        progress_callback=lambda index, trace: seen.append((index, len(trace))),
    )
    assert seen == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]


def test_run_episode_rejects_non_positive_length():
    env = make_small_environment()
    with pytest.raises(ExperimentError):
        run_episode(env, PerformancePolicy(), num_frames=0)


def test_none_decisions_leave_frequencies_untouched():
    class PassivePolicy(Policy):
        name = "passive"

        def begin_frame(self, observation):
            return None

        def mid_frame(self, observation):
            return None

    env = make_small_environment()
    env.apply_levels(4, 2)
    trace = run_episode(env, PassivePolicy(), num_frames=3, reset_environment=False)
    assert all(r.gpu_level_stage1 == 2 for r in trace.records)
    assert all(r.cpu_level_stage1 == 4 for r in trace.records)
