"""Lotus controller facade, online sessions and the zTT baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.ztt import ZttConfig, ZttPolicy
from repro.core.config import LotusConfig
from repro.core.controller import LotusController, build_lotus_agent
from repro.core.training import OnlineSession
from repro.env.episode import run_episode
from repro.governors.static import UserspacePolicy

from tests.conftest import make_small_environment


def quick_lotus_config() -> LotusConfig:
    return LotusConfig(
        hidden_dims=(16, 16, 16),
        batch_size=8,
        learning_starts=8,
        replay_capacity=256,
        epsilon_decay_steps=40,
        seed=0,
    )


def test_build_lotus_agent_matches_environment():
    env = make_small_environment()
    agent = build_lotus_agent(env, config=quick_lotus_config())
    assert agent.action_space.cpu_levels == env.device.cpu.num_levels
    assert agent.action_space.gpu_levels == env.device.gpu.num_levels
    assert agent.temperature_threshold_c == pytest.approx(env.throttle_threshold_c)
    assert agent.encoder.proposal_scale == env.detector.proposal_model.max_proposals


def test_controller_run_and_evaluate():
    env = make_small_environment()
    controller = LotusController(env, config=quick_lotus_config())
    trace = controller.run(25)
    assert len(trace) == 25
    metrics = controller.summarize(trace)
    assert metrics.num_frames == 25
    # Evaluation continues from the current thermal state without learning.
    losses_before = len(controller.agent.loss_history)
    eval_trace = controller.evaluate(5)
    assert len(eval_trace) == 5
    assert len(controller.agent.loss_history) == losses_before
    assert controller.agent.training is True  # restored after evaluation


def test_online_session_result_structure():
    env = make_small_environment()
    session = OnlineSession(env, UserspacePolicy(9, 3))
    result = session.run(20)
    assert result.policy_name.startswith("userspace")
    assert result.metrics.num_frames == 20
    assert result.steady_metrics.num_frames == 10
    assert result.losses == []
    assert result.rewards == []
    lotus_session = OnlineSession(make_small_environment(), build_lotus_agent(
        make_small_environment(), config=quick_lotus_config()
    ))
    lotus_result = lotus_session.run(20)
    assert len(lotus_result.rewards) == 20
    assert len(lotus_result.losses) > 0


# -- zTT baseline ------------------------------------------------------------------


def quick_ztt_config() -> ZttConfig:
    return ZttConfig(
        hidden_dims=(16, 16),
        batch_size=8,
        learning_starts=8,
        replay_capacity=256,
        epsilon_decay_steps=40,
        seed=0,
    )


def test_ztt_acts_once_per_frame():
    env = make_small_environment()
    policy = ZttPolicy(
        cpu_levels=env.device.cpu.num_levels,
        gpu_levels=env.device.gpu.num_levels,
        temperature_threshold_c=env.throttle_threshold_c,
        config=quick_ztt_config(),
        rng=np.random.default_rng(0),
    )
    trace = run_episode(env, policy, num_frames=25)
    # No mid-frame decision: stage-2 always runs at the stage-1 levels.
    assert all(
        r.gpu_level_stage1 == r.gpu_level_stage2 and r.cpu_level_stage1 == r.cpu_level_stage2
        for r in trace.records
    )
    assert len(policy.buffer) >= 20
    assert len(policy.loss_history) > 0
    assert len(policy.reward_history) == 25
    assert policy.epsilon < policy.config.epsilon_start


def test_ztt_evaluation_mode_freezes_learning():
    env = make_small_environment()
    policy = ZttPolicy(10, 5, 80.0, config=quick_ztt_config())
    run_episode(env, policy, num_frames=15)
    policy.set_training(False)
    assert policy.epsilon == 0.0
    losses = len(policy.loss_history)
    run_episode(env, policy, num_frames=5, reset_policy=False)
    assert len(policy.loss_history) == losses


def test_ztt_always_cools_down_when_hot():
    env = make_small_environment()
    policy = ZttPolicy(10, 5, 80.0, config=quick_ztt_config(), rng=np.random.default_rng(1))
    env.reset()
    env.fleet.state.device.gpu_temperature_c[:] = 88.0  # the session's live state
    observation = env.begin_frame()
    decision = policy.begin_frame(observation)
    assert decision.gpu_level <= observation.gpu_level
    assert decision.cpu_level <= observation.cpu_level
    assert policy.cooldown.trigger_count == 1


def test_ztt_config_scaling_and_validation():
    config = ZttConfig().for_episode_length(1000)
    assert config.epsilon_decay_steps == 400
    with pytest.raises(Exception):
        ZttConfig(discount=1.5)
    with pytest.raises(Exception):
        ZttConfig(replay_capacity=4, batch_size=32)
