"""Lotus configuration and agent behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.core.agent import LotusAgent
from repro.core.config import LotusConfig
from repro.env.episode import run_episode

from tests.conftest import make_small_environment


def quick_config(**overrides) -> LotusConfig:
    """A configuration small enough for fast unit tests."""
    defaults = dict(
        hidden_dims=(16, 16, 16),
        batch_size=8,
        learning_starts=8,
        replay_capacity=256,
        epsilon_decay_steps=40,
        lr_decay_steps=200,
        seed=0,
    )
    defaults.update(overrides)
    return LotusConfig(**defaults)


def make_agent(config: LotusConfig | None = None) -> LotusAgent:
    return LotusAgent(
        cpu_levels=10,
        gpu_levels=5,
        temperature_threshold_c=80.0,
        proposal_scale=600.0,
        config=config if config is not None else quick_config(),
        rng=np.random.default_rng(0),
    )


# -- configuration ----------------------------------------------------------------


def test_config_defaults_follow_the_paper():
    config = LotusConfig()
    assert len(config.hidden_dims) == 3  # 4-layer MLP (3 hidden + output)
    assert config.widths == (0.75, 1.0)
    assert config.adam_beta1 == 0.9
    assert config.adam_beta2 == 0.99


def test_config_validation():
    with pytest.raises(ConfigurationError):
        LotusConfig(hidden_dims=())
    with pytest.raises(ConfigurationError):
        LotusConfig(reduced_width=0.0)
    with pytest.raises(ConfigurationError):
        LotusConfig(discount=1.0)
    with pytest.raises(ConfigurationError):
        LotusConfig(replay_capacity=8, batch_size=32)
    with pytest.raises(ConfigurationError):
        LotusConfig(learning_starts=8, batch_size=32)
    with pytest.raises(ConfigurationError):
        LotusConfig(epsilon_start=0.1, epsilon_end=0.5)


def test_config_for_episode_length_scales_horizons():
    config = LotusConfig()
    scaled = config.for_episode_length(1000)
    assert scaled.epsilon_decay_steps == int(0.4 * 2000)
    assert scaled.lr_decay_steps == 2000
    single = LotusConfig(single_decision=True).for_episode_length(1000)
    assert single.epsilon_decay_steps == int(0.4 * 1000)
    with pytest.raises(ConfigurationError):
        config.for_episode_length(0)


def test_config_single_decision_uses_full_width():
    config = LotusConfig(single_decision=True, reduced_width=0.75)
    agent = make_agent(quick_config(single_decision=True))
    assert agent.network.widths == (1.0,)
    assert config.widths == (0.75, 1.0)  # widths property is about the slimmable net


# -- agent ------------------------------------------------------------------------------


def test_agent_network_sized_for_action_space():
    agent = make_agent()
    assert agent.action_space.size == 50
    assert agent.network.output_dim == 50
    assert agent.network.input_dim == agent.encoder.dimension


def test_agent_runs_online_and_learns_transitions():
    env = make_small_environment()
    agent = make_agent()
    trace = run_episode(env, agent, num_frames=30)
    assert len(trace) == 30
    # One start-transition per frame (minus the very first pending one) and
    # one mid-transition per frame land in the two buffers.
    assert len(agent.start_buffer) >= 25
    assert len(agent.mid_buffer) >= 25
    assert agent.mid_buffer is not agent.start_buffer
    assert len(agent.reward_history) == 30
    assert len(agent.loss_history) > 0
    assert all(np.isfinite(loss) for loss in agent.loss_history)


def test_agent_epsilon_decays_and_evaluation_disables_exploration():
    env = make_small_environment()
    agent = make_agent()
    initial_epsilon = agent.epsilon
    run_episode(env, agent, num_frames=40)
    assert agent.epsilon < initial_epsilon
    agent.set_training(False)
    assert agent.epsilon == 0.0
    # In evaluation mode no further learning happens.
    losses_before = len(agent.loss_history)
    buffer_before = len(agent.start_buffer)
    run_episode(env, agent, num_frames=5, reset_policy=False)
    assert len(agent.loss_history) == losses_before
    assert len(agent.start_buffer) == buffer_before


def test_agent_shared_buffer_ablation():
    env = make_small_environment()
    agent = make_agent(quick_config(shared_buffer=True))
    run_episode(env, agent, num_frames=20)
    assert agent.mid_buffer is agent.start_buffer
    assert len(agent.start_buffer) >= 30  # both transition kinds in one buffer


def test_agent_single_decision_ablation():
    env = make_small_environment()
    agent = make_agent(quick_config(single_decision=True))
    trace = run_episode(env, agent, num_frames=20)
    # The mid-frame hook never changes the frequency: stage-2 levels always
    # equal stage-1 levels.
    assert all(
        r.gpu_level_stage1 == r.gpu_level_stage2 and r.cpu_level_stage1 == r.cpu_level_stage2
        for r in trace.records
    )
    assert len(agent.start_buffer) >= 15
    assert len(agent.loss_history) > 0


def test_agent_cooldown_engages_when_device_is_hot():
    env = make_small_environment()
    agent = make_agent(quick_config(cooldown_epsilon=1.0, epsilon_start=0.0, epsilon_end=0.0))
    env.reset()
    device = env.fleet.state.device  # the session's live device state
    device.gpu_temperature_c[:] = 88.0
    device.cpu_temperature_c[:] = 70.0
    observation = env.begin_frame()
    decision = agent.begin_frame(observation)
    # The device is over the threshold: the forced cool-down action cannot
    # raise either frequency above the current (max) levels and the trigger
    # counter advances.
    assert decision.cpu_level <= observation.cpu_level
    assert decision.gpu_level <= observation.gpu_level
    assert agent.cooldown.trigger_count == 1


def test_agent_reward_history_tracks_constraint_violations():
    env = make_small_environment(latency_constraint_ms=100.0)  # impossible constraint
    agent = make_agent()
    run_episode(env, agent, num_frames=10)
    violating = np.array(agent.reward_history)
    env2 = make_small_environment(latency_constraint_ms=2000.0)  # trivial constraint
    agent2 = make_agent()
    run_episode(env2, agent2, num_frames=10)
    satisfied = np.array(agent2.reward_history)
    assert satisfied.mean() > violating.mean()
