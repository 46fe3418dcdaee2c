"""Generic DQN learner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AgentError
from repro.rl.dqn import DqnConfig, DqnLearner
from repro.rl.optimizer import Adam
from repro.rl.replay import TransitionBatch
from repro.rl.schedule import CosineDecaySchedule
from repro.rl.slimmable import SlimmableMLP


def make_learner(num_actions: int = 4, **config_kwargs) -> DqnLearner:
    network = SlimmableMLP(
        input_dim=3,
        hidden_dims=(24, 24),
        output_dim=num_actions,
        widths=(0.75, 1.0),
        rng=np.random.default_rng(0),
    )
    return DqnLearner(
        network=network,
        config=DqnConfig(batch_size=8, target_sync_interval=20, **config_kwargs),
        optimizer=Adam(learning_rate=0.01),
        learning_rate_schedule=CosineDecaySchedule(initial=0.01, decay_steps=500),
    )


def make_batch(
    states, actions, rewards, next_states, next_widths=1.0
) -> TransitionBatch:
    """A column batch; scalars and single rows broadcast over the actions."""
    actions = np.asarray(actions, dtype=np.intp)
    rows = len(actions)
    return TransitionBatch(
        states=np.array(np.broadcast_to(states, (rows, 3)), dtype=float),
        actions=actions,
        rewards=np.array(np.broadcast_to(rewards, rows), dtype=float),
        next_states=np.array(np.broadcast_to(next_states, (rows, 3)), dtype=float),
        next_widths=np.array(np.broadcast_to(next_widths, rows), dtype=float),
    )


def test_config_validation():
    with pytest.raises(AgentError):
        DqnConfig(discount=1.0)
    with pytest.raises(AgentError):
        DqnConfig(batch_size=0)
    with pytest.raises(AgentError):
        DqnConfig(huber_delta=0.0)
    with pytest.raises(AgentError):
        DqnConfig(max_grad_norm=-1.0)


def test_action_selection(rng):
    learner = make_learner()
    state = np.array([0.1, 0.2, 0.3])
    greedy = learner.greedy_action(state)
    assert 0 <= greedy < 4
    assert learner.select_action(state, epsilon=0.0, rng=rng) == greedy
    random_actions = {learner.select_action(state, epsilon=1.0, rng=rng) for _ in range(50)}
    assert len(random_actions) > 1
    with pytest.raises(AgentError):
        learner.select_action(state, epsilon=1.5, rng=rng)
    assert learner.q_values(state).shape == (4,)


def test_training_converges_on_a_contextual_bandit(rng):
    """The best action depends on the state sign; DQN must learn the mapping."""
    learner = make_learner(num_actions=2, discount=0.0)

    def bandit_batch():
        states, actions, rewards = [], [], []
        for _ in range(8):
            sign = 1.0 if rng.random() < 0.5 else -1.0
            action = int(rng.integers(2))
            optimal = 0 if sign > 0 else 1
            states.append([sign, 0.0, 0.0])
            actions.append(action)
            rewards.append(1.0 if action == optimal else -1.0)
        return make_batch(states, actions, rewards, states)

    for _ in range(400):
        learner.train_batch(bandit_batch(), width=1.0)

    assert learner.greedy_action(np.array([1.0, 0.0, 0.0])) == 0
    assert learner.greedy_action(np.array([-1.0, 0.0, 0.0])) == 1
    assert learner.train_steps == 400


def test_training_reduces_td_loss(rng):
    learner = make_learner(num_actions=3, discount=0.5)
    actions = np.arange(8) % 3
    transitions = make_batch([0.5, -0.2, 0.1], actions, actions, [0.1, 0.1, 0.1])
    first_loss = learner.train_batch(transitions, width=1.0)
    for _ in range(200):
        last_loss = learner.train_batch(transitions, width=1.0)
    assert last_loss < first_loss


def test_reduced_width_training_does_not_touch_inactive_weights():
    learner = make_learner()
    network = learner.network
    inactive_before = network.weights[1][18:, :].copy()
    states = [[0.1 * i, 0.0, 0.0] for i in range(8)]
    transitions = make_batch(states, np.arange(8) % 4, 1.0, [0.0, 0.0, 0.0], 1.0)
    for _ in range(20):
        learner.train_batch(transitions, width=0.75)
    assert np.allclose(network.weights[1][18:, :], inactive_before)
    # The active slice did change.
    assert not np.allclose(network.weights[1][:18, :18], 0.0)


def test_mixed_next_widths_are_supported():
    learner = make_learner()
    next_widths = [0.75 if i % 2 == 0 else 1.0 for i in range(8)]
    transitions = make_batch(
        [0.1, 0.2, 0.3], np.zeros(8), 1.0, [0.3, 0.2, 0.1], next_widths
    )
    loss = learner.train_batch(transitions, width=1.0)
    assert np.isfinite(loss)


def test_target_network_sync_interval():
    learner = make_learner()
    transitions = make_batch([0.5, 0.5, 0.5], np.ones(8), 2.0, [0.5, 0.5, 0.5])
    state = np.array([0.5, 0.5, 0.5])
    target_before = learner.target_network.predict(state).copy()
    for _ in range(19):
        learner.train_batch(transitions, width=1.0)
    # Not yet synced (sync interval is 20).
    assert np.allclose(learner.target_network.predict(state), target_before)
    learner.train_batch(transitions, width=1.0)
    assert not np.allclose(learner.target_network.predict(state), target_before)
    # Manual sync copies the online parameters exactly.
    learner.sync_target()
    assert np.allclose(
        learner.target_network.predict(state), learner.network.predict(state)
    )


def test_empty_batch_rejected():
    learner = make_learner()
    with pytest.raises(AgentError, match="empty batch"):
        learner.train_batch(make_batch(np.zeros(3), [], [], np.zeros(3)), width=1.0)


def test_network_without_a_flat_parameter_buffer_is_refused():
    """The learner keeps its online and target networks in one pair buffer,
    so a network it cannot rebase into one is refused up front."""

    class PlainNetwork:
        input_dim, output_dim = 3, 4

        def clone(self):
            return PlainNetwork()

    with pytest.raises(AgentError, match="PlainNetwork has no flat parameter buffer"):
        DqnLearner(network=PlainNetwork())
    network = make_learner().network
    with pytest.raises(AgentError, match="already owned"):
        DqnLearner(network=network)
