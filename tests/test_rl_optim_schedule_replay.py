"""The optimizer, schedules and replay buffers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ReplayBufferError
from repro.rl.optimizer import Adam
from repro.rl.replay import ReplayBuffer
from repro.rl.schedule import (
    CosineDecaySchedule,
    LinearDecaySchedule,
    SinusoidalDecaySchedule,
)


# -- optimizer -------------------------------------------------------------------


def quadratic_loss_grad(param: np.ndarray) -> np.ndarray:
    """Gradient of 0.5 * ||param - 3||^2."""
    return param - 3.0


WHOLE = (slice(None),)


def test_adam_minimises_a_quadratic():
    optimizer = Adam(learning_rate=0.1)
    param = np.zeros(4)
    for _ in range(300):
        optimizer.step_sliced([param], [quadratic_loss_grad(param)], [WHOLE])
    assert np.allclose(param, 3.0, atol=0.05)
    assert optimizer.step_count == 300


def test_masked_update_leaves_inactive_entries_untouched():
    """Adam masked to the active region: outside it, neither the parameters
    nor the moments move."""
    param = np.zeros(6)
    region = (slice(0, 3),)
    adam = Adam(learning_rate=0.05)
    for _ in range(100):
        adam.step_sliced([param], [quadratic_loss_grad(param[region])], [region])
    assert np.allclose(param[:3], 3.0, atol=0.2)
    assert np.all(param[3:] == 0.0)
    assert not adam._m_flat[3:].any() and not adam._v_flat[3:].any()


def test_optimizer_validation():
    with pytest.raises(ConfigurationError):
        Adam(learning_rate=0.0)
    with pytest.raises(ConfigurationError):
        Adam(beta2=1.0)
    with pytest.raises(ConfigurationError):
        Adam(epsilon=0.0)
    optimizer = Adam()
    with pytest.raises(ConfigurationError, match="active region shape"):
        optimizer.step_sliced([np.zeros(3)], [np.zeros(4)], [WHOLE])
    with pytest.raises(ConfigurationError, match="active region shape"):
        optimizer.step_sliced([np.zeros(3)], [np.zeros(3)], [(slice(0, 2),)])
    with pytest.raises(ConfigurationError, match="2 regions"):
        optimizer.step_sliced([np.zeros(3)], [np.zeros(3)], [WHOLE, WHOLE])
    assert optimizer.step_count == 0
    adam = Adam()
    with pytest.raises(ConfigurationError):
        adam.set_learning_rate(-1.0)


# -- schedules -------------------------------------------------------------------------


def test_linear_decay():
    schedule = LinearDecaySchedule(initial=1.0, final=0.1, decay_steps=100)
    assert schedule.value(0) == pytest.approx(1.0)
    assert schedule.value(50) == pytest.approx(0.55)
    assert schedule.value(100) == pytest.approx(0.1)
    assert schedule.value(1000) == pytest.approx(0.1)


def test_cosine_decay():
    schedule = CosineDecaySchedule(initial=0.01, decay_steps=1000, final=0.0001)
    assert schedule.value(0) == pytest.approx(0.01)
    assert schedule.value(500) == pytest.approx(0.5 * (0.01 + 0.0001), rel=0.01)
    assert schedule.value(1000) == pytest.approx(0.0001)
    assert schedule.value(5000) == pytest.approx(0.0001)
    # Monotone non-increasing.
    values = [schedule.value(step) for step in range(0, 1001, 50)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_sinusoidal_decay_for_cooldown():
    schedule = SinusoidalDecaySchedule(initial=0.9, decay_triggers=60, final=0.05)
    assert schedule.value(0) == pytest.approx(0.9)
    assert schedule.value(30) == pytest.approx(0.5 * (0.9 + 0.05), rel=0.01)
    assert schedule.value(60) == pytest.approx(0.05)
    assert schedule.value(600) == pytest.approx(0.05)


def test_schedule_validation():
    with pytest.raises(ConfigurationError):
        LinearDecaySchedule(1.0, 0.0, 0)
    with pytest.raises(ConfigurationError):
        CosineDecaySchedule(initial=0.001, decay_steps=10, final=0.01)
    with pytest.raises(ConfigurationError):
        SinusoidalDecaySchedule(initial=1.5, decay_triggers=10)
    with pytest.raises(ConfigurationError):
        LinearDecaySchedule(1.0, 0.0, 10).value(-1)


# -- replay buffer ----------------------------------------------------------------------------


def append_transition(buffer: ReplayBuffer, i: int) -> None:
    buffer.append(
        state=np.array([float(i), 0.0]),
        action=i % 5,
        reward=float(i),
        next_state=np.array([float(i + 1), 0.0]),
        next_width=1.0,
    )


def test_replay_buffer_push_and_sample(rng):
    buffer = ReplayBuffer(capacity=100)
    for i in range(50):
        append_transition(buffer, i)
    assert len(buffer) == 50 < buffer.capacity
    batch = buffer.sample(16, rng)
    assert len(batch) == 16
    assert len(set(batch.rewards.tolist())) == 16  # sampling without replacement
    # Each sampled row keeps its transition's fields together.
    assert np.array_equal(batch.states[:, 0], batch.rewards)
    assert np.array_equal(batch.next_states[:, 0], batch.rewards + 1.0)
    assert np.array_equal(batch.actions, batch.rewards.astype(int) % 5)
    assert buffer.state_dict()["scalar_pairs"][-1, 0] == 49.0  # the latest row


def test_replay_buffer_eviction_keeps_most_recent(rng):
    buffer = ReplayBuffer(capacity=10)
    for i in range(25):
        append_transition(buffer, i)
    assert len(buffer) == 10 == buffer.capacity
    assert buffer.total_pushed == 25
    rewards = set(buffer.sample(10, rng).rewards.tolist())
    assert rewards == {float(i) for i in range(15, 25)}


def test_replay_buffer_errors(rng):
    with pytest.raises(ReplayBufferError):
        ReplayBuffer(0)
    buffer = ReplayBuffer(4)
    with pytest.raises(ReplayBufferError):
        buffer.sample(1, rng)
    append_transition(buffer, 0)
    before = buffer.state_dict()
    with pytest.raises(ReplayBufferError):
        buffer.sample(2, rng)
    with pytest.raises(ReplayBufferError):
        buffer.sample(0, rng)
    with pytest.raises(ReplayBufferError, match="non-negative"):
        buffer.append(np.zeros(2), -1, 0.0, np.zeros(2))
    with pytest.raises(ReplayBufferError, match="1-D vectors"):
        ReplayBuffer(4).append(np.zeros((2, 2)), 0, 0.0, np.zeros((2, 2)))
    with pytest.raises(ReplayBufferError):
        # Dimension mismatch with the buffer's first transition.
        buffer.append(np.zeros(1), 0, 0.0, np.zeros(1))
    # A refused append or sample leaves the ring as it was.
    after = buffer.state_dict()
    assert len(buffer) == 1 and after.keys() == before.keys()
    for key, value in before.items():
        assert np.array_equal(after[key], value), key


@settings(max_examples=30, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=64),
    pushes=st.integers(min_value=0, max_value=200),
)
def test_replay_buffer_never_exceeds_capacity(capacity, pushes):
    buffer = ReplayBuffer(capacity)
    for i in range(pushes):
        append_transition(buffer, i)
    assert len(buffer) == min(capacity, pushes)
    assert buffer.total_pushed == pushes
    assert (len(buffer) == buffer.capacity) == (pushes >= capacity)
