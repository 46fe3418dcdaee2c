"""Seed-for-seed equivalence of the vectorized RL hot path.

The PR that introduced the ring-buffer replay, sliced-gradient backward,
flat-parameter optimizer and fused kernels came with a hard guarantee:
same seeds => exactly the same losses, rewards, greedy actions and traces
as the pre-refactor implementation.  These tests enforce it against the
frozen seed code in :mod:`repro.rl.legacy` (deque replay, mask-padded
gradients, fancy-indexed Adam).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import (
    ExperimentSetting,
    make_environment,
    make_policy,
)
from repro.core.training import OnlineSession
from repro.rl.legacy import (
    LegacyDqnLearner,
    LegacyReplayBuffer,
    LegacySlimmableMLP,
    use_legacy_rl_path,
)
from repro.rl.dqn import DqnConfig, DqnLearner
from repro.rl.optimizer import Adam
from repro.rl.replay import ReplayBuffer, Transition
from repro.rl.slimmable import SlimmableMLP


def _run_session(method: str, legacy: bool, frames: int = 220):
    setting = ExperimentSetting(num_frames=frames, seed=0)
    environment = make_environment(setting)
    policy = make_policy(method, environment, frames, seed=setting.seed)
    if legacy:
        use_legacy_rl_path(policy)
    return OnlineSession(environment, policy).run(frames)


@pytest.mark.parametrize("method", ["lotus", "ztt"])
def test_full_session_is_bit_identical_to_seed_implementation(method):
    current = _run_session(method, legacy=False)
    seed = _run_session(method, legacy=True)
    # Losses and rewards: exact float equality, not allclose.
    assert current.losses == seed.losses
    assert current.rewards == seed.rewards
    # Every frequency decision and resulting latency matches frame by frame.
    for ours, theirs in zip(current.trace.records, seed.trace.records):
        assert ours.cpu_level_stage1 == theirs.cpu_level_stage1
        assert ours.gpu_level_stage1 == theirs.gpu_level_stage1
        assert ours.cpu_level_stage2 == theirs.cpu_level_stage2
        assert ours.gpu_level_stage2 == theirs.gpu_level_stage2
        assert ours.total_latency_ms == theirs.total_latency_ms


def _make_learner_pair():
    """Current and legacy learners with identical weights and hyper-params."""
    current = DqnLearner(
        network=SlimmableMLP(
            5, (16, 16), 6, widths=(0.75, 1.0), rng=np.random.default_rng(3)
        ),
        config=DqnConfig(batch_size=16, target_sync_interval=7),
        optimizer=Adam(learning_rate=0.01),
    )
    legacy = LegacyDqnLearner(
        network=LegacySlimmableMLP(
            5, (16, 16), 6, widths=(0.75, 1.0), rng=np.random.default_rng(3)
        ),
        config=DqnConfig(batch_size=16, target_sync_interval=7),
        optimizer=Adam(learning_rate=0.01),
    )
    return current, legacy


def test_learner_losses_and_greedy_actions_match_seed_step_for_step():
    current, legacy = _make_learner_pair()
    buffer = ReplayBuffer(256)
    legacy_buffer = LegacyReplayBuffer(256)
    fill_rng = np.random.default_rng(11)
    for _ in range(256):
        state = fill_rng.normal(size=5)
        next_state = fill_rng.normal(size=5)
        action = int(fill_rng.integers(6))
        reward = float(fill_rng.normal())
        next_width = 1.0 if fill_rng.random() < 0.5 else 0.75
        buffer.append(state, action, reward, next_state, next_width)
        legacy_buffer.append(state, action, reward, next_state, next_width)

    rng_a = np.random.default_rng(42)
    rng_b = np.random.default_rng(42)
    probe_rng = np.random.default_rng(7)
    for step in range(60):
        width = 0.75 if step % 2 == 0 else 1.0
        loss_a = current.train_batch(buffer.sample(16, rng_a), width=width)
        loss_b = legacy.train_batch(legacy_buffer.sample(16, rng_b), width=width)
        assert loss_a == loss_b, f"loss diverged at step {step}"
        probe = probe_rng.normal(size=5)
        assert current.greedy_action(probe, width) == legacy.greedy_action(probe, width)
    # Final parameters are bit-identical too.
    for ours, theirs in zip(current.network.get_state(), legacy.network.get_state()):
        assert np.array_equal(ours, theirs)


def test_replay_sampling_consumes_rng_identically():
    """Same seed => the ring buffer returns the same rows as the seed deque."""
    buffer = ReplayBuffer(64)
    legacy_buffer = LegacyReplayBuffer(64)
    for i in range(150):  # wraps the ring / evicts from the deque
        t = Transition(
            state=np.array([float(i), 1.0]),
            action=i % 4,
            reward=float(i),
            next_state=np.array([float(i + 1), 1.0]),
            next_width=0.75 if i % 3 == 0 else 1.0,
        )
        buffer.push(t)
        legacy_buffer.push(t)
    rng_a = np.random.default_rng(5)
    rng_b = np.random.default_rng(5)
    for _ in range(20):
        batch = buffer.sample(10, rng_a)
        legacy_batch = legacy_buffer.sample(10, rng_b)
        for row, legacy_t in zip(batch, legacy_batch):
            assert np.array_equal(row.state, legacy_t.state)
            assert row.action == legacy_t.action
            assert row.reward == legacy_t.reward
            assert np.array_equal(row.next_state, legacy_t.next_state)
            assert row.next_width == legacy_t.next_width


def test_backward_sliced_matches_finite_differences_at_reduced_width():
    """Gradient check of the sliced fast path at width 0.75 (satellite)."""
    net = SlimmableMLP(7, (16, 16, 16), 10, widths=(0.75, 1.0),
                       rng=np.random.default_rng(0))
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 7))
    grad_out = rng.normal(size=(3, 10))
    width = 0.75

    def loss_fn() -> float:
        return float(np.sum(net.predict(x, width) * grad_out))

    _, cache = net.forward(x, width)
    weight_grads, bias_grads, extents = net.backward_sliced(cache, grad_out)
    active = net.active_units_for_width(width)
    eps = 1e-6
    for layer in range(net.num_layers):
        in_active, out_active = extents[layer]
        assert (in_active, out_active) == (active[layer], active[layer + 1])
        assert weight_grads[layer].shape == (in_active, out_active)
        assert bias_grads[layer].shape == (out_active,)
        # Spot-check entries inside the active rectangle.
        for index in [(0, 0), (in_active - 1, out_active - 1)]:
            original = net.weights[layer][index]
            net.weights[layer][index] = original + eps
            loss_plus = loss_fn()
            net.weights[layer][index] = original - eps
            loss_minus = loss_fn()
            net.weights[layer][index] = original
            numeric = (loss_plus - loss_minus) / (2 * eps)
            assert numeric == pytest.approx(
                weight_grads[layer][index], rel=1e-3, abs=1e-4
            )
        original = net.biases[layer][0]
        net.biases[layer][0] = original + eps
        loss_plus = loss_fn()
        net.biases[layer][0] = original - eps
        loss_minus = loss_fn()
        net.biases[layer][0] = original
        numeric = (loss_plus - loss_minus) / (2 * eps)
        assert numeric == pytest.approx(bias_grads[layer][0], rel=1e-3, abs=1e-4)


def test_backward_sliced_agrees_with_mask_padded_backward():
    net = SlimmableMLP(6, (12, 12), 4, rng=np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(5, 6))
    grad_out = np.random.default_rng(3).normal(size=(5, 4))
    for width in (0.75, 1.0):
        _, cache = net.forward(x, width)
        sliced_w, sliced_b, extents = net.backward_sliced(cache, grad_out)
        full_w, full_b, masks_w, masks_b = net.backward(cache, grad_out)
        for layer, (in_active, out_active) in enumerate(extents):
            assert np.array_equal(
                full_w[layer][:in_active, :out_active], sliced_w[layer]
            )
            assert np.array_equal(full_b[layer][:out_active], sliced_b[layer])
            assert not full_w[layer][in_active:, :].any()
            assert not full_w[layer][:, out_active:].any()
            assert masks_w[layer][:in_active, :out_active].all()


def test_masked_only_optimizer_still_trains_through_the_learner():
    """A custom Optimizer overriding only the historical step() interface
    must keep working: the learner pads the sliced gradients back to
    full shape with masks for it."""
    from repro.rl.optimizer import Optimizer

    class MaskedSgd(Optimizer):
        def __init__(self):
            super().__init__(learning_rate=0.05)
            self.mask_calls = 0

        def step(self, parameters, gradients, masks=None):
            self.step_count += 1
            self.mask_calls += 1
            assert masks is not None
            for param, grad, mask in zip(parameters, gradients, masks):
                assert param.shape == grad.shape == mask.shape
                param[mask] -= self.learning_rate * grad[mask]

    optimizer = MaskedSgd()
    learner = DqnLearner(
        network=SlimmableMLP(4, (8, 8), 3, rng=np.random.default_rng(5)),
        config=DqnConfig(batch_size=8),
        optimizer=optimizer,
    )
    fill = np.random.default_rng(6)
    transitions = [
        Transition(
            state=fill.normal(size=4), action=int(fill.integers(3)),
            reward=float(fill.normal()), next_state=fill.normal(size=4),
        )
        for _ in range(8)
    ]
    for _ in range(2):
        assert np.isfinite(learner.train_batch(transitions, width=1.0))
    inactive_before = learner.network.weights[1][6:, :].copy()
    assert np.isfinite(learner.train_batch(transitions, width=0.75))
    assert optimizer.mask_calls == 3
    # The reduced-width update left the inactive slice untouched.
    assert np.array_equal(learner.network.weights[1][6:, :], inactive_before)


def test_clipped_updates_match_seed_within_float_tolerance():
    """When the global-norm clip actually fires, the norm is accumulated in
    a different (mathematically equal) order than the seed code, so the
    guarantee weakens from bit-exact to ~1e-12 relative (see
    ``DqnLearner._clip_flat``).  Force clipping with a tiny max_grad_norm
    and check the paths still track each other tightly."""
    config = DqnConfig(batch_size=16, max_grad_norm=0.001)
    current = DqnLearner(
        network=SlimmableMLP(5, (16, 16), 6, rng=np.random.default_rng(3)),
        config=config,
        optimizer=Adam(learning_rate=0.01),
    )
    legacy = LegacyDqnLearner(
        network=LegacySlimmableMLP(5, (16, 16), 6, rng=np.random.default_rng(3)),
        config=config,
        optimizer=Adam(learning_rate=0.01),
    )
    fill = np.random.default_rng(11)
    transitions = [
        Transition(
            state=fill.normal(size=5),
            action=int(fill.integers(6)),
            reward=float(fill.normal()) * 10.0,
            next_state=fill.normal(size=5),
            next_width=1.0,
        )
        for _ in range(16)
    ]
    for _ in range(40):
        loss_a = current.train_batch(transitions, width=1.0)
        loss_b = legacy.train_batch(transitions, width=1.0)
        assert loss_a == pytest.approx(loss_b, rel=1e-9)
    for ours, theirs in zip(current.network.get_state(), legacy.network.get_state()):
        assert np.allclose(ours, theirs, rtol=1e-9, atol=1e-12)


def test_fused_kernel_disabled_gives_identical_results(monkeypatch):
    """REPRO_FUSED=0 (pure NumPy) and the C kernels must agree exactly."""
    from repro.kernels import resolve

    def run_with(kernel_enabled: bool):
        monkeypatch.setattr(resolve, "_kernels", {})
        monkeypatch.setattr(resolve, "_status", {})
        monkeypatch.setenv("REPRO_FUSED", "1" if kernel_enabled else "0")
        learner = DqnLearner(
            network=SlimmableMLP(4, (12, 12), 5, rng=np.random.default_rng(9)),
            config=DqnConfig(batch_size=8),
            optimizer=Adam(learning_rate=0.02),
        )
        buffer = ReplayBuffer(64)
        fill = np.random.default_rng(1)
        for _ in range(64):
            buffer.append(
                fill.normal(size=4), int(fill.integers(5)), float(fill.normal()),
                fill.normal(size=4), 1.0,
            )
        rng = np.random.default_rng(2)
        losses = [
            learner.train_batch(buffer.sample(8, rng), width=w)
            for w in (1.0, 0.75) * 15
        ]
        return losses, learner.network.get_state()

    losses_numpy, state_numpy = run_with(False)
    losses_fused, state_fused = run_with(True)
    assert losses_numpy == losses_fused
    for a, b in zip(state_numpy, state_fused):
        assert np.array_equal(a, b)
    # Restore the module-level kernel resolution for subsequent tests.
    monkeypatch.setattr(resolve, "_kernels", {})
    monkeypatch.setattr(resolve, "_status", {})
