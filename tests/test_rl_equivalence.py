"""Absolute digests of the RL hot path's seeded results.

The vectorized hot path (ring-buffer replay, sliced-gradient backward,
region-sliced Adam, the fused ``dqn_train_step`` kernel) was introduced
with a hard guarantee: same seeds => exactly the same losses, rewards,
greedy actions and traces as the original pure-Python implementation
(deque replay, mask-padded gradients, fancy-indexed Adam).  That original
was kept as a frozen oracle until the digests below were recorded; each
digest marked "equal to the seed implementation's" was checked against it,
under ``REPRO_FUSED=0`` and ``REPRO_FUSED=1``, before the oracle was
deleted.  A change that moves any of them changes the training results.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.analysis.experiments import (
    ExperimentSetting,
    make_environment,
    make_policy,
)
from repro.core.training import OnlineSession
from repro.env.trace import COLUMN_DTYPES
from repro.rl.dqn import DqnConfig, DqnLearner
from repro.rl.optimizer import Adam
from repro.rl.replay import ReplayBuffer, TransitionBatch
from repro.rl.slimmable import SlimmableMLP


def _bits(values) -> bytes:
    """The int64 bit view of float64 values (``-0.0`` and NaN payloads count)."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64).tobytes()


def _session_digest(result) -> str:
    """SHA-256 over every trace column's bits, the datasets, the losses and
    the rewards of a scalar session."""
    digest = hashlib.sha256()
    for name, dtype in COLUMN_DTYPES.items():
        column = np.ascontiguousarray(result.trace.column(name))
        digest.update(f"{name}:{column.dtype.str}:{column.shape}".encode())
        digest.update(_bits(column) if dtype.itemsize == 8 else column.tobytes())
    digest.update("\n".join(result.trace.datasets()).encode())
    digest.update(b"losses" + _bits(result.losses))
    digest.update(b"rewards" + _bits(result.rewards))
    return digest.hexdigest()


#: :func:`_session_digest` of the 220-frame seed-0 session of each learning
#: method on the reference cell.  Each one trains (the 24-frame fleet pins
#: never fill a batch), and each is equal to the seed implementation's.
PINNED_SESSION_DIGESTS = {
    "lotus": "0cc86da39172e6ae104e59c534f4ccfc976d2408d6924abc4a5e607256446a6b",
    "lotus-no-slim": "609c373e7612b65bce774577a2e49c9acef4e65bccde6c34c1e4910c3a242e30",
    "lotus-shared-buffer": "842cbd04f8350037454d00323df0ec912f83cfa912f2d8822fe9d356aef0d21f",
    "lotus-single-action": "951cc1fe260184adfb55f718d85c7a650eb033f57cdc38a0a7c22cf564c0e1c9",
    "ztt": "e1c06028f647d9470551a3788a265572f8743f3b85af4f3f6128a1f341b0b6f7",
}


def _run_session(method: str, frames: int = 220):
    setting = ExperimentSetting(num_frames=frames, seed=0)
    environment = make_environment(setting)
    policy = make_policy(method, environment, frames, seed=setting.seed)
    return OnlineSession(environment, policy).run(frames)


@pytest.mark.parametrize("method", sorted(PINNED_SESSION_DIGESTS))
def test_full_session_is_bit_identical_to_seed_implementation(method):
    result = _run_session(method)
    assert result.losses
    assert _session_digest(result) == PINNED_SESSION_DIGESTS[method]


def _learner(**config) -> DqnLearner:
    return DqnLearner(
        network=SlimmableMLP(
            5, (16, 16), 6, widths=(0.75, 1.0), rng=np.random.default_rng(3)
        ),
        config=DqnConfig(**config),
        optimizer=Adam(learning_rate=0.01),
    )


def _learner_digest(learner, losses, greedy=()) -> str:
    """SHA-256 over a learner's losses, greedy probe actions and final
    online and target parameter bits."""
    digest = hashlib.sha256(b"losses" + _bits(losses))
    digest.update(b"greedy" + np.asarray(greedy, dtype=np.int64).tobytes())
    digest.update(b"online" + _bits(learner.network.flat_parameters))
    digest.update(b"target" + _bits(learner.target_network.flat_parameters))
    return digest.hexdigest()


#: :func:`_learner_digest` of the 60-step alternating-width sequence below,
#: whose batches mix both next widths; equal to the seed implementation's.
PINNED_LEARNER_DIGEST = "c590193aeec0df28675136d9b5eaddae98658297698dda043bfc0cffaed41618"


def test_learner_losses_and_greedy_actions_match_seed_step_for_step():
    learner = _learner(batch_size=16, target_sync_interval=7)
    buffer = ReplayBuffer(256)
    fill_rng = np.random.default_rng(11)
    for _ in range(256):
        state = fill_rng.normal(size=5)
        next_state = fill_rng.normal(size=5)
        action = int(fill_rng.integers(6))
        reward = float(fill_rng.normal())
        next_width = 1.0 if fill_rng.random() < 0.5 else 0.75
        buffer.append(state, action, reward, next_state, next_width)

    rng = np.random.default_rng(42)
    probe_rng = np.random.default_rng(7)
    losses, greedy = [], []
    for step in range(60):
        width = 0.75 if step % 2 == 0 else 1.0
        losses.append(learner.train_batch(buffer.sample(16, rng), width=width))
        greedy.append(learner.greedy_action(probe_rng.normal(size=5), width))
    assert _learner_digest(learner, losses, greedy) == PINNED_LEARNER_DIGEST


#: SHA-256 over the column bits of the 20 batches sampled below from a
#: ring that wrapped twice; the seed deque returned the same rows.
PINNED_REPLAY_DIGEST = "4c69a169ad74765c4feb752aae2e72b7be665c553446e7a7c44033c7769895c2"


def test_replay_sampling_consumes_rng_identically():
    """Same seed => the ring buffer returns the same rows as the seed deque."""
    buffer = ReplayBuffer(64)
    for i in range(150):  # wraps the ring / evicts from the deque
        buffer.append(
            state=np.array([float(i), 1.0]),
            action=i % 4,
            reward=float(i),
            next_state=np.array([float(i + 1), 1.0]),
            next_width=0.75 if i % 3 == 0 else 1.0,
        )
    rng = np.random.default_rng(5)
    digest = hashlib.sha256()
    for _ in range(20):
        batch = buffer.sample(10, rng)
        for column in (batch.states, batch.rewards, batch.next_states, batch.next_widths):
            digest.update(_bits(column))
        digest.update(np.asarray(batch.actions, dtype=np.int64).tobytes())
    assert digest.hexdigest() == PINNED_REPLAY_DIGEST


def _extents(net: SlimmableMLP, width: float):
    """The ``(in_active, out_active)`` extents of every layer at ``width``."""
    active = net.active_units_for_width(width)
    return [(active[i], active[i + 1]) for i in range(net.num_layers)]


def _backward_into(net: SlimmableMLP, x, width: float, grad_out):
    """``forward`` then ``backward_into`` NaN-filled buffers of the active
    extents (so an entry the pass skips shows)."""
    _, cache = net.forward(x, width)
    extents = _extents(net, width)
    weight_grads = [np.full(extent, np.nan) for extent in extents]
    bias_grads = [np.full(out_active, np.nan) for _, out_active in extents]
    net.backward_into(cache, grad_out, weight_grads, bias_grads)
    return weight_grads, bias_grads


def _backward_sliced(net: SlimmableMLP, x, width: float, grad_out):
    """Independent allocating reference: backpropagation through the
    active slices with fresh arrays and NumPy's plain operators."""
    extents = _extents(net, width)
    inputs, pre = [x], []
    for layer, (in_active, out_active) in enumerate(extents):
        z = inputs[-1] @ net.weights[layer][:in_active, :out_active]
        z = z + net.biases[layer][:out_active]
        pre.append(z)
        inputs.append(np.maximum(z, 0.0))
    weight_grads, bias_grads = [None] * len(extents), [None] * len(extents)
    grad = grad_out
    for layer in range(len(extents) - 1, -1, -1):
        if layer < len(extents) - 1:
            grad = grad * (pre[layer] > 0.0)
        weight_grads[layer] = inputs[layer].T @ grad
        bias_grads[layer] = np.sum(grad, axis=0)
        in_active, out_active = extents[layer]
        grad = grad @ net.weights[layer][:in_active, :out_active].T
    return weight_grads, bias_grads


def test_backward_sliced_matches_finite_differences_at_reduced_width():
    """Gradient check of the sliced backward at width 0.75."""
    net = SlimmableMLP(7, (16, 16, 16), 10, widths=(0.75, 1.0),
                       rng=np.random.default_rng(0))
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 7))
    grad_out = rng.normal(size=(3, 10))
    width = 0.75

    def loss_fn() -> float:
        return float(np.sum(net.predict(x, width) * grad_out))

    weight_grads, bias_grads = _backward_into(net, x, width, grad_out)
    extents = _extents(net, width)
    assert extents[1] == (12, 12)
    eps = 1e-6
    for layer in range(net.num_layers):
        in_active, out_active = extents[layer]
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


def test_backward_into_agrees_with_backward_sliced():
    """The learner's in-place backward writes the bits of the allocating
    reference :func:`_backward_sliced`."""
    net = SlimmableMLP(6, (12, 12), 4, rng=np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(5, 6))
    grad_out = np.random.default_rng(3).normal(size=(5, 4))
    for width in (0.75, 1.0):
        into_w, into_b = _backward_into(net, x, width, grad_out)
        sliced_w, sliced_b = _backward_sliced(net, x, width, grad_out)
        for ours, theirs in zip(into_w + into_b, sliced_w + sliced_b):
            assert ours.shape == theirs.shape
            assert np.array_equal(_bits(ours), _bits(theirs))


#: :func:`_learner_digest` of the 40 clipped steps below.
PINNED_CLIPPED_DIGEST = "6f9b16a436872f83627dd02ac8a7fd6a7401d337fd15908eda1cfad32b35307b"


def test_clipped_updates_match_pinned_bits():
    """40 steps on one batch whose gradient norm always exceeds the clip,
    on the learner as the kernels resolve and on the NumPy learner."""
    fill = np.random.default_rng(11)
    rows = [
        (fill.normal(size=5), int(fill.integers(6)), float(fill.normal()) * 10.0,
         fill.normal(size=5))
        for _ in range(16)
    ]
    states, actions, rewards, next_states = zip(*rows)
    transitions = TransitionBatch(
        states=np.stack(states),
        actions=np.array(actions, dtype=np.intp),
        rewards=np.array(rewards),
        next_states=np.stack(next_states),
        next_widths=np.ones(16),
    )
    for numpy_path in (False, True):
        learner = _learner(batch_size=16, max_grad_norm=0.001)
        if numpy_path:
            learner._dqn = None
        losses = [learner.train_batch(transitions, width=1.0) for _ in range(40)]
        assert _learner_digest(learner, losses) == PINNED_CLIPPED_DIGEST


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
        return losses, [p.copy() for p in learner.network.parameters()]

    losses_numpy, state_numpy = run_with(False)
    losses_fused, state_fused = run_with(True)
    assert losses_numpy == losses_fused
    for a, b in zip(state_numpy, state_fused):
        assert np.array_equal(a, b)
    # Restore the module-level kernel resolution for subsequent tests.
    monkeypatch.setattr(resolve, "_kernels", {})
    monkeypatch.setattr(resolve, "_status", {})
