"""Frozen pre-vectorization reference implementations.

These classes preserve, verbatim in behaviour, the original pure-Python DQN
hot path that the ring-buffer replay and the sliced-gradient training pass
replaced: a ``deque``-of-:class:`Transition` replay buffer with per-object
sampling, full-shape zero-padded gradients with boolean masks, and the
masked (fancy-indexed) optimizer update.  They serve as the **equivalence
oracle**: the seed-for-seed tests drive a full Lotus session through this
path and assert the vectorized path produces the exact same losses, rewards
and traces.

Do not "optimise" this module; its slowness is the point.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ReplayBufferError
from repro.rl.dqn import DqnLearner
from repro.rl.network import he_init, huber_loss_and_grad, relu, relu_grad
from repro.rl.replay import Transition
from repro.rl.slimmable import ForwardCache


class LegacyReplayBuffer:
    """The original bounded FIFO replay buffer (deque of transitions)."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ReplayBufferError("capacity must be positive")
        self.capacity = capacity
        self._storage: Deque[Transition] = deque(maxlen=capacity)
        self._total_pushed = 0

    def push(self, transition: Transition) -> None:
        """Store a transition, evicting the oldest if the buffer is full."""
        self._storage.append(transition)
        self._total_pushed += 1

    def append(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        next_width: float = 1.0,
    ) -> None:
        """Field-wise push shim matching the current buffer's interface.

        The original code built a :class:`Transition` at every call site;
        doing it here keeps the per-push object construction cost inside the
        legacy path, where it historically was.
        """
        self.push(Transition(state, action, reward, next_state, next_width))

    def __len__(self) -> int:
        return len(self._storage)

    @property
    def total_pushed(self) -> int:
        """Total number of transitions ever pushed (including evicted ones)."""
        return self._total_pushed

    @property
    def is_full(self) -> bool:
        """Whether the buffer has reached its capacity."""
        return len(self._storage) == self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator) -> List[Transition]:
        """Sample ``batch_size`` transitions uniformly at random."""
        if batch_size <= 0:
            raise ReplayBufferError("batch_size must be positive")
        if len(self._storage) < batch_size:
            raise ReplayBufferError(
                f"cannot sample {batch_size} transitions from a buffer of size "
                f"{len(self._storage)}"
            )
        indices = rng.choice(len(self._storage), size=batch_size, replace=False)
        return [self._storage[int(i)] for i in indices]

    def clear(self) -> None:
        """Discard all stored transitions."""
        self._storage.clear()

    def latest(self) -> Transition:
        """The most recently pushed transition."""
        if not self._storage:
            raise ReplayBufferError("buffer is empty")
        return self._storage[-1]


class LegacySlimmableMLP:
    """The original slimmable MLP, kept verbatim.

    Re-derives the active unit counts and re-validates the width on every
    forward pass, slices the weights per call, and its ``backward`` builds
    full-shape zero-padded gradients plus boolean masks — exactly the seed
    implementation that :class:`~repro.rl.slimmable.SlimmableMLP` replaced
    with cached views, flat parameter backing and sliced gradients.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dims: Sequence[int],
        output_dim: int,
        widths: Sequence[float] = (0.75, 1.0),
        rng: np.random.Generator | None = None,
    ):
        self.input_dim = int(input_dim)
        self.hidden_dims = tuple(int(h) for h in hidden_dims)
        self.output_dim = int(output_dim)
        self.widths = tuple(sorted(set(float(w) for w in widths)))
        rng = rng if rng is not None else np.random.default_rng(0)
        layer_dims = [self.input_dim, *self.hidden_dims, self.output_dim]
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
            w, b = he_init(fan_in, fan_out, rng)
            self.weights.append(w)
            self.biases.append(b)

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def active_units_for_width(self, width: float) -> List[int]:
        self._validate_width(width)
        units = [self.input_dim]
        for hidden in self.hidden_dims:
            units.append(max(1, math.ceil(width * hidden)))
        units.append(self.output_dim)
        return units

    def _validate_width(self, width: float) -> None:
        if not any(abs(width - w) < 1e-9 for w in self.widths):
            raise ConfigurationError(
                f"width {width} is not one of the configured widths {self.widths}"
            )

    def forward(self, inputs: np.ndarray, width: float = 1.0) -> Tuple[np.ndarray, ForwardCache]:
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        if x.shape[1] != self.input_dim:
            raise ConfigurationError(
                f"expected input dimension {self.input_dim}, got {x.shape[1]}"
            )
        active = self.active_units_for_width(width)
        pre_activations: List[np.ndarray] = []
        activations: List[np.ndarray] = []
        current = x
        for layer_index, (w, b) in enumerate(zip(self.weights, self.biases)):
            in_active = active[layer_index]
            out_active = active[layer_index + 1]
            z = current @ w[:in_active, :out_active] + b[:out_active]
            pre_activations.append(z)
            if layer_index < self.num_layers - 1:
                current = relu(z)
            else:
                current = z
            activations.append(current)
        cache = ForwardCache(
            inputs=x,
            pre_activations=pre_activations,
            activations=activations,
            active_units=active,
            width=width,
        )
        return current, cache

    def predict(self, inputs: np.ndarray, width: float = 1.0) -> np.ndarray:
        outputs, _ = self.forward(inputs, width)
        return outputs

    def backward(
        self, cache: ForwardCache, grad_outputs: np.ndarray
    ) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray], List[np.ndarray]]:
        grad = np.atleast_2d(np.asarray(grad_outputs, dtype=float))
        active = cache.active_units
        weight_grads = [np.zeros_like(w) for w in self.weights]
        bias_grads = [np.zeros_like(b) for b in self.biases]
        weight_masks = [np.zeros(w.shape, dtype=bool) for w in self.weights]
        bias_masks = [np.zeros(b.shape, dtype=bool) for b in self.biases]
        for layer_index in range(self.num_layers - 1, -1, -1):
            in_active = active[layer_index]
            out_active = active[layer_index + 1]
            if layer_index < self.num_layers - 1:
                grad = grad * relu_grad(cache.pre_activations[layer_index])
            upstream = (
                cache.inputs if layer_index == 0 else cache.activations[layer_index - 1]
            )
            weight_grads[layer_index][:in_active, :out_active] = upstream.T @ grad
            bias_grads[layer_index][:out_active] = np.sum(grad, axis=0)
            weight_masks[layer_index][:in_active, :out_active] = True
            bias_masks[layer_index][:out_active] = True
            if layer_index > 0:
                grad = grad @ self.weights[layer_index][:in_active, :out_active].T
        return weight_grads, bias_grads, weight_masks, bias_masks

    def parameters(self) -> List[np.ndarray]:
        params: List[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            params.append(w)
            params.append(b)
        return params

    def get_state(self) -> List[np.ndarray]:
        return [p.copy() for p in self.parameters()]

    def set_state(self, state: Sequence[np.ndarray]) -> None:
        for target, source in zip(self.parameters(), state):
            target[...] = source

    def clone(self) -> "LegacySlimmableMLP":
        # The seed clone really did re-run He initialisation only to
        # overwrite it — preserved here because its cost is part of the
        # recorded baseline (and its RNG is private, so no stream impact).
        copy = LegacySlimmableMLP(
            input_dim=self.input_dim,
            hidden_dims=self.hidden_dims,
            output_dim=self.output_dim,
            widths=self.widths,
            rng=np.random.default_rng(0),
        )
        copy.set_state(self.get_state())
        return copy


class LegacyDqnLearner(DqnLearner):
    """The original DQN update: object batches, masks, fancy-indexed Adam.

    Inherits action selection, target synchronisation and construction from
    :class:`~repro.rl.dqn.DqnLearner` (those did not change) and overrides
    the training path with the pre-vectorization implementation.
    """

    def train_batch(self, transitions: Sequence[Transition], width: float = 1.0) -> float:
        """One DQN update on a batch of transitions (original implementation)."""
        transitions = list(transitions)
        if not transitions:
            raise ReplayBufferError("cannot train on an empty batch")

        states = np.stack([t.state for t in transitions])
        actions = np.array([t.action for t in transitions], dtype=int)
        rewards = np.array([t.reward for t in transitions], dtype=float)
        next_states = np.stack([t.next_state for t in transitions])
        next_widths = np.array([t.next_width for t in transitions], dtype=float)

        max_next_q = np.zeros(len(transitions))
        for next_width in np.unique(next_widths):
            group = next_widths == next_width
            target_q = self.target_network.predict(next_states[group], float(next_width))
            if self.config.double_dqn:
                online_q = self.network.predict(next_states[group], float(next_width))
                best_actions = np.argmax(online_q, axis=1)
                max_next_q[group] = target_q[np.arange(len(best_actions)), best_actions]
            else:
                max_next_q[group] = np.max(target_q, axis=1)
        targets = rewards + self.config.discount * max_next_q

        outputs, cache = self.network.forward(states, width)
        batch_indices = np.arange(len(transitions))
        predictions = outputs[batch_indices, actions]
        loss, grad_predictions = huber_loss_and_grad(
            predictions, targets, self.config.huber_delta
        )

        grad_outputs = np.zeros_like(outputs)
        grad_outputs[batch_indices, actions] = grad_predictions
        weight_grads, bias_grads, weight_masks, bias_masks = self.network.backward(
            cache, grad_outputs
        )
        gradients = []
        masks = []
        for wg, bg, wm, bm in zip(weight_grads, bias_grads, weight_masks, bias_masks):
            gradients.extend([wg, bg])
            masks.extend([wm, bm])
        self._clip_gradients(gradients)

        if self.learning_rate_schedule is not None:
            self.optimizer.set_learning_rate(
                max(1e-6, self.learning_rate_schedule.value(self.train_steps))
            )
        self.optimizer.step(self.network.parameters(), gradients, masks)

        self.train_steps += 1
        if self.train_steps % self.config.target_sync_interval == 0:
            self.sync_target()
        return loss

    def _clip_gradients(self, gradients: Sequence[np.ndarray]) -> None:
        if self.config.max_grad_norm <= 0:
            return
        total = float(np.sqrt(sum(float(np.sum(g**2)) for g in gradients)))
        if total > self.config.max_grad_norm and total > 0:
            scale = self.config.max_grad_norm / total
            for grad in gradients:
                grad *= scale


def use_legacy_rl_path(policy) -> None:
    """Swap a learning policy's replay/training hot path for the legacy one.

    Replaces the policy's Q-network with a weight-identical
    :class:`LegacySlimmableMLP`, its replay buffer(s) with
    :class:`LegacyReplayBuffer` and its learner with a
    :class:`LegacyDqnLearner` sharing the same configuration, optimizer and
    schedule — the complete pre-refactor hot path, end to end.  Must be
    called on a freshly built policy, before any frame has been processed,
    so the legacy and current paths start from identical state.

    Works for both :class:`~repro.core.agent.LotusAgent` (two buffers,
    honouring ``shared_buffer``) and
    :class:`~repro.baselines.ztt.ZttPolicy` (one buffer).
    """
    learner = policy.learner
    network = learner.network
    legacy_network = LegacySlimmableMLP(
        input_dim=network.input_dim,
        hidden_dims=network.hidden_dims,
        output_dim=network.output_dim,
        widths=network.widths,
    )
    legacy_network.set_state(network.get_state())
    policy.network = legacy_network
    policy.learner = LegacyDqnLearner(
        network=legacy_network,
        config=learner.config,
        optimizer=learner.optimizer,
        learning_rate_schedule=learner.learning_rate_schedule,
    )
    if hasattr(policy, "start_buffer"):  # LotusAgent
        shared = policy.mid_buffer is policy.start_buffer
        policy.start_buffer = LegacyReplayBuffer(policy.start_buffer.capacity)
        policy.mid_buffer = (
            policy.start_buffer
            if shared
            else LegacyReplayBuffer(policy.mid_buffer.capacity)
        )
    elif hasattr(policy, "buffer"):  # ZttPolicy
        policy.buffer = LegacyReplayBuffer(policy.buffer.capacity)
    else:
        raise TypeError(f"policy {type(policy).__name__} has no replay buffer to swap")
