"""Generic DQN learner.

Wraps an online :class:`~repro.rl.slimmable.SlimmableMLP`, a target copy, an
optimizer and the TD-learning update rule.  Both the Lotus agent (which
calls it with alternating widths and two replay buffers) and the zTT
baseline (single width, single buffer) drive this class; it contains no
Lotus-specific logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import AgentError
from repro.kernels import ArgumentTable, fused_dqn
from repro.rl.optimizer import Adam, Optimizer
from repro.rl.replay import Transition, TransitionBatch
from repro.rl.schedule import Schedule
from repro.rl.slimmable import SlimmableMLP


#: DqnLearner attributes built by ``_init_derived``, which copies rebuild.
_DERIVED = (
    "_dqn", "_pair_views", "_pair_scratch", "_scratch", "_regions_cache",
    "_grad_scratch", "_step_tables", "_greedy_tables", "_params",
)


def _gemm_rows(a: np.ndarray, cols: int) -> bool:
    """Whether ``np.matmul`` hands ``a`` to gemm as it is.

    That is float64 rows of ``cols`` values at unit stride, with a row
    stride of at least ``cols`` (replay samples are row-strided views).
    """
    return (
        a.dtype == np.float64
        and a.ndim == 2
        and a.shape[1] == cols
        and a.strides[1] == 8
        and a.strides[0] >= 8 * cols
        and a.strides[0] % 8 == 0
    )


@dataclass(frozen=True)
class DqnConfig:
    """Hyper-parameters of the DQN update rule.

    Attributes:
        discount: Discount factor gamma for TD targets.
        batch_size: Mini-batch size sampled from the replay buffer.
        target_sync_interval: Number of training steps between target-network
            synchronisations.
        huber_delta: Transition point of the Huber loss.
        max_grad_norm: Global gradient-norm clip (0 disables clipping).
        double_dqn: Use Double-DQN targets (argmax from the online network,
            value from the target network) to curb Q-value overestimation —
            particularly helpful when bootstrapping across the two widths of
            the slimmable Lotus Q-network.
    """

    discount: float = 0.9
    batch_size: int = 32
    target_sync_interval: int = 100
    huber_delta: float = 1.0
    max_grad_norm: float = 5.0
    double_dqn: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.discount < 1.0:
            raise AgentError("discount must lie in [0, 1)")
        if self.batch_size <= 0:
            raise AgentError("batch_size must be positive")
        if self.target_sync_interval <= 0:
            raise AgentError("target_sync_interval must be positive")
        if self.huber_delta <= 0:
            raise AgentError("huber_delta must be positive")
        if self.max_grad_norm < 0:
            raise AgentError("max_grad_norm must be non-negative")


class DqnLearner:
    """Online/target Q-network pair with the DQN update rule."""

    def __init__(
        self,
        network: SlimmableMLP,
        config: DqnConfig | None = None,
        optimizer: Optimizer | None = None,
        learning_rate_schedule: Schedule | None = None,
    ):
        if not (hasattr(network, "rebase") and hasattr(network, "flat_parameters")):
            raise AgentError(
                f"{type(network).__name__} has no flat parameter buffer to "
                "rebase; DqnLearner trains SlimmableMLP-like networks"
            )
        self.network = network
        self.target_network = network.clone()
        self.config = config if config is not None else DqnConfig()
        self.optimizer = optimizer if optimizer is not None else Adam()
        self.learning_rate_schedule = learning_rate_schedule
        self.train_steps = 0
        # Co-locate the online and target parameters in one pair buffer
        # (online in the first half, target in the second).  Both halves
        # share the same internal layout, so a zero-copy strided view can
        # stack the two networks' weights layer by layer and both TD
        # bootstrap forwards run as ONE batched matmul per layer.
        # Rebasing captures raw buffer addresses in this learner's view and
        # kernel-table caches, so a network may belong to exactly one
        # learner; a second rebase would leave the first learner's caches
        # dangling on the abandoned buffer.
        if getattr(network, "_pair_owner", None) is not None:
            raise AgentError(
                "network is already owned by another DqnLearner; build a "
                "fresh network (or clone()) per learner"
            )
        self._pair_buffer = np.zeros(2 * network.flat_parameters.size)
        self._rebase_pair()
        self._init_derived()

    def _rebase_pair(self) -> None:
        """Back the online and target parameters by the pair buffer's halves."""
        total = self._pair_buffer.size // 2
        self.network.rebase(self._pair_buffer[:total])
        self.target_network.rebase(self._pair_buffer[total:])
        self.network._pair_owner = self

    def _init_derived(self) -> None:
        """Kernel handles and caches, rebuilt rather than copied.

        Each is a function of the configuration and of this learner's
        buffers: the tables and plans hold raw addresses, the caches views.
        """
        # The whole-step and greedy-action kernels, when they run here.
        self._dqn = fused_dqn()
        self._pair_views: Dict[float, List[Tuple[np.ndarray, np.ndarray]]] = {}
        self._pair_scratch: Dict[Tuple[float, int], List[np.ndarray]] = {}
        # Scratch buffers reused across train_batch calls, keyed by batch
        # size (agents use one fixed batch size, so this holds one entry);
        # see _scratch_for for the tuple layout.
        self._scratch: Dict[int, tuple] = {}
        # Optimizer regions (active-slice index tuples per parameter) are a
        # pure function of the width; compute them once per width.
        self._regions_cache: Dict[float, List[Tuple[slice, ...]]] = {}
        # Per-width flat gradient buffer with per-layer views, interleaved
        # like the network's flat parameter layout ([w0, b0, w1, b1, ...]);
        # the backward pass writes into the views and clipping runs one dot
        # over the flat buffer.  See _grad_scratch_for for the tuple layout.
        self._grad_scratch: Dict[float, tuple] = {}
        # dqn_train_step tables per (width, next width, batch size) and
        # dqn_greedy tables per width; None marks a NumPy-path key.
        self._step_tables: Dict[tuple, ArgumentTable | None] = {}
        self._greedy_tables: Dict[float, ArgumentTable | None] = {}
        self._params = self.network.parameters()

    def __getstate__(self) -> dict:
        # A copy (pickle or deepcopy) drops the kernel handles and caches
        # and builds its own; see _init_derived.
        return {k: v for k, v in self.__dict__.items() if k not in _DERIVED}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if not np.may_share_memory(self._pair_buffer, self.network.flat_parameters):
            # Pickling copies each view on its own: move the copied
            # networks back into the copied pair buffer.
            self._rebase_pair()
        self._init_derived()

    # -- action selection ----------------------------------------------------------

    def q_values(self, state: np.ndarray, width: float = 1.0) -> np.ndarray:
        """Q-values of all actions in ``state`` at the given width."""
        outputs = self.network.predict(np.asarray(state, dtype=float), width)
        return outputs[0]

    def greedy_action(self, state: np.ndarray, width: float = 1.0) -> int:
        """Index of the highest-valued action in ``state``."""
        x = np.asarray(state, dtype=float)
        if self._dqn is not None and x.ndim == 1 and x.strides == (8,):
            table = self._greedy_table(width)
            if table is not None and x.shape[0] == self.network.input_dim:
                return self._dqn.dqn_greedy(table, x)
        return int(np.argmax(self.q_values(x, width)))

    def _greedy_table(self, width: float) -> ArgumentTable | None:
        """``dqn_greedy``'s table for ``width``, or ``None`` for NumPy.

        A unit-sized layer makes NumPy use dot or its own loop instead of
        gemv, so those networks stay on the NumPy path.
        """
        try:
            return self._greedy_tables[width]
        except KeyError:
            pass
        table = None
        units = self.network.active_units_for_width(width)
        if min(units) > 1:
            table = self._dqn.greedy_table(
                self.network.weights, self.network.biases, units
            )
        self._greedy_tables[width] = table
        return table

    def select_action(
        self,
        state: np.ndarray,
        epsilon: float,
        rng: np.random.Generator,
        width: float = 1.0,
    ) -> int:
        """Epsilon-greedy action selection."""
        if not 0.0 <= epsilon <= 1.0:
            raise AgentError("epsilon must lie in [0, 1]")
        num_actions = self.network.output_dim
        if rng.random() < epsilon:
            return int(rng.integers(num_actions))
        return self.greedy_action(state, width)

    # -- learning ----------------------------------------------------------------------

    def _scratch_for(self, batch_size: int) -> tuple:
        """Reusable per-batch-size buffers.

        Layout: ``(batch_indices, max_next_q, grad_outputs, huber_scratch,
        row_offsets, flat_index, flat_grad_outputs)`` — see the construction
        below for each entry's role.
        """
        scratch = self._scratch.get(batch_size)
        if scratch is None:
            grad_outputs = np.zeros((batch_size, self.network.output_dim))
            scratch = (
                np.arange(batch_size),
                np.zeros(batch_size),
                grad_outputs,
                (np.zeros(batch_size), np.zeros(batch_size), np.zeros(batch_size)),
                # Flat-index machinery: row offsets into the ravelled
                # (batch, actions) plane, a reusable index buffer, and the
                # ravelled view itself.
                np.arange(batch_size) * self.network.output_dim,
                np.zeros(batch_size, dtype=np.intp),
                grad_outputs.reshape(-1),
            )
            self._scratch[batch_size] = scratch
        return scratch

    def _huber_scratch(
        self,
        predictions: np.ndarray,
        targets: np.ndarray,
        scratch: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> Tuple[float, np.ndarray]:
        """Huber loss and gradient into reusable buffers.

        Applies the exact operation sequence of
        :func:`~repro.rl.network.huber_loss_and_grad` (same operand pairs,
        same order, so identical values) without allocating per-call
        temporaries.  Returns ``(loss, grad)`` where ``grad`` is one of the
        scratch buffers — consume it before the next call.
        """
        delta = self.config.huber_delta
        error, abs_error, quadratic = scratch
        count = max(predictions.size, 1)
        np.subtract(predictions, targets, out=error)
        np.abs(error, out=abs_error)
        np.minimum(abs_error, delta, out=quadratic)
        abs_error -= quadratic  # now the linear part
        np.multiply(quadratic, quadratic, out=quadratic)
        quadratic *= 0.5
        abs_error *= delta
        quadratic += abs_error  # now the per-element losses
        # mean == add.reduce / count (what np.mean does, minus dispatch).
        loss = float(np.add.reduce(quadratic) / count)
        # clip == minimum(maximum(x, lo), hi): pure selection, no rounding.
        np.maximum(error, -delta, out=error)
        np.minimum(error, delta, out=error)
        error /= count
        return loss, error

    def _regions_for(self, width: float) -> List[Tuple[slice, ...]]:
        """Active-slice index regions per parameter (weights/biases interleaved)."""
        regions = self._regions_cache.get(width)
        if regions is None:
            active = self.network.active_units_for_width(width)
            regions = []
            for layer in range(self.network.num_layers):
                in_active, out_active = active[layer], active[layer + 1]
                regions.append((slice(0, in_active), slice(0, out_active)))
                regions.append((slice(0, out_active),))
            self._regions_cache[width] = regions
        return regions

    def _grad_scratch_for(self, width: float) -> tuple:
        """Flat gradient buffer + per-layer views for ``width``.

        Returns ``(flat, weight_views, bias_views, interleaved)`` where
        ``interleaved`` matches the parameter order.
        """
        scratch = self._grad_scratch.get(width)
        if scratch is None:
            active = self.network.active_units_for_width(width)
            extents = [
                (active[i], active[i + 1]) for i in range(self.network.num_layers)
            ]
            total = sum(ia * oa + oa for ia, oa in extents)
            flat = np.zeros(total)
            weight_views: List[np.ndarray] = []
            bias_views: List[np.ndarray] = []
            interleaved: List[np.ndarray] = []
            offset = 0
            for in_active, out_active in extents:
                w_size = in_active * out_active
                w_view = flat[offset : offset + w_size].reshape(in_active, out_active)
                offset += w_size
                b_view = flat[offset : offset + out_active]
                offset += out_active
                weight_views.append(w_view)
                bias_views.append(b_view)
                interleaved.extend((w_view, b_view))
            scratch = (flat, weight_views, bias_views, interleaved)
            self._grad_scratch[width] = scratch
        return scratch

    def _pair_views_for(self, width: float) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Stacked ``(weights, biases)`` views over (online, target) pairs.

        ``weights`` has shape ``(2, in_active, out_active)`` and ``biases``
        ``(2, 1, out_active)``; index 0 is the online network, index 1 the
        target.  Built with stride tricks over the shared pair buffer — no
        copies, and parameter updates are visible immediately.
        """
        views = self._pair_views.get(width)
        if views is None:
            half = self.network.flat_parameters.size * self.network.flat_parameters.itemsize
            views = []
            online = self.network._views_for(width)
            for w, b in online:
                stacked_w = np.lib.stride_tricks.as_strided(
                    w, shape=(2, *w.shape), strides=(half, *w.strides)
                )
                stacked_b = np.lib.stride_tricks.as_strided(
                    b, shape=(2, 1, *b.shape), strides=(half, 0, *b.strides)
                )
                views.append((stacked_w, stacked_b))
            self._pair_views[width] = views
        return views

    def _pair_scratch_for(self, width: float, batch_size: int) -> List[np.ndarray]:
        """Per-layer ``(2, batch, units)`` activation buffers for the pair pass."""
        scratch = self._pair_scratch.get((width, batch_size))
        if scratch is None:
            active = self.network.active_units_for_width(width)
            scratch = [np.empty((2, batch_size, units)) for units in active[1:]]
            self._pair_scratch[(width, batch_size)] = scratch
        return scratch

    def _predict_pair(
        self, x: np.ndarray, width: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate the online AND target networks on ``x`` in one pass.

        Each layer is one stacked matmul over the ``(2, ...)`` weight view —
        both networks' GEMMs in a single call — into reusable activation
        buffers.  Returns ``(online_q, target_q)`` as views into the last
        buffer; consume them before the next pair pass.
        """
        views = self._pair_views_for(width)
        scratch = self._pair_scratch_for(width, x.shape[0])
        last = len(views) - 1
        current: np.ndarray = x
        for layer_index, (w, b) in enumerate(views):
            z = scratch[layer_index]
            np.matmul(current, w, out=z)
            z += b
            current = z if layer_index == last else np.maximum(z, 0.0, out=z)
        return current[0], current[1]

    def train_batch(
        self,
        transitions: Union[TransitionBatch, Sequence[Transition]],
        width: float = 1.0,
    ) -> float:
        """One DQN update on a batch of transitions.

        Args:
            transitions: Batch sampled from a replay buffer — either a
                :class:`~repro.rl.replay.TransitionBatch` of column arrays
                (the hot path; what :meth:`ReplayBuffer.sample` returns) or a
                sequence of :class:`Transition` objects (converted on entry).
                Transitions may carry different ``next_width`` values (e.g.
                when a shared buffer mixes both Lotus decision points); the
                TD targets are computed per width group.
            width: Width at which the *current* states' Q-values are computed
                and trained.

        Returns:
            The Huber TD loss of the batch.
        """
        if not isinstance(transitions, TransitionBatch):
            if not transitions:
                raise AgentError("cannot train on an empty batch")
            transitions = TransitionBatch.from_transitions(transitions)
        if len(transitions) == 0:
            raise AgentError("cannot train on an empty batch")

        next_widths = transitions.next_widths
        uniform = transitions.uniform_next_width
        if uniform is None:
            first_width = float(next_widths[0])
            if np.all(next_widths == first_width):
                uniform = first_width
        if uniform is not None and self._dqn is not None:
            loss = self._train_fused(transitions, width, uniform)
            if loss is not None:
                return self._end_step(loss)

        states = transitions.states
        actions = transitions.actions
        rewards = transitions.rewards
        next_states = transitions.next_states
        batch_size = states.shape[0]
        (
            batch_indices,
            max_next_q,
            grad_outputs,
            huber_scratch,
            row_offsets,
            flat_index,
            flat_grad_outputs,
        ) = self._scratch_for(batch_size)
        if uniform is not None:
            # Uniform next width (each Lotus buffer bootstraps at one fixed
            # width): a single grouped pass, no per-group index arrays; the
            # online and target forwards run as one stacked pass.
            if self.config.double_dqn:
                online_q, target_q = self._predict_pair(next_states, uniform)
                best_actions = online_q.argmax(axis=1)
                max_next_q[...] = target_q[batch_indices, best_actions]
            else:
                target_q = self.target_network.predict(next_states, uniform)
                np.max(target_q, axis=1, out=max_next_q)
        else:
            for next_width in np.unique(next_widths):
                group = next_widths == next_width
                target_q = self.target_network.predict(
                    next_states[group], float(next_width)
                )
                if self.config.double_dqn:
                    online_q = self.network.predict(next_states[group], float(next_width))
                    best_actions = np.argmax(online_q, axis=1)
                    max_next_q[group] = target_q[np.arange(len(best_actions)), best_actions]
                else:
                    max_next_q[group] = np.max(target_q, axis=1)
        # targets = rewards + discount * max_next_q, in place in the scratch
        # (the exact addend pairs of the original expression).
        max_next_q *= self.config.discount
        max_next_q += rewards
        targets = max_next_q

        outputs, cache = self.network._forward_train(states, width)
        # One shared flat index addresses the taken (row, action) cells for
        # both the prediction gather and the gradient scatter.
        np.add(row_offsets, actions, out=flat_index)
        predictions = outputs.reshape(-1)[flat_index]
        loss, grad_predictions = self._huber_scratch(predictions, targets, huber_scratch)
        # Huber-gradient scatter into the reusable (batch, actions) scratch:
        # only the taken actions carry gradient, everything else stays at
        # the zeros the buffer was (re)set to.
        grad_outputs.fill(0.0)
        flat_grad_outputs[flat_index] = grad_predictions
        flat_grad, weight_views, bias_views, gradients = self._grad_scratch_for(width)
        self.network.backward_into(cache, grad_outputs, weight_views, bias_views)
        self._clip_flat(flat_grad)

        self._schedule_learning_rate()
        self.optimizer.step_sliced(self._params, gradients, self._regions_for(width))
        return self._end_step(loss)

    def _schedule_learning_rate(self) -> None:
        if self.learning_rate_schedule is not None:
            self.optimizer.set_learning_rate(
                max(1e-6, self.learning_rate_schedule.value(self.train_steps))
            )

    def _end_step(self, loss: float) -> float:
        self.train_steps += 1
        if self.train_steps % self.config.target_sync_interval == 0:
            self.sync_target()
        return loss

    def _train_fused(
        self, batch: TransitionBatch, width: float, next_width: float
    ) -> float | None:
        """The whole step as one ``dqn_train_step`` call.

        Returns ``None``, having changed nothing, when the kernel cannot
        reproduce the NumPy path bit for bit: an ineligible learner or
        geometry (see :meth:`_step_table`), states that ``np.matmul`` would
        not hand to gemm as they are, or an action out of range.
        """
        key = (width, next_width, len(batch))
        try:
            table = self._step_tables[key]
        except KeyError:
            table = self._step_tables[key] = self._step_table(*key)
        states, next_states = batch.states, batch.next_states
        dim = self.network.input_dim
        if (
            table is None
            or not (_gemm_rows(states, dim) and _gemm_rows(next_states, dim))
            or next_states.shape[0] != states.shape[0]
        ):
            return None
        self._schedule_learning_rate()
        optimizer = self.optimizer
        step = optimizer.step_count + 1
        adam = (
            optimizer.learning_rate, optimizer.beta1, optimizer.beta2,
            optimizer.epsilon, 1.0 - optimizer.beta1**step,
            1.0 - optimizer.beta2**step,
        )
        if not self._dqn.dqn_train_step(
            table, states, next_states, batch.rewards, batch.actions, adam
        ):
            return None
        optimizer.step_count = step
        return float(np.add.reduce(table.buffers["losses"]) / len(batch))

    def _step_table(
        self, width: float, next_width: float, batch_size: int
    ) -> ArgumentTable | None:
        """``dqn_train_step``'s table, or ``None`` to stay on the NumPy path.

        The kernel runs the double-DQN step of a pair-buffer learner with
        Adam, when every product has all dimensions above one: NumPy sends
        the others to gemv, dot or its own loop instead of gemm.
        """
        network, optimizer = self.network, self.optimizer
        if not self.config.double_dqn or type(optimizer) is not Adam:
            return None
        train = network.active_units_for_width(width)
        boot = network.active_units_for_width(next_width)
        if min(batch_size, *train, *boot) < 2:
            return None
        optimizer._ensure_state(self._params)
        config = self.config
        return self._dqn.train_table(
            network.weights, network.biases,
            (optimizer._first_moment, optimizer._second_moment),
            train, boot, batch_size, network.flat_parameters.size,
            {"discount": config.discount, "huber_delta": config.huber_delta,
             "max_grad_norm": config.max_grad_norm},
        )

    def _clip_flat(self, flat_grad: np.ndarray) -> None:
        """Global-norm clipping of the flat gradient buffer: one dot, one
        conditional in-place rescale.

        The squared norm is a single ``np.dot`` over the whole flat buffer,
        the summation order ``dqn_train_step`` reproduces; a sum of
        per-parameter squared sums would round differently in the last ulp
        whenever the clip fires.  The clipped sequence in
        ``tests/test_rl_equivalence.py`` pins this bit for bit.
        """
        if self.config.max_grad_norm <= 0:
            return
        total = float(np.sqrt(np.dot(flat_grad, flat_grad)))
        if total > self.config.max_grad_norm and total > 0:
            flat_grad *= self.config.max_grad_norm / total

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of everything a training step mutates.

        Captures the online and target parameter buffers, the optimizer's
        moments/step counter and the learner's own step counter.  The
        scratch caches (pair views, gradient buffers, kernel plans) are pure
        functions of the configuration and are rebuilt lazily after a
        restore, so a restored learner continues bit-identically.
        """
        return {
            "train_steps": int(self.train_steps),
            "online_parameters": self.network.flat_parameters.copy(),
            "target_parameters": self.target_network.flat_parameters.copy(),
            "optimizer": self.optimizer.state_dict(),
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place (same geometry)."""
        online = np.asarray(payload["online_parameters"], dtype=float)
        target = np.asarray(payload["target_parameters"], dtype=float)
        flat = self.network.flat_parameters
        if online.shape != flat.shape or target.shape != flat.shape:
            raise AgentError(
                f"parameter snapshot shapes {online.shape}/{target.shape} do "
                f"not match the network's flat buffer {flat.shape}"
            )
        flat[...] = online
        self.target_network.flat_parameters[...] = target
        self.train_steps = int(payload["train_steps"])
        self.optimizer.load_state_dict(self._params, payload["optimizer"])

    def sync_target(self) -> None:
        """Copy the online network's parameters into the target network."""
        # Online and target halves share one buffer: the sync is a single
        # contiguous copy, no per-parameter allocations.
        total = self._pair_buffer.size // 2
        self._pair_buffer[total:] = self._pair_buffer[:total]
