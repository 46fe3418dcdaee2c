"""The ``dqn`` family: one :meth:`~repro.rl.dqn.DqnLearner.train_batch`
(``dqn_train_step``) or one greedy action (``dqn_greedy``) per call.

Their products call the BLAS NumPy itself loaded
(:func:`repro.kernels.build.numpy_blas`) with the arguments
``np.matmul``/``np.dot`` pass, so each is NumPy's bit for bit; a NumPy on
another BLAS leaves the family off.  The reference is the learner's NumPy
path.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.kernels import build
from repro.kernels.build import (
    DQN_CONSTANTS,
    DQN_LAYER_SLOTS,
    DQN_SLOTS,
    GREEDY_LAYER_SLOTS,
    GREEDY_SLOTS,
    ArgumentTable,
    function,
    layered,
)
from repro.kernels.resolve import differential
from repro.obs import bus as _obs

_BATCH_SLOTS = slice(DQN_SLOTS.index("states"), len(DQN_SLOTS))
_ADAM_CONSTANTS = slice(DQN_CONSTANTS.index("learning_rate"), len(DQN_CONSTANTS))


class DqnKernels:
    """ctypes bindings of ``dqn_train_step`` and ``dqn_greedy``."""

    def __init__(self, lib: ctypes.CDLL):
        self.blas = build.numpy_blas()
        if self.blas is None:
            raise AttributeError("NumPy exports none of " + ", ".join(build.BLAS_SYMBOLS))
        pointer = ctypes.c_void_p
        self._train_step = function(lib, "dqn_train_step", ctypes.c_long, pointer, pointer)
        self._greedy = function(lib, "dqn_greedy", ctypes.c_long, pointer)

    def train_table(
        self, weights, biases, moments, train, boot, batch, half, constants
    ) -> ArgumentTable:
        """The argument table of :meth:`dqn_train_step` for one learner.

        ``weights``/``biases`` are the online network's full parameters,
        each ``half`` elements before its target twin; ``moments`` holds
        Adam's first and second moment lists (weights and biases
        interleaved); ``train``/``boot`` are the active units per layer
        boundary at the train and bootstrap widths; ``constants`` maps
        ``discount``, ``huber_delta`` and ``max_grad_norm``.
        """
        (first, second), layers, actions = moments, len(weights), train[-1]
        grad = np.zeros(sum(i * o + o for i, o in zip(train[:-1], train[1:])))
        arguments = {
            "gemm": self.blas[0], "dot": self.blas[2], "layers": layers,
            "batch": batch, "actions": actions, "half": half,
            "grad_size": grad.size, "targets": np.zeros(batch),
            "losses": np.zeros(batch), "grad_outputs": np.zeros((batch, actions)),
            "grad": grad, "rewards": np.zeros(batch),
            "taken": np.zeros(batch, dtype=np.int64), "states": 0,
            "states_ld": 0, "next_states": 0, "next_states_ld": 0,
            "count": float(batch), **constants,
            **dict.fromkeys(DQN_CONSTANTS[_ADAM_CONSTANTS], 0.0),
        }
        offset = 0
        for i in range(layers):
            ins, outs = train[i], train[i + 1]
            end = offset + ins * outs
            layer = {
                "inputs": ins, "outputs": outs, "boot_outputs": boot[i + 1],
                "stride": weights[i].shape[1], "weight": weights[i],
                "bias": biases[i], "pre": np.zeros((batch, outs)),
                "act": np.zeros((batch, outs)), "delta": np.zeros((batch, ins)),
                "pair": np.zeros((2, batch, boot[i + 1])),
                "weight_grad": grad[offset:end], "bias_grad": grad[end : end + outs],
                "weight_m": first[2 * i], "weight_v": second[2 * i],
                "bias_m": first[2 * i + 1], "bias_v": second[2 * i + 1],
            }
            offset = end + outs
            arguments.update((f"layer{i}_{key}", value) for key, value in layer.items())
        return ArgumentTable(
            layered(DQN_SLOTS, DQN_LAYER_SLOTS, layers), DQN_CONSTANTS, arguments
        )

    def dqn_train_step(self, table, states, next_states, rewards, actions, adam) -> bool:
        """One DQN train step through ``table`` (see :meth:`train_table`).

        ``states``/``next_states`` are float64 ``(batch, inputs)`` arrays
        with unit column stride, read in place with their row strides as
        ``np.matmul`` reads them; ``adam`` is ``(learning_rate, beta1,
        beta2, epsilon, bias_correction1, bias_correction2)``.  Returns
        ``False``, with nothing updated, when an action is out of range.
        """
        table.buffers["rewards"][...] = rewards
        table.buffers["taken"][...] = actions
        table.values[_BATCH_SLOTS] = (
            states.ctypes.data, states.strides[0] // 8,
            next_states.ctypes.data, next_states.strides[0] // 8,
        )
        table.constants[_ADAM_CONSTANTS] = adam
        _obs.kernel_call("dqn_train_step")
        return self._train_step(table.values_address, table.constants_address) == 0

    def greedy_table(self, weights, biases, units) -> ArgumentTable:
        """The argument table of :meth:`dqn_greedy` for one network width."""
        layers = len(weights)
        arguments = {"gemv": self.blas[1], "layers": layers, "state": np.zeros(units[0])}
        for i in range(layers):
            layer = {
                "inputs": units[i], "outputs": units[i + 1],
                "stride": weights[i].shape[1], "weight": weights[i],
                "bias": biases[i], "act": np.zeros(units[i + 1]),
            }
            arguments.update((f"layer{i}_{key}", value) for key, value in layer.items())
        layout = layered(GREEDY_SLOTS, GREEDY_LAYER_SLOTS, layers)
        return ArgumentTable(layout, (), arguments)

    def dqn_greedy(self, table: ArgumentTable, state: np.ndarray) -> int:
        """``np.argmax`` of the Q-values of one float64 ``state``.

        The Q-values are left in the last layer's ``act`` buffer.
        """
        table.buffers["state"][...] = state
        _obs.kernel_call("dqn_greedy")
        return self._greedy(table.values_address)


bind = DqnKernels


def self_test(kernel: DqnKernels) -> bool:
    """One train step at a reduced width (row-strided weight views) that
    bootstraps at the full one, on row-strided states as replay samples
    are, with a dead hidden unit and a firing clip; then a greedy action at
    the reduced width on the updated parameters."""
    from repro.rl.dqn import DqnConfig, DqnLearner
    from repro.rl.optimizer import Adam
    from repro.rl.replay import TransitionBatch
    from repro.rl.slimmable import SlimmableMLP

    rng = np.random.default_rng(2024)
    network = SlimmableMLP(5, (6, 5), 3, widths=(0.75, 1.0), rng=rng)
    network.biases[0][1] = -1e3  # hidden unit 1 never fires
    learner = DqnLearner(
        network, DqnConfig(discount=0.9, max_grad_norm=0.05), Adam(learning_rate=0.01)
    )
    batch = 7
    # Replay samples are row-strided views into a (capacity, 2·dim) buffer.
    inputs = (learner, rng.normal(size=(batch, 10)), rng.integers(3, size=batch))
    inputs += (rng.normal(size=batch), rng.normal(size=5))

    def step(dqn):
        def run(learner, samples, actions, rewards, state):
            learner._dqn = dqn
            transitions = TransitionBatch(
                samples[:, :5], actions, rewards, samples[:, 5:], np.ones(batch), 1.0
            )
            loss = learner.train_batch(transitions, width=0.75)
            action = learner.greedy_action(state, 0.75)
            tables = {**learner._step_tables, **learner._greedy_tables}
            if dqn is not None and None in tables.values():
                raise LookupError("a kernel left the step to NumPy")
            q = learner.q_values(state, 0.75)
            if tables:
                q = tables[0.75].buffers[f"layer{network.num_layers - 1}_act"]
            return loss, action, q, learner.state_dict()

        return run

    return differential(inputs, step(kernel), step(None))
