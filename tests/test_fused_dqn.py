"""Bitwise agreement of the fused DQN kernels with the NumPy path.

``dqn_train_step`` runs a whole :meth:`DqnLearner.train_batch` step in one C
call and ``dqn_greedy`` a whole greedy action; both call the BLAS NumPy
itself loaded, with the arguments ``np.matmul``/``np.dot`` pass.  These
tests run the same training trajectory with the kernels and under
``REPRO_FUSED=0`` (the pure NumPy reference) and compare every loss, the
flat gradient of every step, the online and target parameters and both Adam
moments through their int64 bit patterns.  They also check which learners
and batches stay on the NumPy path, that the BLAS-backed kernels turn off
on their own, and that a learner (or a Lotus agent) pickles and deep-copies
into an independent twin.
"""

from __future__ import annotations

import contextlib
import copy
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro.kernels as kernels
from repro import obs
from repro.hardware.devices.registry import build_device
from repro.hardware.fleet import DeviceFleet
from repro.kernels import build, resolve
from repro.core.agent import LotusAgent
from repro.errors import AgentError
from repro.rl.dqn import DqnConfig, DqnLearner
from repro.rl.optimizer import Adam
from repro.rl.replay import ReplayBuffer, TransitionBatch
from repro.rl.schedule import CosineDecaySchedule
from repro.rl.slimmable import SlimmableMLP

needs_dqn = pytest.mark.skipif(
    kernels.fused_dqn() is None, reason="fused DQN kernels unavailable on this host"
)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@contextlib.contextmanager
def _resolution(monkeypatch, enabled: bool, blas: bool = True):
    """A fresh kernel resolution (restored on exit), as a new process gets;
    yields the kernel library, or ``None`` when kernels are off or unbuilt."""
    with monkeypatch.context() as patch:
        patch.setattr(resolve, "_kernels", {})
        patch.setattr(resolve, "_status", {})
        patch.setenv("REPRO_FUSED", "1" if enabled else "0")
        if not blas:
            patch.setattr(build, "numpy_blas", lambda: None)
        yield build.library()[0] if build.enabled() else None


_TRAIN_STEP_CALLS = ("fused.kernel_calls", (("kernel", "dqn_train_step"),))
_GREEDY_CALLS = ("fused.kernel_calls", (("kernel", "dqn_greedy"),))


def _bits(array) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64).copy()


def _learner(inputs=7, hidden=(12, 10, 8), outputs=9, widths=(0.75, 1.0), **config):
    network = SlimmableMLP(
        inputs, hidden, outputs, widths=widths, rng=np.random.default_rng(3)
    )
    return DqnLearner(
        network,
        config=DqnConfig(**config),
        optimizer=Adam(learning_rate=0.01),
        learning_rate_schedule=CosineDecaySchedule(
            initial=0.01, decay_steps=50, final=1e-4
        ),
    )


def _buffers(learner, widths, rewards=(0.0, 1.0), size=96, seed=11):
    """One replay buffer per train width, bootstrapping at the other width."""
    rng = np.random.default_rng(seed)
    dim, actions = learner.network.input_dim, learner.network.output_dim
    buffers = {}
    for index, width in enumerate(widths):
        buffer = ReplayBuffer(size)
        for _ in range(size):
            buffer.append(
                rng.normal(size=dim), int(rng.integers(actions)),
                float(rng.normal(*rewards)), rng.normal(size=dim),
                widths[(index + 1) % len(widths)],
            )
        buffers[width] = buffer
    return buffers


def _grad(learner, width, next_width, batch_size):
    """The flat (clipped) gradient of the learner's last step at ``width``,
    from the kernel's table or the NumPy path's gradient scratch."""
    table = learner._step_tables.get((width, next_width, batch_size))
    if table is not None:
        return table.buffers["grad"]
    return learner._grad_scratch[width][0]


def _snapshot(learner) -> dict:
    return {
        "online": _bits(learner.network.flat_parameters),
        "target": _bits(learner.target_network.flat_parameters),
        "first": _bits(learner.optimizer._m_flat),
        "second": _bits(learner.optimizer._v_flat),
    }


def _trajectory(
    make, steps, batch_size, widths=(0.75, 1.0), rewards=(0.0, 1.0), edit=None,
    numpy_path=False,
):
    """Losses, per-step gradients and final state of a seeded training run.

    ``numpy_path`` keeps the learner off the DQN kernels while the other
    fused kernels stay on.
    """
    learner = make()
    if edit is not None:
        edit(learner)
    if numpy_path:
        learner._dqn = None
    buffers = _buffers(learner, widths, rewards)
    rng = np.random.default_rng(5)
    losses, grads = [], []
    for step in range(steps):
        width = widths[step % len(widths)]
        batch = buffers[width].sample(batch_size, rng)
        losses.append(learner.train_batch(batch, width=width))
        grads.append(_bits(_grad(learner, width, batch.uniform_next_width, batch_size)))
    return {"losses": _bits(losses), "grads": grads, **_snapshot(learner)}, learner


def _assert_same(a: dict, b: dict) -> None:
    for key in a:
        if key == "grads":
            assert len(a[key]) == len(b[key])
            for step, (x, y) in enumerate(zip(a[key], b[key])):
                assert np.array_equal(x, y), f"gradient of step {step} differs"
        else:
            assert np.array_equal(a[key], b[key]), f"{key} differs"


def _fused_vs_numpy(monkeypatch, make, steps, batch_size, **kwargs):
    """Run with the kernels, under REPRO_FUSED=0, and on the NumPy path."""
    with _resolution(monkeypatch, enabled=False):
        reference, _ = _trajectory(make, steps, batch_size, **kwargs)
    with _resolution(monkeypatch, enabled=True):
        numpy_path, _ = _trajectory(make, steps, batch_size, numpy_path=True, **kwargs)
        result, learner = _trajectory(make, steps, batch_size, **kwargs)
    _assert_same(result, reference)
    _assert_same(result, numpy_path)
    return learner


def _fused_steps(learner) -> int:
    return sum(table is not None for table in learner._step_tables.values())


@needs_dqn
class TestTrainStep:
    @pytest.mark.parametrize("batch_size", [8, 64])
    def test_lotus_widths_match_numpy_bitwise(self, monkeypatch, batch_size):
        learner = _fused_vs_numpy(
            monkeypatch, lambda: _learner(batch_size=batch_size), 16, batch_size
        )
        assert _fused_steps(learner) == 2  # both (width, next width) pairs

    def test_single_width_ztt_matches_numpy_bitwise(self, monkeypatch):
        learner = _fused_vs_numpy(
            monkeypatch, lambda: _learner(hidden=(16, 16), widths=(1.0,)), 12, 32,
            widths=(1.0,),
        )
        assert _fused_steps(learner) == 1

    def test_target_sync_mid_run(self, monkeypatch):
        learner = _fused_vs_numpy(
            monkeypatch, lambda: _learner(target_sync_interval=5), 13, 16
        )
        assert learner.train_steps == 13
        assert not np.array_equal(
            learner.network.flat_parameters, learner.target_network.flat_parameters
        )

    def test_clip_fires(self, monkeypatch):
        learner = _fused_vs_numpy(
            monkeypatch, lambda: _learner(max_grad_norm=0.001), 10, 16
        )
        grad = learner._step_tables[(1.0, 0.75, 16)].buffers["grad"]
        assert np.isclose(np.sqrt(np.dot(grad, grad)), 0.001)

    def test_no_clip_and_lr_schedule_free(self, monkeypatch):
        def make():
            learner = _learner(max_grad_norm=0.0)
            learner.learning_rate_schedule = None
            return learner

        _fused_vs_numpy(monkeypatch, make, 8, 16)

    def test_dead_relu_columns_keep_numpys_signed_zeros(self, monkeypatch):
        """A hidden unit that never fires, under a gradient of one sign.

        Its masked gradient column is all -0.0; NumPy's column sum starts
        from +0.0, so the unit's bias gradient must be +0.0, not -0.0.
        """

        def kill_last_hidden_unit(learner):
            net = learner.network
            net.biases[-2][:] = 0.5
            net.biases[-2][5] = -1e3
            net.weights[-1][5, :] = 0.25
            learner.sync_target()

        # Rewards far above every Q-value: every TD error is negative.
        learner = _fused_vs_numpy(
            monkeypatch, _learner, 6, 16, rewards=(500.0, 1.0),
            edit=kill_last_hidden_unit,
        )
        grad = _grad(learner, 1.0, 0.75, 16)
        units = learner.network.active_units_for_width(1.0)
        # The last hidden layer's bias gradient sits just before the output
        # layer's weights and biases in the flat gradient.
        tail = units[-2] * units[-1] + units[-1]
        bias_grad = grad[-(tail + units[-2]) : -tail]
        assert bias_grad[5] == 0.0 and not np.signbit(bias_grad[5])

    def test_out_of_range_action_falls_back(self, monkeypatch):
        learner = _learner()
        batch = _buffers(learner, (0.75, 1.0))[1.0].sample(8, np.random.default_rng(0))
        bad = TransitionBatch(
            batch.states, np.full(8, 99), batch.rewards, batch.next_states,
            batch.next_widths, batch.uniform_next_width,
        )
        before = _snapshot(learner)
        with pytest.raises(AgentError, match="actions must lie in"):
            learner.train_batch(bad, width=1.0)
        assert learner.optimizer.step_count == 0
        assert np.array_equal(before["online"], _bits(learner.network.flat_parameters))


@needs_dqn
class TestNumpyPathKept:
    @pytest.mark.parametrize(
        "kwargs, batch_size",
        [
            ({}, 1),  # a one-row batch: NumPy uses gemv
            ({"hidden": (12, 1)}, 8),  # a one-unit hidden layer
            ({"hidden": (12, 2), "widths": (0.5, 1.0)}, 8),  # one unit at width 0.5
            ({"outputs": 1}, 8),  # a single action
            ({"inputs": 1}, 8),  # a one-feature state
        ],
    )
    def test_unit_dimensions(self, monkeypatch, kwargs, batch_size):
        widths = kwargs.get("widths", (0.75, 1.0))
        learner = _fused_vs_numpy(
            monkeypatch, lambda: _learner(**kwargs), 6, batch_size, widths=widths
        )
        assert len(learner._step_tables) == 2
        assert _fused_steps(learner) == 0

    def test_mixed_next_widths(self, monkeypatch):
        def run():
            learner = _learner()
            rng = np.random.default_rng(2)
            buffer = ReplayBuffer(64)
            for index in range(64):
                buffer.append(
                    rng.normal(size=7), int(rng.integers(9)), float(rng.normal()),
                    rng.normal(size=7), (0.75, 1.0)[index % 2],
                )
            registry = obs.enable()
            try:
                losses = [
                    learner.train_batch(buffer.sample(16, rng), width=1.0)
                    for _ in range(6)
                ]
            finally:
                obs.disable()
            return _bits(losses), _snapshot(learner), registry.counters

        with _resolution(monkeypatch, enabled=False):
            losses_ref, state_ref, _ = run()
        with _resolution(monkeypatch, enabled=True):
            losses, state, counters = run()
        assert _TRAIN_STEP_CALLS not in counters
        assert np.array_equal(losses, losses_ref)
        _assert_same(state, state_ref)

    def test_column_strided_states(self, monkeypatch):
        """States np.matmul would not hand to gemm as they are."""

        def run():
            learner = _learner()
            batch = _buffers(learner, (0.75, 1.0))[1.0].sample(8, np.random.default_rng(0))
            strided = TransitionBatch(
                np.repeat(batch.states, 2, axis=1)[:, ::2], batch.actions,
                batch.rewards, batch.next_states, batch.next_widths,
                batch.uniform_next_width,
            )
            registry = obs.enable()
            try:
                loss = learner.train_batch(strided, width=1.0)
            finally:
                obs.disable()
            return _bits([loss]), _snapshot(learner), registry.counters

        with _resolution(monkeypatch, enabled=False):
            loss_ref, state_ref, _ = run()
        with _resolution(monkeypatch, enabled=True):
            loss, state, counters = run()
        assert _TRAIN_STEP_CALLS not in counters
        assert np.array_equal(loss, loss_ref)
        _assert_same(state, state_ref)


@pytest.mark.parametrize("enabled", [False, True], ids=["numpy", "fused"])
@pytest.mark.parametrize(
    "row, action", [(0, 3), (7, 3), (1, -1)], ids=["first-row", "last-row", "negative"]
)
def test_out_of_range_actions_are_refused(monkeypatch, enabled, row, action):
    """An action outside a 3-action network is an AgentError and changes
    nothing, whichever path trains: unchecked, the flat gather would read a
    neighbouring row's Q-value (or index past the batch)."""
    with _resolution(monkeypatch, enabled=enabled):
        learner = _learner(outputs=3)
        batch = _buffers(learner, (0.75, 1.0))[1.0].sample(8, np.random.default_rng(0))
        actions = batch.actions.copy()
        actions[row] = action
        bad = TransitionBatch(
            batch.states, actions, batch.rewards, batch.next_states,
            batch.next_widths, batch.uniform_next_width,
        )
        online = _bits(learner.network.flat_parameters)
        target = _bits(learner.target_network.flat_parameters)
        with pytest.raises(AgentError, match=r"actions must lie in \[0, 3\)"):
            learner.train_batch(bad, width=1.0)
        assert learner.train_steps == 0 and learner.optimizer.step_count == 0
        assert np.array_equal(_bits(learner.network.flat_parameters), online)
        assert np.array_equal(_bits(learner.target_network.flat_parameters), target)


@pytest.mark.parametrize("enabled", [False, True], ids=["numpy", "fused"])
@pytest.mark.parametrize("steps", [0, 3], ids=["fresh", "trained"])
def test_a_refused_batch_changes_no_state(monkeypatch, enabled, steps):
    """A batch with an out-of-range action leaves ``state_dict()`` as it
    was, optimizer included: a fresh learner gains no moments and a trained
    one keeps its scheduled learning rate."""
    with _resolution(monkeypatch, enabled=enabled):
        learner = _learner(outputs=3)
        buffer = _buffers(learner, (0.75, 1.0))[1.0]
        rng = np.random.default_rng(0)
        for _ in range(steps):
            learner.train_batch(buffer.sample(8, rng), width=1.0)
        batch = buffer.sample(8, rng)
        bad = TransitionBatch(
            batch.states, np.full(8, 3), batch.rewards, batch.next_states,
            batch.next_widths, batch.uniform_next_width,
        )
        before = copy.deepcopy(learner.state_dict())
        with pytest.raises(AgentError, match="actions must lie in"):
            learner.train_batch(bad, width=1.0)
        assert resolve.same_bits(learner.state_dict(), before)
        # The learner then trains as if the batch never came.
        expected = copy.deepcopy(learner)
        assert learner.train_batch(batch, width=1.0) == expected.train_batch(batch, width=1.0)
        assert resolve.same_bits(learner.state_dict(), expected.state_dict())


@needs_dqn
def test_one_kernel_call_per_train_batch():
    learner = _learner()
    buffers = _buffers(learner, (0.75, 1.0))
    rng = np.random.default_rng(0)
    registry = obs.enable()
    try:
        for step in range(10):
            width = (0.75, 1.0)[step % 2]
            learner.train_batch(buffers[width].sample(16, rng), width=width)
    finally:
        obs.disable()
    calls = {
        dict(labels)["kernel"]: count
        for (name, labels), count in registry.counters.items()
        if name == "fused.kernel_calls"
    }
    assert calls == {"dqn_train_step": 10}


@needs_dqn
class TestGreedy:
    def test_matches_numpy_q_values_and_argmax(self):
        learner = _learner()
        states = np.random.default_rng(4).normal(size=(40, 7))
        for width in (0.75, 1.0):
            for state in states:
                expected = int(np.argmax(learner.q_values(state, width)))
                assert learner.greedy_action(state, width) == expected
            table = learner._greedy_tables[width]
            q = table.buffers[f"layer{learner.network.num_layers - 1}_act"]
            assert np.array_equal(_bits(q), _bits(learner.q_values(states[-1], width)))

    @pytest.mark.parametrize(
        "bias, expected",
        [
            ([0.0, 3.0, 1.0, 3.0, -2.0], 1),  # a tie: the first maximum wins
            ([0.0, 3.0, np.nan, 3.0, np.nan], 2),  # the first NaN wins
            ([np.nan, 3.0, 1.0, 3.0, -2.0], 0),
            ([-0.0, 0.0, -1.0, 0.0, -0.0], 0),  # signed-zero tie
        ],
    )
    def test_ties_and_nan(self, bias, expected):
        learner = _learner(outputs=5)
        learner.network.weights[-1][...] = 0.0
        learner.network.biases[-1][...] = bias
        state = np.ones(7)
        for width in (0.75, 1.0):
            assert np.argmax(learner.q_values(state, width)) == expected
            registry = obs.enable()
            try:
                assert learner.greedy_action(state, width) == expected
            finally:
                obs.disable()
            assert registry.counters[_GREEDY_CALLS] == 1

    def test_unit_layer_and_odd_states_use_numpy(self):
        learner = _learner(hidden=(12, 1))
        state = np.random.default_rng(0).normal(size=7)
        assert learner.greedy_action(state) == int(np.argmax(learner.q_values(state)))
        assert learner._greedy_tables[1.0] is None
        learner = _learner()
        learner.greedy_action(state[None, :])  # a (1, dim) batch
        learner.greedy_action(np.repeat(state, 2)[::2])  # a strided state
        assert learner._greedy_tables == {}


def _continue(learner, steps=12, seed=9):
    """Train ``steps`` more steps at both widths from fixed batches."""
    buffers = _buffers(learner, (0.75, 1.0), seed=seed)
    rng = np.random.default_rng(seed)
    losses = [
        learner.train_batch(buffers[width].sample(16, rng), width=width)
        for width in (0.75, 1.0) * (steps // 2)
    ]
    return {"losses": _bits(losses), **_snapshot(learner)}


@pytest.mark.parametrize("enabled", [False, True])
@pytest.mark.parametrize("clone", ["pickle", "deepcopy"])
def test_trained_learner_copies_train_like_the_original(monkeypatch, enabled, clone):
    with _resolution(monkeypatch, enabled=enabled):
        learner = _learner()
        _continue(learner, steps=8, seed=1)
        before = _snapshot(learner)
        twin = (
            pickle.loads(pickle.dumps(learner))
            if clone == "pickle"
            else copy.deepcopy(learner)
        )
        _assert_same(_snapshot(learner), before)
        for each in (learner, twin):
            assert each.network._pair_owner is each
            assert np.shares_memory(each._pair_buffer, each.network.flat_parameters)
            assert np.shares_memory(each._pair_buffer, each.target_network.flat_parameters)
        assert not np.shares_memory(twin._pair_buffer, learner._pair_buffer)
        _assert_same(_continue(twin), _continue(learner))


@pytest.mark.parametrize("clone", ["pickle", "deepcopy"])
def test_trained_lotus_agent_copies(clone):
    agent = LotusAgent(6, 5, 60.0, 300.0)
    _continue(agent.learner, steps=4, seed=1)
    twin = (
        pickle.loads(pickle.dumps(agent)) if clone == "pickle" else copy.deepcopy(agent)
    )
    assert twin.network is twin.learner.network
    _assert_same(_continue(twin.learner), _continue(agent.learner))


def test_blas_lookup_failure_turns_off_only_the_dqn_kernels(monkeypatch):
    with _resolution(monkeypatch, enabled=False):
        reference, _ = _trajectory(_learner, 8, 16)
    with _resolution(monkeypatch, enabled=True, blas=False) as kernel:
        if kernel is None:
            pytest.skip("fused kernels unavailable on this host")
        assert kernels.fused_dqn() is None and kernels.fused_fleet() is not None
        status = kernels.kernel_status()
        assert (status["fleet"], status["dqn"]) == ("fused", "numpy")
        registry = obs.enable()
        try:
            result, learner = _trajectory(_learner, 8, 16)
            learner.greedy_action(np.ones(7))
            DeviceFleet(build_device("jetson-orin-nano"), 7).execute(np.full(7, 20.0), 0.5, 0.5)
        finally:
            obs.disable()
        assert learner._dqn is None
        names = {
            dict(labels)["kernel"]
            for name, labels in registry.counters
            if name == "fused.kernel_calls"
        }
        assert "fleet_device_execute" in names
        assert not names & {"dqn_train_step", "dqn_greedy"}
    _assert_same(result, reference)


def test_dqn_resolution_is_its_own_event(monkeypatch):
    registry = obs.enable()
    try:
        with _resolution(monkeypatch, enabled=True, blas=False) as kernel:
            if kernel is None:
                pytest.skip("fused kernels unavailable on this host")
            assert kernels.fused_dqn() is None
            assert kernels.fused_dqn() is None  # resolved once
    finally:
        obs.disable()
    events = [e["fields"] for e in registry.events if e["name"] == "fused.resolved"]
    assert events == [{"family": "dqn", "status": "numpy", "reason": "symbol missing"}]


def test_dqn_kernels_resolve_where_numpy_exports_its_blas():
    """Where NumPy's BLAS is found, a self-test failure would be a bug."""
    if kernels.fused_fleet() is None or build.numpy_blas() is None:
        pytest.skip("no fused kernels, or NumPy is built on another BLAS")
    assert kernels.fused_dqn() is not None


def test_a_process_without_a_learner_never_resolves_the_dqn_kernels():
    """Fleet-only processes skip the DQN self-test (and OpenBLAS's buffers)."""
    code = (
        "from repro import ExperimentSetting, run_fleet\n"
        "from repro.kernels import kernel_status\n"
        "run_fleet(ExperimentSetting(num_frames=8, seed=0), 'default', 4)\n"
        "status = kernel_status()\n"
        "assert status['dqn'] in ('unresolved', 'disabled'), status\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (env.get("PYTHONPATH"), "src") if p)
    subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=REPO_ROOT)
