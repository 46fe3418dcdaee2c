"""Bitwise agreement tests for the fleet, random and bias + ReLU kernels.

Every kernel in :mod:`repro.kernels` that the batched simulator uses (the
per-segment ``fleet_device_execute`` with its RC sub-stepping and leakage
``exp``, the per-stage ``fleet_stage``, ``fleet_request_levels``, the
governors' ``fleet_select_levels``, the clipped AR(1) stream advance, the
rint/clip proposal tail, the per-session normal draw), and the bias-add +
ReLU the DQN kernels run for each hidden layer, must produce output
**bit-identical** to the NumPy (or ``math``) expressions it replaces —
that is the whole contract that lets ``REPRO_FUSED=0`` remain a pure kill
switch rather than a different numerical mode.  These tests re-state each kernel's NumPy reference
inline and compare against the C output through int64 bit patterns over
randomized shapes and fill levels; the device kernel is driven through
:class:`~repro.hardware.fleet.DeviceFleet` against its NumPy path, and the
bias + ReLU through a :class:`~repro.rl.dqn.DqnLearner`'s kernels.  The
stage, request and governor kernels are bound without their family's
self-test (``raw``), so a kernel that disagrees with NumPy fails here
rather than falling back in silence.

When the toolchain is unavailable (``fused_fleet()`` returns ``None``)
the kernel-vs-reference tests skip; the kill-switch test always runs,
in a subprocess so it sees a fresh resolution cache.  The copy-safety,
no-aliasing and fused-on-vs-off tests run whole fleet segments and frames.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro.detection.fleet
import repro.env.fleet
import repro.governors.fleet
import repro.hardware.fleet
import repro.kernels.fleet
import repro.kernels.random
import repro.workload.fleet
from repro.detection.fleet import BatchedExecutionModel, propose_batch
from repro.detection.latency import compute_profile_for
from repro.detection.registry import build_detector
from repro.env.ambient import LinearRampAmbient
from repro.env.fleet import _FRAME_RESULT_ARRAY_FIELDS, BatchedInferenceEnvironment
from repro.errors import DetectorError, DeviceError
from repro.governors.fleet import (
    BatchedOndemandGovernor,
    BatchedSchedutilGovernor,
    BatchedSimpleOndemandGovernor,
    batched_msm_adreno_tz,
    batched_nvhost_podgov,
)
from repro.hardware.devices.registry import build_device
from repro.hardware.fleet import DeviceFleet
from repro.hardware.thermal import ThermalNetwork, ThermalNodeConfig
from repro.kernels import (
    SessionGenerators,
    build,
    check_scales,
    fused_dqn,
    fused_fleet,
    fused_random,
)
from repro.kernels.random import bitgen_address
from repro.rl.dqn import DqnConfig, DqnLearner
from repro.rl.optimizer import Adam
from repro.rl.replay import TransitionBatch
from repro.rl.slimmable import SlimmableMLP
from repro.workload.dataset import build_dataset
from repro.workload.fleet import FleetFrameStream

kernel = fused_fleet()


def _raw_fleet_kernels():
    """The fleet kernels bound straight from the library, without the
    family's self-test, or ``None`` where they cannot be built."""
    library = build.library()[0] if build.enabled() else None
    try:
        return None if library is None else repro.kernels.fleet.bind(library)
    except AttributeError:
        return None


raw = _raw_fleet_kernels()

needs_kernel = pytest.mark.skipif(
    kernel is None, reason="fused kernels unavailable on this host"
)
needs_raw = pytest.mark.skipif(
    raw is None, reason="fleet kernels unavailable on this host"
)
needs_relu = pytest.mark.skipif(
    fused_dqn() is None, reason="fused DQN kernels (bias + ReLU) unavailable on this host"
)
needs_normal = pytest.mark.skipif(
    fused_random() is None, reason="fused normal draws unavailable on this host"
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# NumPy references (mirror the REPRO_FUSED=0 fallback paths exactly)
# ---------------------------------------------------------------------------


def reference_thermal_advance(
    temps, power, ambient, resistance, heat_capacity, couplings,
    remaining, max_substep,
):
    """The NumPy sub-stepping loop of ``DeviceFleet.advance_thermal``."""
    temps = temps.copy()
    remaining = remaining.copy()
    nodes = temps.shape[0]
    while True:
        dt = np.minimum(remaining, max_substep)
        dt[remaining <= 1e-12] = 0.0
        if not np.any(dt > 0.0):
            break
        deltas = np.empty_like(temps)
        for row in range(nodes):
            coupled = np.zeros(temps.shape[1])
            for a, b, c in couplings:
                if a == row:
                    coupled = coupled + c * (temps[row] - temps[b])
                elif b == row:
                    coupled = coupled + c * (temps[row] - temps[a])
            leak = (temps[row] - ambient) / resistance[row]
            deltas[row] = (power[row] - leak - coupled) / heat_capacity[row] * dt
        temps += deltas
        remaining = remaining - dt
    return temps


def reference_ar1_advance(current, mean, corr, innovations, minimum, maximum):
    """The NumPy value/clip expression of ``WorkloadStreams.next_frames``."""
    value = mean + corr * (current - mean) + innovations
    return np.clip(value, minimum, maximum)


def reference_proposal_tail(
    scene, keep_ratio, factor, min_proposals, max_proposals
):
    """The NumPy rint/clip tail of ``propose_batch``."""
    expected = scene * keep_ratio
    if factor is not None:
        expected = expected * factor
    return np.clip(
        np.rint(expected), min_proposals, max_proposals
    ).astype(np.int64)


def reference_layer0(learner, x):
    """``SlimmableMLP``'s first hidden layer on ``x``: ``z = x @ w``,
    ``z += b``, then ``maximum(z, 0.0)``."""
    network = learner.network
    z = np.matmul(x, network.weights[0])
    z += network.biases[0]
    return z, np.maximum(z, 0.0)


def reference_normal(rngs, scales):
    """One ``Generator.normal(0.0, scale)`` call per session."""
    return np.array([rng.normal(0.0, s) for rng, s in zip(rngs, scales.tolist())])


def _same_state(a, b) -> bool:
    """Equality of two ``bit_generator.state`` values (nested dicts of arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


def assert_bitwise_equal(a, b, label):
    __tracebackhide__ = True
    assert a.dtype == b.dtype and a.shape == b.shape
    if a.dtype.kind == "f":
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), label
    else:
        assert np.array_equal(a, b), label


# ---------------------------------------------------------------------------
# Kernel vs reference
# ---------------------------------------------------------------------------


def _device_fleet(rng, nodes, couplings, n, temperatures):
    """A ``nodes``-node Jetson fleet (CPU, GPU, then passive nodes) at the
    given temperatures, with random per-session ambients."""
    device = build_device("jetson-orin-nano")
    names = ["cpu", "gpu", *[f"node{i}" for i in range(2, nodes)]]
    thermal = ThermalNetwork(
        nodes=[
            ThermalNodeConfig(
                name=name,
                heat_capacity_j_per_c=float(rng.uniform(2.0, 20.0)),
                resistance_to_ambient_c_per_w=float(rng.uniform(1.0, 6.0)),
            )
            for name in names
        ],
        couplings={(names[a], names[b]): c for a, b, c in couplings},
    )
    fleet = DeviceFleet(
        dataclasses.replace(device, thermal=thermal), n, rng.uniform(15.0, 35.0, n)
    )
    state = fleet.state_dict()
    state["temperatures"][:] = temperatures
    fleet.load_state_dict(state)
    return fleet


def _fused_and_numpy(fleet, monkeypatch, *segment):
    """One segment on the kernel and, on a copy, on the NumPy path."""
    twin = copy.deepcopy(fleet)
    fused = fleet.execute(*segment)
    with monkeypatch.context() as patch:
        _use_numpy_fallback(patch)
        expected = twin.execute(*segment)
    for field in dataclasses.fields(fused):
        assert_bitwise_equal(
            getattr(fused, field.name), getattr(expected, field.name),
            f"{field.name} differs",
        )
    for name, value in fleet.state_dict().items():
        assert_bitwise_equal(np.asarray(value), np.asarray(twin.state_dict()[name]), name)
    return fused


@needs_kernel
class TestFleetThermalAdvance:
    """The RC sub-stepping inside ``fleet_device_execute``, driven through
    ``DeviceFleet``: kernel vs. ``_execute_numpy`` and vs. the inline
    reference loop, over zero, sub-step-length and multi-step durations."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_numpy_substepping_bitwise(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        nodes = int(rng.integers(2, 5))
        n = int(rng.integers(1, 40))
        couplings = [
            (a, b, float(rng.uniform(0.05, 1.0)))
            for a in range(nodes)
            for b in range(a + 1, nodes)
            if rng.random() < 0.6
        ]
        temps = rng.uniform(30.0, 80.0, (nodes, n))
        fleet = _device_fleet(rng, nodes, couplings, n, temps)
        # Mixed durations: some sessions idle (zero), some mid-sub-step.
        duration = rng.uniform(0.0, 330.0, n)
        duration[rng.random(n) < 0.25] = 0.0
        telemetry = _fused_and_numpy(
            fleet, monkeypatch, duration, rng.uniform(0.2, 1.0, n), rng.uniform(0.2, 1.0, n)
        )
        power = np.zeros((nodes, n))
        power[0], power[1] = telemetry.cpu_power_w, telemetry.gpu_power_w
        expected = reference_thermal_advance(
            temps, power, fleet.ambient_temperature_c, fleet._resistance,
            fleet._heat_capacity, fleet._couplings, duration / 1e3, fleet.max_substep_s,
        )
        assert_bitwise_equal(
            fleet._temperatures, expected, f"thermal temps differ (seed {seed})"
        )

    def test_zero_duration_is_a_no_op(self, monkeypatch):
        rng = np.random.default_rng(99)
        temps = rng.uniform(30.0, 80.0, (2, 7))
        fleet = _device_fleet(rng, 2, [(0, 1, 0.4)], 7, temps)
        telemetry = _fused_and_numpy(fleet, monkeypatch, np.zeros(7), 0.8, 0.9)
        assert_bitwise_equal(fleet._temperatures, temps, "zero-duration advance mutated temps")
        assert not telemetry.energy_j.any()


@needs_kernel
class TestFleetAr1Advance:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_numpy_clip_bitwise(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 129))
        mean = rng.uniform(20.0, 60.0, n)
        corr = rng.uniform(0.0, 0.99, n)
        minimum = mean - rng.uniform(5.0, 30.0, n)
        maximum = mean + rng.uniform(5.0, 30.0, n)
        # Seed some sessions outside the band so both clip edges engage.
        current = rng.uniform(-40.0, 140.0, n)
        innovations = rng.normal(0.0, 20.0, n)

        expected = reference_ar1_advance(
            current, mean, corr, innovations, minimum, maximum
        )
        got = current.copy()
        kernel.fleet_ar1_advance(
            kernel.ar1_table(got, mean, corr, innovations, minimum, maximum)
        )
        assert_bitwise_equal(got, expected, f"AR(1) values differ (seed {seed})")


@needs_kernel
class TestFleetProposalTail:
    #: rint must round half to even, exactly like np.rint.
    HALFWAY = np.array([0.5, 1.5, 2.5, 3.5, 4.5, -0.5])

    @pytest.mark.parametrize("with_factor", (False, True))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_numpy_rint_clip_bitwise(self, seed, with_factor):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(1, 200))
        scene = np.concatenate(
            [rng.uniform(0.0, 400.0, n), self.HALFWAY / 0.7]
        )
        factor = np.exp(rng.normal(0.0, 0.1, scene.size)) if with_factor else None
        keep_ratio, min_p, max_p = 0.7, 10.0, 300.0

        expected = reference_proposal_tail(scene, keep_ratio, factor, min_p, max_p)
        got = np.empty(scene.size, dtype=np.int64)
        kernel.fleet_proposal_tail(
            kernel.proposal_table(scene, keep_ratio, factor, min_p, max_p, got)
        )
        assert_bitwise_equal(got, expected, f"proposal counts differ (seed {seed})")

    def test_half_to_even_rounding(self):
        got = np.empty(self.HALFWAY.size, dtype=np.int64)
        kernel.fleet_proposal_tail(
            kernel.proposal_table(self.HALFWAY, 1.0, None, -100.0, 100.0, got)
        )
        assert got.tolist() == [0, 2, 2, 4, 4, -0]


def relu_learner(inputs, units, seed=0):
    """A learner whose first hidden layer has ``units`` units."""
    network = SlimmableMLP(
        inputs, (units, 3), 3, widths=(1.0,), rng=np.random.default_rng(seed)
    )
    return DqnLearner(network, DqnConfig(), Adam())


def kernel_layer0(learner, states):
    """The first hidden layer as the DQN kernels compute it, with NumPy's.

    ``dqn_greedy`` on ``states[0]`` writes the activation over the
    pre-activation; the training forward of one ``dqn_train_step`` on
    ``states`` keeps them apart.  Returns ``(greedy activation, training
    pre-activation, training activation)`` and the same from
    :func:`reference_layer0`, on the parameters before the step.
    """
    rows = states.shape[0]
    expected = (reference_layer0(learner, states[:1])[1], *reference_layer0(learner, states))
    learner.greedy_action(states[0])
    greedy = learner._greedy_tables[1.0].buffers["layer0_act"].copy()
    batch = TransitionBatch(
        states, np.zeros(rows, dtype=np.int64), np.zeros(rows), states,
        np.ones(rows), 1.0,
    )
    learner.train_batch(batch)
    table = learner._step_tables[(1.0, 1.0, rows)]
    got = (greedy[None, :], table.buffers["layer0_pre"], table.buffers["layer0_act"])
    return got, expected


def assert_layer0_matches(learner, states, label):
    __tracebackhide__ = True
    got, expected = kernel_layer0(learner, states)
    for part, a, b in zip(("greedy", "pre-activations", "activations"), got, expected):
        assert_bitwise_equal(a, b, f"{label}: {part} differ")


@needs_relu
class TestBiasRelu:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_numpy_bitwise(self, seed):
        rng = np.random.default_rng(300 + seed)
        rows = int(rng.integers(2, 65))
        inputs = int(rng.integers(2, 9))
        learner = relu_learner(inputs, int(rng.integers(2, 129)), seed)
        assert_layer0_matches(learner, rng.normal(0.0, 1.0, (rows, inputs)), "random")

    def test_aliased_output_matches(self):
        """``dqn_greedy`` runs the bias + ReLU in place: the activation
        overwrites the pre-activation buffer."""
        learner = relu_learner(5, 33, seed=7)
        state = np.random.default_rng(7).normal(0.0, 1.0, (1, 5))
        got, expected = kernel_layer0(learner, np.repeat(state, 2, axis=0))
        assert_bitwise_equal(got[0], expected[0], "aliased activations differ")

    def test_negative_zero_bias_tie(self):
        """maximum(±0.0, 0.0) keeps NumPy's tie rule bitwise, a NaN
        propagates: zero weights leave the bias (and signed-zero sums)."""
        learner = relu_learner(3, 6)
        learner.network.weights[0][...] = 0.0
        learner.network.biases[0][...] = [-0.0, 0.0, -0.0, 1.0, -1.0, np.nan]
        states = np.array([[-1.0, -2.0, -0.0], [1.0, -1.0, 0.0], [-0.0, -0.0, -0.0]])
        assert_layer0_matches(learner, states, "ties")


@needs_normal
class TestFleetNormal:
    @staticmethod
    def generators(family, n, seed):
        if family == "pcg64":
            return [np.random.default_rng(seed + i) for i in range(n)]
        return [np.random.Generator(np.random.Philox(seed + i)) for i in range(n)]

    @pytest.mark.parametrize("family", ("pcg64", "philox"))
    @pytest.mark.parametrize("n", (1, 7, 256))
    def test_matches_generator_normal_bitwise(self, n, family):
        rng = np.random.default_rng(400 + n)
        scales = rng.uniform(0.0, 40.0, n)
        scales[rng.random(n) < 0.2] = 0.0
        scales[0] = 0.0
        scales = check_scales(scales)
        reference = self.generators(family, n, seed=n)
        fused = SessionGenerators(self.generators(family, n, seed=n))
        for frame in range(3):
            assert_bitwise_equal(
                fused.normal(scales),
                reference_normal(reference, scales),
                f"draws differ ({family}, n={n}, frame {frame})",
            )
        for ref, got in zip(reference, fused):
            assert _same_state(ref.bit_generator.state, got.bit_generator.state)

    @pytest.mark.parametrize("family", ("pcg64", "philox"))
    def test_capsule_address_is_the_ctypes_interface_address(self, family):
        for rng in self.generators(family, 4, seed=21):
            assert bitgen_address(rng) == rng.bit_generator.ctypes.bit_generator.value

    def test_shared_scale_matches_generator_normal(self):
        reference = self.generators("pcg64", 9, seed=3)
        fused = SessionGenerators(self.generators("pcg64", 9, seed=3))
        expected = np.array([rng.normal(0.0, 0.08) for rng in reference])
        assert_bitwise_equal(fused.normal(0.08), expected, "shared-scale draws differ")

    def test_restored_state_draws_through_the_same_table(self):
        """``bit_generator.state = ...`` writes in place: no table rebuild."""
        fused = SessionGenerators(self.generators("pcg64", 5, seed=11))
        saved = [rng.bit_generator.state for rng in fused]
        first = fused.normal(1.5)
        for rng, state in zip(fused, saved):
            rng.bit_generator.state = state
        assert_bitwise_equal(fused.normal(1.5), first, "restored draws differ")


class TestScaleCheck:
    @pytest.mark.parametrize("bad", (-1.0, -0.0))
    def test_negative_scale_raises_like_generator_normal(self, bad):
        with pytest.raises(ValueError, match="scale < 0"):
            np.random.default_rng(0).normal(0.0, bad)
        with pytest.raises(ValueError, match="scale < 0"):
            check_scales([1.0, bad])
        with pytest.raises(ValueError, match="scale < 0"):
            SessionGenerators([np.random.default_rng(0)]).normal(bad)

    def test_nan_scale_passes(self):
        assert np.isnan(check_scales([np.nan])).all()

    def test_negative_zero_innovation_std_rejected_at_construction(self):
        """``-0.0`` passes the profile's ``< 0`` check but not NumPy's."""
        profile = dataclasses.replace(build_dataset("kitti"), complexity_std=-0.0)
        assert math.copysign(1.0, profile.scene_process().innovation_std) < 0
        with pytest.raises(ValueError, match="scale < 0"):
            np.random.default_rng(0).normal(0.0, profile.scene_process().innovation_std)
        with pytest.raises(ValueError, match="scale < 0"):
            FleetFrameStream(
                profile, [np.random.default_rng(0)], latency_constraint_ms=[400.0]
            )


@needs_kernel
class TestFleetExp:
    """The leakage ``exp`` of ``fleet_device_execute`` must be libm's, as
    ``math.exp``: leakage exponents across the capped range, and the edges
    of ``exp``'s domain written into the fleet's temperature buffer."""

    EDGES = np.array([0.0, -0.0, -745.0, 709.0, np.nan])

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_math_exp_bitwise(self, seed, monkeypatch):
        rng = np.random.default_rng(500 + seed)
        device = build_device("jetson-orin-nano")
        models = (device.cpu.power_model, device.gpu.power_model)
        exponents = np.concatenate([rng.uniform(-60.0, 4.0, 997), self.EDGES])
        # The CPU's temperatures give these leakage exponents; the GPU's
        # last five are the edges themselves.
        temps = np.stack([
            m.leakage_reference_temp_c + exponents / m.leakage_temp_coefficient
            for m in models
        ])
        temps[1, -5:] = self.EDGES
        n = temps.shape[1]
        fleet = _device_fleet(rng, 2, [(0, 1, 0.4)], n, temps)
        # Zero work and zero duration: each power is idle + 0.0 + leakage.
        telemetry = _fused_and_numpy(fleet, monkeypatch, np.zeros(n), 0.0, 0.0)
        for got, t, m in zip((telemetry.cpu_power_w, telemetry.gpu_power_w), temps, models):
            k, ref = m.leakage_temp_coefficient, m.leakage_reference_temp_c
            expected = np.array([
                (m.idle_power_w + 0.0) + m.leakage_power_w * math.exp(min(k * (v - ref), 4.0))
                for v in t.tolist()
            ])
            assert_bitwise_equal(got, expected, f"leakage exp differs (seed {seed})")


# ---------------------------------------------------------------------------
# Fleet frames: fused on vs off, copies, bounds
# ---------------------------------------------------------------------------


def _use_numpy_fallback(monkeypatch):
    """Run the fleet modules' NumPy fallbacks, as ``REPRO_FUSED=0`` does."""
    for module in (
        repro.hardware.fleet, repro.workload.fleet, repro.detection.fleet,
        repro.env.fleet, repro.governors.fleet,
    ):
        monkeypatch.setattr(module, "fused_fleet", lambda: None)
    monkeypatch.setattr(repro.kernels.random, "fused_random", lambda: None)


def _environment(n=6, seed=0):
    """A two-stage fleet whose ambient ramps, so every frame rebinds it."""
    return BatchedInferenceEnvironment(
        device=build_device("jetson-orin-nano"),
        detector=build_detector("faster_rcnn"),
        streams=FleetFrameStream(
            build_dataset("kitti"),
            [np.random.default_rng(seed + i) for i in range(n)],
            latency_constraint_ms=[400.0] * n,
        ),
        ambient=LinearRampAmbient(start_c=25.0, end_c=45.0, ramp_frames=12),
        rngs=[np.random.default_rng(seed + i + 1) for i in range(n)],
    )


def _frame_digest(result) -> str:
    digest = hashlib.sha256()
    for name in _FRAME_RESULT_ARRAY_FIELDS:
        column = np.ascontiguousarray(getattr(result, name))
        if column.dtype.itemsize == 8:
            column = column.view(np.int64)
        digest.update(column.tobytes())
    return digest.hexdigest()


def _step(env) -> str:
    env.begin_frame()
    env.run_first_stage()
    return _frame_digest(env.run_second_stage())


def _interrupted_run() -> list:
    """Frames with a mid-frame ``set_ambient`` and a mid-episode restore."""
    env = _environment()
    digests = [_step(env) for _ in range(4)]
    snapshot = copy.deepcopy(env.state_dict())
    digests += [_step(env) for _ in range(3)]
    env.begin_frame()
    env.run_first_stage()
    env.state.device.set_ambient(np.linspace(10.0, 60.0, env.num_sessions))
    digests.append(_frame_digest(env.run_second_stage()))
    env.load_state_dict(snapshot)
    digests += [_step(env) for _ in range(6)]
    return digests


@needs_kernel
def test_fused_matches_fallback_across_set_ambient_and_restore(monkeypatch):
    fused = _interrupted_run()
    with monkeypatch.context() as patch:
        _use_numpy_fallback(patch)
        fallback = _interrupted_run()
    assert fused == fallback


def _device_run(n: int) -> tuple[list, int, int]:
    """300 segments of a hot fleet through every kind of state change.

    Starts near the trip point, then cools (scalar ``set_ambient``), heats
    again (array ``set_ambient``), resets hot and restores a snapshot, with
    masked level requests, zero durations and utilisations outside
    [0, 1].  Returns every telemetry array and final state array, and how
    often a session engaged and released a throttle.
    """
    rng = np.random.default_rng(n)
    fleet = DeviceFleet(build_device("jetson-orin-nano"), n, rng.uniform(65.0, 75.0, n))
    cpu_levels, gpu_levels = fleet.cpu.num_levels, fleet.gpu.num_levels
    recorded, engaged, released = [], 0, 0
    previous = fleet.cpu_throttled | fleet.gpu_throttled
    for step in range(300):
        if step == 100:
            fleet.set_ambient(20.0)
        elif step == 150:
            fleet.set_ambient(rng.uniform(60.0, 90.0, n))
        elif step == 200:
            snapshot = fleet.state_dict()
        elif step == 230:
            fleet.reset(rng.uniform(75.0, 85.0, n))
        elif step == 260:
            fleet.load_state_dict(snapshot)
        if step % 5 == 0:
            mask = rng.random(n) < 0.5
            cpu = rng.integers(0, cpu_levels, n)
            cpu[~mask] = 99  # out of range, but masked out
            fleet.request_levels(cpu, rng.integers(0, gpu_levels, n), mask=mask)
        elif step % 5 == 2:
            fleet.request_levels(cpu_levels - 1, int(rng.integers(0, gpu_levels)))
        duration = rng.uniform(0.0, 400.0, n)
        duration[rng.random(n) < 0.1] = 0.0
        utilisation = rng.uniform(0.5, 1.2, (2, n))
        utilisation[:, rng.random(n) < 0.1] = -0.25
        telemetry = fleet.execute(duration, utilisation[0], utilisation[1])
        recorded += [getattr(telemetry, f.name) for f in dataclasses.fields(telemetry)]
        throttled = telemetry.any_throttled
        engaged += int((~previous & throttled).sum())
        released += int((previous & ~throttled).sum())
        previous = throttled
    idle = fleet.idle(np.full(n, 50.0))
    recorded += [getattr(idle, f.name) for f in dataclasses.fields(idle)]
    recorded += [np.asarray(value) for value in fleet.state_dict().values()]
    return recorded, engaged, released


@needs_kernel
@pytest.mark.parametrize("n", (1, 7, 256))
def test_device_execute_fused_matches_fallback(n, monkeypatch):
    fused, engaged, released = _device_run(n)
    assert engaged > 0 and released > 0, "the run must cross trip and release"
    with monkeypatch.context() as patch:
        _use_numpy_fallback(patch)
        fallback, *_ = _device_run(n)
    assert len(fused) == len(fallback)
    for index, (got, expected) in enumerate(zip(fused, fallback)):
        assert_bitwise_equal(got, expected, f"array {index} differs (n={n})")


class TestSegmentModel:
    @staticmethod
    def inputs(rng, n):
        cpu_kc = rng.uniform(0.0, 5e4, n)
        gpu_kc = rng.uniform(0.0, 5e4, n)
        cpu_kc[: n // 4] = gpu_kc[: n // 4] = 0.0  # zero work
        if n > 4:
            cpu_kc[n // 4], gpu_kc[n // 4 + 1] = np.nan, np.nan
        return cpu_kc, gpu_kc, rng.uniform(1e5, 2e6, n), rng.uniform(1e5, 2e6, n)

    @pytest.mark.parametrize("fused", (True, False))
    @pytest.mark.parametrize("bad", (0.0, -5.0))
    def test_non_positive_frequency_raises(self, fused, bad, monkeypatch):
        if not fused:
            _use_numpy_fallback(monkeypatch)
        model = BatchedExecutionModel(compute_profile_for("jetson-orin-nano"))
        cpu_kc, gpu_kc, cpu_f, gpu_f = self.inputs(np.random.default_rng(1), 8)
        gpu_f[5] = bad
        with pytest.raises(DetectorError, match="frequencies must be positive"):
            model.execute(cpu_kc, gpu_kc, cpu_f, gpu_f)


def _assert_same(got, expected, label):
    """Nested observation/result/state dicts, arrays bit for bit."""
    __tracebackhide__ = True
    assert type(got) is type(expected), label
    if isinstance(expected, dict):
        assert got.keys() == expected.keys(), label
        for key in expected:
            _assert_same(got[key], expected[key], f"{label}.{key}")
    elif isinstance(expected, np.ndarray):
        assert_bitwise_equal(got, expected, label)
    else:
        assert got == expected or (got != got and expected != expected), label


class TestFleetStage:
    """``fleet_stage`` against the environment's NumPy stages, frame by
    frame: observations, results, frame energy and device state."""

    @staticmethod
    def pair(n, detector="faster_rcnn", launch_overhead_ms=2.0):
        envs = []
        for _ in range(2):
            env = _environment(n)
            env.detector = build_detector(detector)
            env.execution = BatchedExecutionModel(
                dataclasses.replace(
                    env.execution.profile, launch_overhead_ms=launch_overhead_ms
                )
            )
            # Start around the trip points so throttles engage and release.
            device = env.state.device
            state = device.state_dict()
            trip = device.cpu_throttle.trip_temperature_c
            state["temperatures"][:] = trip + np.linspace(4.0, -4.0, n)
            device.load_state_dict(state)
            envs.append(env)
        return envs

    @staticmethod
    def frames(fused_env, numpy_env, count, zero_work):
        rng = np.random.default_rng(7)
        n = fused_env.num_sessions
        for frame in range(count):
            # Varied image scales, so every order of the stage sums shows.
            scale = np.where(rng.random(n) < zero_work, 0.0, rng.uniform(0.2, 3.0, n))
            zero = scale == 0.0
            for env in (fused_env, numpy_env):
                env.begin_frame()
                env.state.image_scale = scale
            got = vars(fused_env._first_stage(raw))
            expected = vars(numpy_env._first_stage(None))
            _assert_same(got, expected, f"frame {frame} stage 1")
            for env in (fused_env, numpy_env):
                env.state.num_proposals = np.where(zero, 0, env.state.num_proposals)
            got = vars(fused_env._second_stage(raw))
            expected = vars(numpy_env._second_stage(None))
            _assert_same(got, expected, f"frame {frame} stage 2")
            _assert_same(
                fused_env.state.device.state_dict(), numpy_env.state.device.state_dict(),
                f"frame {frame} device",
            )

    @needs_raw
    @pytest.mark.parametrize("launch_overhead_ms", (0.0, 2.0))
    def test_fused_matches_numpy(self, launch_overhead_ms):
        for n in (1, 7, 256):
            fused_env, numpy_env = self.pair(n, launch_overhead_ms=launch_overhead_ms)
            self.frames(fused_env, numpy_env, 12, zero_work=0.25)
            throttled = fused_env.state.device.throttle_engage_count
            assert throttled.any(), "the run must throttle"

    @needs_raw
    @pytest.mark.parametrize("detector", ("mask_rcnn", "yolo_v5"))
    def test_other_detectors(self, detector):
        fused_env, numpy_env = self.pair(9, detector=detector, launch_overhead_ms=0.0)
        self.frames(fused_env, numpy_env, 4, zero_work=0.5)

    @needs_raw
    def test_zero_frequency_is_refused_before_writing(self):
        env = _environment(5)
        env.begin_frame()
        device = env.state.device
        before = device.state_dict(), env.state.frame_energy_j.copy()
        device.gpu.frequency_khz[device.gpu_level[3]] = 0.0
        with pytest.raises(DetectorError, match="frequencies must be positive"):
            env._first_stage(raw)
        _assert_same(device.state_dict(), before[0], "device")
        assert_bitwise_equal(env.state.frame_energy_j, before[1], "frame energy")


class TestRequestLevelsKernel:
    """``fleet_request_levels`` against ``DeviceFleet._request_numpy``."""

    @needs_raw
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_numpy_request_by_request(self, seed):
        rng = np.random.default_rng(700 + seed)
        make = repro.kernels.fleet._device_fleet(rng)
        requests = repro.kernels.fleet._requests(rng, make())
        got = repro.kernels.fleet._requested(raw)(make, requests)
        expected = repro.kernels.fleet._requested(None)(make, requests)
        assert [o for o in got if not isinstance(o, dict)] == [
            o for o in expected if not isinstance(o, dict)
        ]
        for index, (a, b) in enumerate(zip(got, expected)):
            if isinstance(b, dict):
                _assert_same(a, b, f"state after request {index // 2}")
        refusals = [o for o in expected if isinstance(o, str)]
        assert any(o.startswith("cpu") for o in refusals)
        assert any(o.startswith("gpu") for o in refusals)

    @needs_raw
    def test_mask_limits_the_check_and_the_write(self):
        fleet = DeviceFleet(build_device("jetson-orin-nano"), 4)
        fleet._request(raw, 2, 1, None)
        mask = np.array([True, False, True, False])
        fleet._request(raw, np.array([0, 99, 3, -1]), np.array([1, -5, 0, 77]), mask)
        state = fleet.state_dict()
        assert state["requested_cpu_level"].tolist() == [0, 2, 3, 2]
        assert state["requested_gpu_level"].tolist() == [1, 1, 0, 1]
        with pytest.raises(DeviceError, match="gpu level out of range"):
            fleet._request(raw, 0, np.array([0, 0, 0, 77]), ~mask)
        _assert_same(fleet.state_dict(), state, "refused request")

    @needs_raw
    def test_caps_follow_the_throttle(self):
        fleet = DeviceFleet(build_device("jetson-orin-nano"), 3)
        cap = fleet.cpu_throttle.throttled_level
        fleet._cpu_throttler.throttled[:] = [True, False, True]
        top = fleet.cpu.num_levels - 1
        fleet._request(raw, np.array([top, top, cap - 1]), 0, None)
        assert fleet.cpu_level.tolist() == [cap, top, cap - 1]
        assert fleet.state_dict()["requested_cpu_level"].tolist() == [top, top, cap - 1]


class TestSelectLevels:
    """``fleet_select_levels`` against each governor's ``_select_numpy``."""

    GOVERNORS = (
        BatchedSchedutilGovernor(), BatchedSchedutilGovernor(margin=1.0, max_step_down=0),
        BatchedSchedutilGovernor(max_step_down=3), BatchedOndemandGovernor(),
        BatchedOndemandGovernor(0.6), BatchedSimpleOndemandGovernor(),
        batched_nvhost_podgov(), batched_msm_adreno_tz(),
    )

    @needs_raw
    @pytest.mark.parametrize("governor", GOVERNORS, ids=lambda g: f"{g.kind}-{g.name}")
    @pytest.mark.parametrize("num_levels", (1, 2, 7, 12, 30))
    def test_matches_numpy_bitwise(self, governor, num_levels):
        rng = np.random.default_rng(num_levels)
        utilisation = repro.kernels.fleet._utilisations(rng, governor, num_levels - 1)
        current = rng.integers(0, num_levels, utilisation.size)
        current[:3] = num_levels - 1
        governor = copy.deepcopy(governor)
        got = governor._select(raw, utilisation, current, num_levels)
        assert got is not governor._kernel_table.buffers["levels"]
        assert_bitwise_equal(got, governor._kernel_table.buffers["levels"], "kernel ran")
        expected = governor._select_numpy(utilisation, current, num_levels)
        assert_bitwise_equal(got, expected.astype(np.int64), "levels")
        assert expected.dtype == np.int64

    @pytest.mark.parametrize("governor", GOVERNORS[:5], ids=lambda g: g.kind)
    def test_inputs_hit_rounding_ties(self, governor):
        """The half-way inputs are exact ties that half-to-even and
        half-away-from-zero round apart."""
        top = 11
        utilisation = repro.kernels.fleet._utilisations(np.random.default_rng(0), governor, top)
        clipped = np.clip(utilisation, 0.0, 1.0)
        if isinstance(governor, BatchedSchedutilGovernor):
            values = np.minimum(1.0, governor.margin * clipped) * top + 0.49
        else:
            values = clipped / governor.up_threshold * top
        ties = values[values % 1.0 == 0.5]
        assert (np.floor(ties) % 2 == 0).any()
        assert (np.rint(ties) != np.floor(ties + 0.5)).any()

    @needs_raw
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_utilisation_takes_numpy(self, bad):
        governor = BatchedSimpleOndemandGovernor()
        utilisation = np.array([0.5, bad, 0.9])
        current = np.array([3, 3, 3])
        got = governor._select(raw, utilisation, current, 7)
        assert_bitwise_equal(got, governor._select_numpy(utilisation, current, 7), "levels")
        assert not raw.fleet_select_levels(governor._kernel_table, 7)

    @needs_raw
    def test_other_dtypes_take_numpy(self):
        governor = BatchedSchedutilGovernor()
        utilisation = np.linspace(0.0, 1.0, 6, dtype=np.float32)
        current = np.arange(6, dtype=np.int32)
        got = governor._select(raw, utilisation, current, 7)
        assert governor._kernel_table is None
        assert_bitwise_equal(got, governor._select_numpy(utilisation, current, 7), "levels")

    def test_a_copy_builds_its_own_table(self):
        governor = BatchedOndemandGovernor()
        utilisation, current = np.linspace(0.0, 1.0, 5), np.zeros(5, dtype=np.int64)
        expected = governor.select_levels(utilisation, current, 7)
        for clone in (copy.deepcopy(governor), pickle.loads(pickle.dumps(governor))):
            assert "_kernel_table" not in vars(clone)
            assert_bitwise_equal(clone.select_levels(utilisation, current, 7), expected, "copy")


def _frozen(value):
    """A deep snapshot of every array reachable from an observation/result."""
    if dataclasses.is_dataclass(value):
        return {f.name: _frozen(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.copy()
    return copy.deepcopy(value)


def _assert_unchanged(kept, snapshot, label):
    for name, expected in snapshot.items():
        got = getattr(kept, name)
        if isinstance(expected, np.ndarray):
            assert_bitwise_equal(got, expected, f"{label}.{name} changed")
        elif isinstance(expected, dict):
            _assert_unchanged(got, expected, f"{label}.{name}")
        else:
            assert got == expected, f"{label}.{name} changed"


@pytest.mark.parametrize("fused", (True, False))
def test_returned_arrays_do_not_alias_device_state(fused, monkeypatch):
    """What execute, the segment model and the environment return is never
    written by later calls, although the device writes its state in place."""
    if not fused:
        _use_numpy_fallback(monkeypatch)
    env = _environment(n=5)
    device = env.state.device
    kept = [env.begin_frame(), env.run_first_stage(), env.run_second_stage()]
    kept.append(env.execution.execute(
        np.full(5, 1e4), np.full(5, 2e4), device.cpu_frequency_khz,
        device.gpu_frequency_khz,
    ))
    kept.append(device.execute(np.full(5, 30.0), 0.8, 0.9))
    snapshots = [_frozen(value) for value in kept]
    for frame in range(4):
        device.request_levels(frame % 2, 0)
        device.set_ambient(80.0 + frame)
        device.execute(np.full(5, 200.0), 1.0, 1.0)
        env.execution.execute(np.full(5, 3e4), np.full(5, 1e3), 1e5, 2e5)
        _step(env)
    for value, snapshot in zip(kept, snapshots):
        _assert_unchanged(value, snapshot, type(value).__name__)


class TestCopies:
    FRAMES, SPLIT = 10, 4

    @pytest.mark.parametrize(
        "clone", (copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)))
    )
    def test_stream_copy_and_original_continue_uninterrupted(self, clone):
        def stream():
            return FleetFrameStream(
                [build_dataset("kitti"), build_dataset("visdrone2019")] * 3,
                [np.random.default_rng(i) for i in range(6)],
                latency_constraint_ms=[400.0] * 6,
            )

        reference = stream()
        expected = [reference.next_frames().scene_candidates for _ in range(self.FRAMES)]
        original = stream()
        for _ in range(self.SPLIT):
            original.next_frames()
        copied = clone(original)
        for frame in range(self.SPLIT, self.FRAMES):
            # Interleaved, so a copy drawing from the original's generators
            # would shift both continuations.
            for label, live in (("copy", copied), ("original", original)):
                assert_bitwise_equal(
                    live.next_frames().scene_candidates, expected[frame],
                    f"{label} diverged at frame {frame}",
                )

    @pytest.mark.parametrize(
        "clone", (copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)))
    )
    def test_environment_copy_and_original_continue_uninterrupted(self, clone):
        reference = _environment()
        expected = [_step(reference) for _ in range(self.FRAMES)]
        original = _environment()
        for _ in range(self.SPLIT):
            _step(original)
        copied = clone(original)
        for frame in range(self.SPLIT, self.FRAMES):
            assert _step(copied) == expected[frame], f"copy diverged at {frame}"
            assert _step(original) == expected[frame], f"original diverged at {frame}"


class TestProposeBatchBounds:
    @pytest.mark.parametrize("fused", (True, False))
    def test_generator_count_must_match_sessions(self, fused, monkeypatch):
        if not fused:
            _use_numpy_fallback(monkeypatch)
        detector = build_detector("faster_rcnn")
        scenes = np.full(8, 300.0)
        rngs = [np.random.default_rng(i) for i in range(2)]
        with pytest.raises(DetectorError, match="2 generators for 8 sessions"):
            propose_batch(detector, scenes, rngs)
        with pytest.raises(DetectorError, match="2 generators for 8 sessions"):
            propose_batch(detector, scenes, SessionGenerators(rngs))


# ---------------------------------------------------------------------------
# Kill switch
# ---------------------------------------------------------------------------


class TestKillSwitch:
    def test_repro_fused_zero_disables_every_kernel(self):
        """REPRO_FUSED=0 must turn off every kernel family."""
        code = (
            "import repro.kernels as kernels\n"
            "for family in kernels.FAMILIES:\n"
            "    assert getattr(kernels, 'fused_' + family)() is None\n"
            "assert set(kernels.kernel_status().values()) == {'disabled'}\n"
        )
        env = dict(os.environ, REPRO_FUSED="0")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=REPO_ROOT)

    @needs_kernel
    def test_missing_numpy_random_library_keeps_every_other_kernel(self, tmp_path):
        """No ``libnpyrandom.a``: the library still builds; draws use NumPy."""
        code = (
            "import sys, pathlib\n"
            "import numpy as np\n"
            "import repro.kernels as kernels\n"
            "from repro import obs\n"
            "from repro.kernels import build\n"
            "build.NPYRANDOM_ARCHIVE = pathlib.Path(sys.argv[1]) / 'libnpyrandom.a'\n"
            "registry = obs.enable()\n"
            "assert kernels.fused_random() is None\n"
            "assert kernels.fused_fleet() is not None\n"
            "status = kernels.kernel_status()\n"
            "assert status == {'random': 'numpy', 'fleet': 'fused', 'dqn': 'unresolved'}, status\n"
            "assert registry.events[0]['fields'] == {\n"
            "    'family': 'random', 'status': 'numpy', 'reason': 'symbol missing'}\n"
            "gens = kernels.SessionGenerators([np.random.default_rng(0)])\n"
            "assert gens.normal(2.0)[0] == np.random.default_rng(0).normal(0.0, 2.0)\n"
        )
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"))
        env.pop("REPRO_FUSED", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "missing")],
            check=True, env=env, cwd=REPO_ROOT,
        )
