"""Behaviour of the fleet environment, policies and runtime mode."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.hardware.fleet
from repro.errors import DeviceError, ExperimentError
from repro.analysis.experiments import ExperimentSetting
from repro.core.fleet import FleetLotusAgent
from repro.detection.registry import build_detector
from repro.env.fleet import (
    BatchedInferenceEnvironment,
    FleetDecision,
    FleetTrace,
    PerSessionPolicies,
    run_fleet_episode,
)
from repro.env.trace import COLUMN_DTYPES, FrameRecord
from repro.governors.fleet import (
    BatchedPerformancePolicy,
    BatchedUserspacePolicy,
    build_batched_default_governor,
)
from repro.hardware.devices.registry import build_device
from repro.hardware.fleet import DeviceFleet
from repro.kernels.build import RESULT_FLAGS, RESULT_FLOATS, RESULT_INTS
from repro.runtime.fleet import (
    make_fleet_environment,
    make_fleet_policy,
    run_fleet,
)
from repro.workload.dataset import build_dataset
from repro.workload.fleet import FleetFrameStream


def _environment(n=4, frames_seed=0):
    return BatchedInferenceEnvironment(
        device=build_device("jetson-orin-nano"),
        detector=build_detector("faster_rcnn"),
        streams=FleetFrameStream(
            build_dataset("kitti"),
            [np.random.default_rng(frames_seed + i) for i in range(n)],
            latency_constraint_ms=[400.0] * n,
        ),
        rngs=[np.random.default_rng(frames_seed + i + 1) for i in range(n)],
    )


def test_phase_protocol_is_enforced():
    env = _environment()
    with pytest.raises(ExperimentError):
        env.run_first_stage()
    env.begin_frame()
    with pytest.raises(ExperimentError):
        env.begin_frame()
    with pytest.raises(ExperimentError):
        env.run_second_stage()
    env.run_first_stage()
    with pytest.raises(ExperimentError):
        env.run_first_stage()
    env.run_second_stage()
    assert env.frames_processed == 1


def test_observations_and_results_have_fleet_shapes():
    env = _environment(n=3)
    start = env.begin_frame()
    assert start.num_sessions == 3
    assert start.previous_latency_ms is None
    assert start.cpu_temperature_c.shape == (3,)
    mid = env.run_first_stage()
    assert mid.num_proposals.shape == (3,)
    assert (mid.stage1_latency_ms > 0).all()
    result = env.run_second_stage()
    assert result.total_latency_ms.shape == (3,)
    assert isinstance(result.record(0), FrameRecord)
    assert result.record(1).index == 0
    # Next frame reports the previous latency.
    start2 = env.begin_frame()
    assert (start2.previous_latency_ms == result.total_latency_ms).all()


def test_snapshot_layouts_cover_every_field():
    """The staging rows of the frame result are the trace columns, each in
    the block of its dtype, and each phase hands out exactly its
    dataclass's fields."""
    rows = {np.float64: RESULT_FLOATS, np.int64: RESULT_INTS, np.bool_: RESULT_FLAGS}
    assert sorted(name for names in rows.values() for name in names) == sorted(COLUMN_DTYPES)
    for dtype, names in rows.items():
        assert all(np.dtype(COLUMN_DTYPES[name]) == dtype for name in names)
    env = _environment(n=3)
    for handed in (env.begin_frame(), env.run_first_stage(), env.run_second_stage()):
        assert set(vars(handed)) == {f.name for f in dataclasses.fields(handed)}
        # The environment builds them without __init__, so none may rely on
        # a __post_init__.
        assert not hasattr(type(handed), "__post_init__")


def test_masked_decision_only_touches_selected_sessions():
    env = _environment(n=4)
    env.begin_frame()
    mask = np.array([True, False, True, False])
    env.apply_decision(
        FleetDecision(
            cpu_levels=np.zeros(4, dtype=np.int64),
            gpu_levels=np.zeros(4, dtype=np.int64),
            mask=mask,
        )
    )
    fleet = env.state.device
    assert list(fleet.cpu_level) == [0, fleet.cpu.max_level, 0, fleet.cpu.max_level]
    # Out-of-range levels raise, but only when inside the mask.
    with pytest.raises(DeviceError):
        env.apply_levels(np.full(4, 99), np.zeros(4, dtype=np.int64))
    bad = np.full(4, 99, dtype=np.int64)
    env.apply_levels(bad, np.zeros(4, dtype=np.int64), mask=np.zeros(4, dtype=bool))


def test_fleet_trace_materialises_per_session_traces():
    env = _environment(n=2)
    trace = run_fleet_episode(env, BatchedPerformancePolicy(), 5)
    assert len(trace) == 5
    assert trace.total_frames == 10
    assert trace.latencies_ms().shape == (5, 2)
    session = trace.session_trace(1)
    assert len(session) == 5
    assert [r.index for r in session.records] == list(range(5))
    with pytest.raises(ExperimentError):
        trace.session_trace(2)
    with pytest.raises(ExperimentError):
        FleetTrace(0)


def test_per_session_adapter_reports_mixed_none_decisions():
    class OnlyEvenSessions:
        name = "only-even"

        def reset(self):
            pass

        def begin_frame(self, obs):
            from repro.env.policy import FrequencyDecision

            return FrequencyDecision(0, 0) if obs.frame_index % 2 == 0 else None

        def mid_frame(self, obs):
            return None

        def end_frame(self, result):
            pass

    env = _environment(n=2)
    policy = PerSessionPolicies([OnlyEvenSessions(), OnlyEvenSessions()])
    obs = env.begin_frame()
    decision = policy.begin_frame(obs)
    assert decision is not None and decision.mask.all()
    assert policy.mid_frame(env.run_first_stage()) is None
    env.run_second_stage()
    obs = env.begin_frame()
    assert policy.begin_frame(obs) is None  # frame_index 1: all None


def test_fleet_lotus_agent_learns_on_the_fleet():
    env = _environment(n=6)
    agent = FleetLotusAgent(
        cpu_levels=env.device.cpu.num_levels,
        gpu_levels=env.device.gpu.num_levels,
        temperature_threshold_c=env.throttle_threshold_c,
        proposal_scale=600.0,
        num_sessions=6,
        rng=np.random.default_rng(0),
    )
    trace = run_fleet_episode(env, agent, 30)
    assert len(trace) == 30
    # 6 sessions x 30 frames fills the buffers fast: training must have run.
    assert len(agent.loss_history) > 0
    assert len(agent.reward_history) == 30
    # Decisions stay inside the device's level ranges for every session.
    levels = np.array([f.cpu_level_stage1 for f in trace])
    assert levels.min() >= 0 and levels.max() < env.device.cpu.num_levels


def test_fleet_lotus_evaluation_mode_disables_learning():
    env = _environment(n=2)
    agent = FleetLotusAgent(
        cpu_levels=env.device.cpu.num_levels,
        gpu_levels=env.device.gpu.num_levels,
        temperature_threshold_c=env.throttle_threshold_c,
        proposal_scale=600.0,
        num_sessions=2,
        rng=np.random.default_rng(0),
    )
    agent.set_training(False)
    run_fleet_episode(env, agent, 5)
    assert agent.loss_history == []
    assert agent.epsilon == 0.0


def test_make_fleet_policy_maps_methods():
    env = make_fleet_environment(ExperimentSetting(num_frames=10, seed=0), 3)
    assert "schedutil" in make_fleet_policy("default", env, 10).name
    assert make_fleet_policy("performance", env, 10).name == "performance"
    assert isinstance(make_fleet_policy("fixed", env, 10), BatchedUserspacePolicy)
    assert isinstance(make_fleet_policy("lotus-fleet", env, 10), FleetLotusAgent)
    adapted = make_fleet_policy("ztt", env, 10)
    assert isinstance(adapted, PerSessionPolicies)
    assert len(adapted.policies) == 3
    with pytest.raises(ExperimentError):
        make_fleet_policy("nonsense", env, 10)


def test_run_fleet_packages_session_results():
    setting = ExperimentSetting(num_frames=20, seed=5)
    result = run_fleet(setting, "default", 3)
    assert result.num_sessions == 3
    assert len(result.sessions) == 3
    assert all(s.metrics.num_frames == 20 for s in result.sessions)
    assert result.fleet_trace.total_frames == 60
    assert result.aggregate_frames_per_second > 0
    # lotus-fleet trains one shared network across sessions.
    fleet_lotus = run_fleet(ExperimentSetting(num_frames=25, seed=0), "lotus-fleet", 4)
    assert fleet_lotus.policy_name == "lotus-fleet"
    assert len(fleet_lotus.sessions[0].losses) > 0


def test_batched_default_governor_registry_falls_back():
    unknown = build_batched_default_governor("unknown-board")
    assert "schedutil" in unknown.name and "simple_ondemand" in unknown.name


class TestRequestLevels:
    @staticmethod
    def fleet():
        fleet = DeviceFleet(build_device("jetson-orin-nano"), 4)
        fleet.request_levels(2, 1)
        return fleet

    @staticmethod
    def levels(fleet):
        return fleet.state_dict()["requested_cpu_level"], fleet.cpu_level.copy()

    def test_integer_mask_is_rejected(self):
        """An integer mask would validate as an index but apply as a truth mask."""
        fleet = self.fleet()
        before = self.levels(fleet)
        with pytest.raises(DeviceError, match="mask must be boolean"):
            fleet.request_levels(np.array([0, 0, 99, 0]), 1, mask=np.array([1, 0, 1, 0]))
        for got, expected in zip(self.levels(fleet), before):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("levels", (np.array([1.7, 0.0, 1.0, 2.0]), 1.0, True))
    def test_non_integer_levels_are_rejected(self, levels):
        fleet = self.fleet()
        before = self.levels(fleet)
        with pytest.raises(DeviceError, match="cpu levels must be integers"):
            fleet.request_levels(levels, 1)
        with pytest.raises(DeviceError, match="gpu levels must be integers"):
            fleet.request_levels(1, levels, mask=np.zeros(4, dtype=bool))
        for got, expected in zip(self.levels(fleet), before):
            assert np.array_equal(got, expected)

    def test_only_changed_sessions_are_validated(self):
        fleet = self.fleet()
        mask = np.array([True, False, True, False])
        fleet.request_levels(np.array([0, 99, 3, -1]), np.array([1, 0, 0, 77]), mask=mask)
        assert fleet.state_dict()["requested_cpu_level"].tolist() == [0, 2, 3, 2]
        assert fleet.state_dict()["requested_gpu_level"].tolist() == [1, 1, 0, 1]
        with pytest.raises(DeviceError, match="gpu level out of range"):
            fleet.request_levels(0, np.array([0, 0, 0, 77]), mask=~mask)
        assert fleet.state_dict()["requested_cpu_level"].tolist() == [0, 2, 3, 2]

    @pytest.mark.parametrize("fused", (False, True), ids=("numpy", "fused"))
    @pytest.mark.parametrize(
        "arguments, what",
        [
            ((np.zeros(6, dtype=np.int64), 0, None), r"cpu levels"),
            ((0, np.zeros((5, 1), dtype=np.int64), None), r"gpu levels"),
            ((0, 0, np.ones(3, dtype=bool)), r"the session mask"),
        ],
        ids=("six-levels", "column-levels", "three-mask"),
    )
    def test_malformed_shapes_are_refused(self, fused, arguments, what, monkeypatch):
        """A level array or mask that is neither a scalar nor length N is a
        DeviceError naming the expected shape, and changes nothing."""
        if not fused:
            monkeypatch.setattr(repro.hardware.fleet, "fused_fleet", lambda: None)
        fleet = DeviceFleet(build_device("jetson-orin-nano"), 5)
        fleet.request_levels(2, 1)
        before = fleet.state_dict()
        with pytest.raises(DeviceError, match=what + r" must be a scalar or of shape \(5,\)"):
            fleet.request_levels(*arguments)
        after = fleet.state_dict()
        assert all(np.array_equal(after[key], value) for key, value in before.items())

    @pytest.mark.parametrize("fused", (False, True), ids=("numpy", "fused"))
    @pytest.mark.parametrize(
        "cpu, gpu, message",
        [
            (10, 0, "cpu level out of range [0, 9]"),
            (-1, 5, "cpu level out of range [0, 9]"),
            (3, 5, "gpu level out of range [0, 4]"),
            (np.int64(3), -1, "gpu level out of range [0, 4]"),
            (2**70, 0, "cpu levels must be integers, got object"),
            (1.0, 0, "cpu levels must be integers, got float64"),
            (np.float64(1.0), 0, "cpu levels must be integers, got float64"),
            (0, True, "gpu levels must be integers, got bool"),
            (np.True_, 0, "cpu levels must be integers, got bool"),
        ],
    )
    def test_scalar_requests_are_checked(self, fused, cpu, gpu, message, monkeypatch):
        """One integer per domain skips the array checks on the fused path;
        a level out of range, out of the buffers' range, a float or a bool
        is refused with the same error either way, and changes nothing."""
        if not fused:
            monkeypatch.setattr(repro.hardware.fleet, "fused_fleet", lambda: None)
        fleet = self.fleet()
        before = fleet.state_dict()
        with pytest.raises(DeviceError) as refused:
            fleet.request_levels(cpu, gpu)
        assert str(refused.value) == message
        after = fleet.state_dict()
        assert all(np.array_equal(after[key], value) for key, value in before.items())
        fleet.request_levels(np.int32(4), 3)
        assert fleet.state_dict()["requested_cpu_level"].tolist() == [4] * 4
        assert fleet.gpu_level.tolist() == [3] * 4

    def test_snapshot_levels_are_validated(self):
        fleet = self.fleet()
        snapshot = fleet.state_dict()
        snapshot["cpu_level"] = np.array([0, 0, 99, 0])
        with pytest.raises(DeviceError, match="cpu level out of range"):
            fleet.load_state_dict(snapshot)


def test_device_fleet_rejects_bad_inputs():
    with pytest.raises(DeviceError):
        DeviceFleet(build_device("jetson-orin-nano"), 0)
    fleet = DeviceFleet(build_device("jetson-orin-nano"), 2)
    with pytest.raises(DeviceError):
        fleet.execute(np.array([-1.0, 1.0]), 0.5, 0.5)
    with pytest.raises(DeviceError):
        fleet.request_levels(np.array([0, 99]), np.array([0, 0]))
