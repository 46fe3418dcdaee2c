"""The frame-by-frame inference environment."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError, ExperimentError, FrequencyError
from repro.detection.registry import build_detector
from repro.env.ambient import AmbientSegment, StepAmbient
from repro.env.environment import InferenceEnvironment
from repro.hardware.devices.jetson_orin_nano import jetson_orin_nano
from repro.workload.dataset import build_dataset
from repro.workload.generator import FrameStream


def test_frame_protocol_produces_consistent_observations(small_environment):
    env = small_environment
    start = env.begin_frame()
    assert start.frame_index == 0
    assert start.latency_constraint_ms == 400.0
    assert start.remaining_budget_ms == 400.0
    assert start.previous_latency_ms is None
    assert start.cpu_num_levels == 10 and start.gpu_num_levels == 5

    mid = env.run_first_stage()
    assert mid.frame_index == 0
    assert mid.stage1_latency_ms > 0
    assert mid.remaining_budget_ms == pytest.approx(400.0 - mid.stage1_latency_ms)
    assert mid.num_proposals > 0

    result = env.run_second_stage()
    assert result.total_latency_ms > mid.stage1_latency_ms
    assert result.stage2_latency_ms > 0
    assert result.num_proposals == mid.num_proposals
    assert result.latency_slack_ms == pytest.approx(400.0 - result.total_latency_ms)
    assert env.frames_processed == 1

    # The next frame sees the previous frame's latency.
    second = env.begin_frame()
    assert second.frame_index == 1
    assert second.previous_latency_ms == pytest.approx(result.total_latency_ms)


def test_observations_and_records_hold_python_scalars(small_environment):
    """Each phase builds its dataclass from row 0 of the fleet's staging
    blocks without ``__init__``: every field is set, none relies on a
    ``__post_init__``, and every value is a Python scalar (NumPy 2 prints
    ``np.float64(...)``, which would change printed results)."""
    env = small_environment
    for _ in range(2):
        start, mid = env.begin_frame(), env.run_first_stage()
        result = env.run_second_stage()
        for handed in (start, mid, result):
            assert set(vars(handed)) == {f.name for f in dataclasses.fields(handed)}
            assert not hasattr(type(handed), "__post_init__")
            for field in dataclasses.fields(handed):
                value = getattr(handed, field.name)
                expected = {"int": int, "float": float, "bool": bool, "str": str}.get(
                    field.type, float
                )
                assert type(value) is expected or value is None, field.name


@pytest.mark.parametrize(
    "cpu, gpu", [(10, 0), (0, 5), (-1, 0), (1.0, 0), (True, 0), (np.int64(3), 0)]
)
def test_level_requests_are_checked_as_the_device_checks_them(small_environment, cpu, gpu):
    env = small_environment
    env.apply_levels(4, 2)
    with pytest.raises(FrequencyError):
        env.apply_levels(cpu, gpu)
    env.begin_frame()
    result = (env.run_first_stage(), env.run_second_stage())[1]
    assert (result.cpu_level_stage1, result.gpu_level_stage1) == (4, 2)


def test_copies_continue_identically(small_environment):
    env = small_environment
    for _ in range(3):
        env.begin_frame(), env.run_first_stage(), env.run_second_stage()
    copies = (env, copy.deepcopy(env), pickle.loads(pickle.dumps(env)))
    frames = [
        (each.begin_frame(), each.run_first_stage(), each.run_second_stage())
        for each in copies
    ]
    assert frames[0] == frames[1] == frames[2]


def test_phase_protocol_is_enforced(small_environment):
    env = small_environment
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
    with pytest.raises(ExperimentError):
        env.run_second_stage()


def test_frequency_levels_affect_latency(small_environment):
    env = small_environment
    env.begin_frame()
    env.apply_levels(env.device.cpu.max_level, env.device.gpu.max_level)
    fast_mid = env.run_first_stage()
    env.run_second_stage()

    env.begin_frame()
    env.apply_levels(0, 0)
    slow_mid = env.run_first_stage()
    env.run_second_stage()
    assert slow_mid.stage1_latency_ms > 2.0 * fast_mid.stage1_latency_ms


def test_mid_frame_decision_affects_only_stage2(small_environment):
    env = small_environment
    env.begin_frame()
    env.apply_levels(env.device.cpu.max_level, env.device.gpu.max_level)
    mid = env.run_first_stage()
    env.apply_levels(0, 0)
    result = env.run_second_stage()
    assert result.stage1_latency_ms == pytest.approx(mid.stage1_latency_ms)
    assert result.gpu_level_stage2 == 0
    assert result.gpu_level_stage1 == env.device.gpu.max_level
    assert result.stage2_latency_ms > 50.0


def test_more_proposals_mean_longer_second_stage(small_environment):
    env = small_environment
    stage2 = {}
    for _ in range(40):
        env.begin_frame()
        mid = env.run_first_stage()
        result = env.run_second_stage()
        stage2[mid.num_proposals] = result.stage2_latency_ms
    proposals = sorted(stage2)
    assert stage2[proposals[-1]] > stage2[proposals[0]]


def test_one_stage_detector_has_zero_stage2():
    device = jetson_orin_nano()
    stream = FrameStream(build_dataset("kitti"), np.random.default_rng(0))
    env = InferenceEnvironment(
        device=device,
        detector=build_detector("yolo_v5"),
        stream=stream,
        latency_constraint_ms=150.0,
    )
    env.begin_frame()
    mid = env.run_first_stage()
    result = env.run_second_stage()
    assert mid.num_proposals == 0
    assert result.stage2_latency_ms == 0.0


def test_ambient_profile_is_applied_per_frame():
    device = jetson_orin_nano()
    stream = FrameStream(build_dataset("kitti"), np.random.default_rng(0))
    ambient = StepAmbient([AmbientSegment(2, 25.0), AmbientSegment(2, 0.0)])
    env = InferenceEnvironment(
        device=device,
        detector=build_detector("faster_rcnn"),
        stream=stream,
        latency_constraint_ms=400.0,
        ambient=ambient,
    )
    temps = []
    for _ in range(4):
        obs = env.begin_frame()
        temps.append(obs.ambient_temperature_c)
        env.run_first_stage()
        env.run_second_stage()
    assert temps == [25.0, 25.0, 0.0, 0.0]


def test_reset_restores_cold_device(small_environment):
    env = small_environment
    for _ in range(5):
        env.begin_frame()
        env.run_first_stage()
        env.run_second_stage()
    device = env.fleet.state.device  # the session's live device state
    assert device.gpu_temperature_c[0] > 26.0
    env.reset()
    assert env.frames_processed == 0
    assert device.gpu_temperature_c[0] == pytest.approx(25.0)


def test_constructor_validation():
    device = jetson_orin_nano()
    stream = FrameStream(build_dataset("kitti"), np.random.default_rng(0))
    detector = build_detector("faster_rcnn")
    with pytest.raises(ConfigurationError):
        InferenceEnvironment(device, detector, stream, latency_constraint_ms=0.0)
    with pytest.raises(ConfigurationError):
        InferenceEnvironment(
            device, detector, stream, latency_constraint_ms=100.0, idle_between_frames_ms=-1.0
        )


def test_per_frame_constraint_override():
    stream = FrameStream(
        build_dataset("kitti"), np.random.default_rng(0), latency_constraint_ms=1234.0
    )
    env = InferenceEnvironment(
        jetson_orin_nano(), build_detector("faster_rcnn"), stream, latency_constraint_ms=400.0
    )
    obs = env.begin_frame()
    assert obs.latency_constraint_ms == 1234.0
    env.run_first_stage()
    result = env.run_second_stage()
    assert result.latency_constraint_ms == 1234.0
