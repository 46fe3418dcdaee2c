"""Experiment runners and end-to-end integration of the whole stack.

These tests use short episodes: they verify that every method can be built
and run on every device/detector/dataset combination, that the experiment
runners plumb their settings through correctly, and that the fixed-frequency
profiling results match the paper's qualitative observations.  The
quantitative head-to-head comparisons live in the benchmark harness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.analysis.experiments import (
    ExperimentSetting,
    default_latency_constraint,
    make_environment,
    make_policy,
    run_ablation,
    run_comparison,
    run_detector_variation_study,
    run_domain_switch,
    run_dynamic_ambient,
    run_proposal_latency_sweep,
    run_stage_profiling,
)
from repro.env.ambient import ConstantAmbient


def quick_setting(**overrides) -> ExperimentSetting:
    defaults = dict(
        device="jetson-orin-nano",
        detector="faster_rcnn",
        dataset="kitti",
        num_frames=30,
        training_frames=0,
        seed=0,
    )
    defaults.update(overrides)
    return ExperimentSetting(**defaults)


def test_default_latency_constraint_scales_with_device_and_dataset():
    jetson_kitti = default_latency_constraint("jetson-orin-nano", "faster_rcnn", "kitti")
    jetson_visdrone = default_latency_constraint(
        "jetson-orin-nano", "faster_rcnn", "visdrone2019"
    )
    phone_kitti = default_latency_constraint("mi11-lite", "faster_rcnn", "kitti")
    mask_kitti = default_latency_constraint("jetson-orin-nano", "mask_rcnn", "kitti")
    assert jetson_visdrone > jetson_kitti
    assert phone_kitti > 2.0 * jetson_kitti
    assert mask_kitti > jetson_kitti
    assert 200.0 < jetson_kitti < 800.0


def test_make_environment_uses_setting_fields():
    setting = quick_setting(dataset="visdrone2019", ambient_temperature_c=10.0)
    env = make_environment(setting)
    assert env.device.name == "jetson-orin-nano"
    assert env.detector.name == "faster_rcnn"
    assert env.device.ambient_temperature_c == pytest.approx(10.0)
    # The control threshold sits below the hardware trip point.
    assert env.throttle_threshold_c < env.device.gpu_throttle.trip_temperature_c
    explicit = make_environment(quick_setting(latency_constraint_ms=512.0))
    assert explicit.default_latency_constraint_ms == 512.0
    overridden = setting.with_overrides(detector="yolo_v5")
    assert overridden.detector == "yolo_v5"
    assert setting.detector == "faster_rcnn"


@pytest.mark.parametrize(
    "method",
    [
        "default",
        "ztt",
        "lotus",
        "performance",
        "powersave",
        "lotus-single-action",
        "lotus-shared-buffer",
        "lotus-always-cooldown",
        "lotus-no-slim",
    ],
)
def test_every_method_runs_end_to_end(method):
    setting = quick_setting()
    env = make_environment(setting)
    policy = make_policy(method, env, num_frames=30, seed=0)
    from repro.env.episode import run_episode

    trace = run_episode(env, policy, num_frames=15)
    assert len(trace) == 15
    assert all(np.isfinite(r.total_latency_ms) for r in trace.records)
    assert all(r.total_latency_ms > 0 for r in trace.records)


def test_unknown_method_rejected():
    env = make_environment(quick_setting())
    with pytest.raises(ExperimentError):
        make_policy("random-search", env, num_frames=10)


def test_run_comparison_returns_all_methods():
    result = run_comparison(quick_setting(num_frames=20), methods=("default", "lotus"))
    assert result.methods() == ["default", "lotus"]
    assert result.metrics("default").num_frames == 20
    assert len(result.trace("lotus")) == 20
    assert result.steady_metrics("lotus").num_frames == 10


def test_run_comparison_warm_up_trains_learning_policies_only():
    setting = quick_setting(num_frames=15, training_frames=20)
    result = run_comparison(setting, methods=("default", "lotus"))
    lotus_session = result.sessions["lotus"]
    # The evaluation trace has the requested length; learning happened during
    # the extra warm-up frames as well (losses recorded beyond the eval episode).
    assert len(lotus_session.trace) == 15
    assert len(lotus_session.rewards) >= 30


def test_run_detector_variation_study_covers_grid():
    rows = run_detector_variation_study(
        detectors=("faster_rcnn", "yolo_v5"), datasets=("kitti",), num_frames=30
    )
    assert len(rows) == 2
    by_detector = {row.detector: row for row in rows}
    assert by_detector["faster_rcnn"].latency_std_ms > by_detector["yolo_v5"].latency_std_ms
    assert by_detector["faster_rcnn"].map50 > by_detector["yolo_v5"].map50


def test_run_proposal_latency_sweep_is_monotone():
    points = run_proposal_latency_sweep(proposal_counts=[0, 100, 200, 400])
    latencies = [p.stage2_latency_ms for p in points]
    assert latencies == sorted(latencies)
    with pytest.raises(ExperimentError):
        run_proposal_latency_sweep(detector_name="yolo_v5")


def test_run_stage_profiling_matches_paper_observation():
    profile = run_stage_profiling(num_frames=60)
    assert 0.65 <= profile.stage1_share <= 0.92
    assert profile.stage2_latency_std_ms > 0


def test_run_dynamic_ambient_uses_three_zones():
    setting = quick_setting(num_frames=30)
    result = run_dynamic_ambient(setting, methods=("default",))
    ambient = result.trace("default")
    temps = [r.ambient_temperature_c for r in ambient.records]
    assert temps[0] == pytest.approx(25.0)
    assert temps[15] == pytest.approx(0.0)
    assert temps[-1] == pytest.approx(25.0)


def test_run_domain_switch_changes_dataset_and_constraint():
    result = run_domain_switch(
        detector="faster_rcnn",
        datasets=("kitti", "visdrone2019"),
        num_frames=20,
        methods=("default",),
        seed=1,
    )
    trace = result.trace("default")
    assert len(trace.for_dataset("kitti")) == 10
    assert len(trace.for_dataset("visdrone2019")) == 10
    kitti_constraint = trace.records[0].latency_constraint_ms
    visdrone_constraint = trace.records[-1].latency_constraint_ms
    assert visdrone_constraint > kitti_constraint
    with pytest.raises(ExperimentError):
        run_domain_switch(datasets=("kitti",), num_frames=10)


def test_run_ablation_covers_variants():
    result = run_ablation(quick_setting(num_frames=12), variants=("lotus", "lotus-no-slim"))
    assert set(result.methods()) == {"lotus", "lotus-no-slim"}


def test_environment_with_custom_ambient_profile():
    env = make_environment(quick_setting(), ambient=ConstantAmbient(5.0))
    # The session's live device state starts in the profile's ambient.
    assert env.fleet.state.device.ambient_temperature_c[0] == pytest.approx(5.0)


def test_public_api_importable():
    import repro

    assert repro.__version__
    assert "lotus" in repro.__doc__.lower()
    for name in (
        "LotusController",
        "LotusConfig",
        "ZttPolicy",
        "build_device",
        "build_detector",
        "build_dataset",
        "make_environment",
        "run_episode",
        "summarize_trace",
    ):
        assert hasattr(repro, name)
