"""Workload package: scenes, dataset profiles and frame streams."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, WorkloadError
from repro.workload.dataset import (
    available_datasets,
    build_dataset,
    kitti,
    register_dataset,
    visdrone2019,
)
from repro.workload.fleet import FleetFrameStream
from repro.workload.generator import DomainSegment, DomainSwitchStream, FrameStream
from repro.workload.scene import SceneComplexityProcess


# -- scene complexity -----------------------------------------------------------


def test_scene_process_stays_within_bounds():
    process = SceneComplexityProcess(
        mean=150.0, innovation_std=40.0, correlation=0.8, minimum=20.0, maximum=400.0
    )
    rng = np.random.default_rng(0)
    values = [process.step(rng) for _ in range(2000)]
    assert min(values) >= 20.0
    assert max(values) <= 400.0
    assert np.mean(values) == pytest.approx(150.0, rel=0.15)


def test_scene_process_is_temporally_correlated():
    process = SceneComplexityProcess(
        mean=150.0, innovation_std=30.0, correlation=0.9, minimum=0.0, maximum=1000.0
    )
    rng = np.random.default_rng(1)
    values = np.array([process.step(rng) for _ in range(3000)])
    lag1 = np.corrcoef(values[:-1], values[1:])[0, 1]
    assert lag1 > 0.7


def test_scene_process_reset():
    process = SceneComplexityProcess(mean=100.0, innovation_std=10.0)
    rng = np.random.default_rng(2)
    process.step(rng)
    assert process.reset() == pytest.approx(100.0)
    randomised = process.reset(rng)
    assert 0.0 <= randomised


def test_scene_process_validation():
    with pytest.raises(WorkloadError):
        SceneComplexityProcess(mean=-1.0, innovation_std=1.0)
    with pytest.raises(WorkloadError):
        SceneComplexityProcess(mean=1.0, innovation_std=1.0, correlation=1.0)
    with pytest.raises(WorkloadError):
        SceneComplexityProcess(mean=10.0, innovation_std=1.0, minimum=20.0, maximum=30.0)


@settings(max_examples=30, deadline=None)
@given(
    mean=st.floats(min_value=10.0, max_value=500.0),
    std=st.floats(min_value=0.0, max_value=100.0),
    correlation=st.floats(min_value=0.0, max_value=0.95),
    seed=st.integers(min_value=0, max_value=100),
)
def test_scene_process_never_escapes_clip_range(mean, std, correlation, seed):
    process = SceneComplexityProcess(
        mean=mean, innovation_std=std, correlation=correlation, minimum=0.0, maximum=1000.0
    )
    rng = np.random.default_rng(seed)
    for _ in range(200):
        value = process.step(rng)
        assert 0.0 <= value <= 1000.0


# -- dataset profiles ---------------------------------------------------------------


def test_dataset_profiles_capture_paper_characteristics():
    k, v = kitti(), visdrone2019()
    # VisDrone: higher-resolution images and far more candidate objects.
    assert v.image_scale > k.image_scale
    assert v.complexity_mean > 2.0 * k.complexity_mean
    process = v.scene_process()
    assert process.mean == pytest.approx(v.complexity_mean)
    assert process.stationary_std == pytest.approx(v.complexity_std, rel=0.01)


def test_dataset_registry():
    assert set(available_datasets()) >= {"kitti", "visdrone2019"}
    assert build_dataset("kitti").name == "kitti"
    with pytest.raises(ConfigurationError):
        build_dataset("coco")
    with pytest.raises(ConfigurationError):
        register_dataset("kitti", kitti)
    register_dataset("kitti_copy_for_tests", kitti, overwrite=True)
    assert "kitti_copy_for_tests" in available_datasets()


# -- frame streams ---------------------------------------------------------------------


def test_frame_stream_produces_sequential_frames(rng):
    stream = FrameStream(kitti(), rng, latency_constraint_ms=450.0)
    frames = stream.take(50)
    assert [f.index for f in frames] == list(range(50))
    assert all(f.dataset == "kitti" for f in frames)
    assert all(f.latency_constraint_ms == 450.0 for f in frames)
    assert all(f.image_scale == kitti().image_scale for f in frames)
    assert stream.frames_emitted == 50
    assert len({round(f.scene_candidates, 3) for f in frames}) > 10


def test_frame_stream_default_constraint_is_none(rng):
    stream = FrameStream(kitti(), rng)
    assert stream.next_frame().latency_constraint_ms is None
    with pytest.raises(WorkloadError):
        stream.take(-1)


def test_domain_switch_stream_changes_dataset_and_constraint(rng):
    segments = [
        DomainSegment(dataset=kitti(), num_frames=30, latency_constraint_ms=400.0),
        DomainSegment(dataset=visdrone2019(), num_frames=30, latency_constraint_ms=650.0),
    ]
    stream = DomainSwitchStream(segments, rng)
    assert stream.total_scheduled_frames == 60
    frames = stream.take(70)
    assert all(f.dataset == "kitti" for f in frames[:30])
    assert all(f.latency_constraint_ms == 400.0 for f in frames[:30])
    assert all(f.dataset == "visdrone2019" for f in frames[30:])
    assert all(f.latency_constraint_ms == 650.0 for f in frames[30:])
    # Frames keep a global monotonically increasing index across segments.
    assert [f.index for f in frames] == list(range(70))
    # After the last scheduled segment the final dataset keeps producing.
    assert stream.current_dataset == "visdrone2019"


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.int64))


@pytest.mark.parametrize("taken", (0, 2, 5))
def test_continuing_fleet_stream_follows_the_domain_switch(taken):
    """A one-session fleet stream that takes over a domain switch after
    ``taken`` frames emits the frames the switch would have, bit for bit,
    through every later segment boundary and across a checkpoint."""
    segments = [
        DomainSegment(dataset=kitti(), num_frames=3, latency_constraint_ms=300.0),
        DomainSegment(dataset=visdrone2019(), num_frames=4),
        DomainSegment(dataset=kitti(), num_frames=2, latency_constraint_ms=500.0),
    ]

    def switch():
        stream = DomainSwitchStream(segments, np.random.default_rng(5))
        stream.take(taken)
        return stream

    scalar = switch()
    fleet = FleetFrameStream.continuing(switch(), 250.0)
    batches, snapshot = [], None
    for step in range(12):
        if step == 4:
            snapshot = fleet.state_dict()
        frame, batch = scalar.next_frame(), fleet.next_frames()
        batches.append(batch)
        assert batch.index == frame.index
        assert batch.datasets == (frame.dataset,)
        assert _bits(batch.scene_candidates[0]) == _bits(frame.scene_candidates)
        assert batch.image_scale[0] == frame.image_scale
        constraint = frame.latency_constraint_ms
        assert batch.latency_constraint_ms[0] == (250.0 if constraint is None else constraint)
    restored = FleetFrameStream.continuing(switch(), 250.0)
    restored.load_state_dict(snapshot)
    for batch in batches[4:]:
        again = restored.next_frames()
        assert again.datasets == batch.datasets
        assert _bits(again.scene_candidates[0]) == _bits(batch.scene_candidates[0])
        assert again.latency_constraint_ms[0] == batch.latency_constraint_ms[0]


def test_continuing_takes_only_scalar_streams():
    with pytest.raises(WorkloadError):
        FleetFrameStream.continuing([], 250.0)


def test_domain_switch_validation(rng):
    with pytest.raises(WorkloadError):
        DomainSwitchStream([], rng)
    with pytest.raises(WorkloadError):
        DomainSegment(dataset=kitti(), num_frames=0)
