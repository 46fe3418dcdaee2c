"""The experiment runtime: job hashing, result caching, engine execution.

Covers the acceptance criteria of the runtime subsystem: job-key
determinism (same setting → same hash, changed configuration → new hash),
cache round-trips that reproduce metrics exactly, serial-versus-parallel
equivalence on a small sweep, and immediate cache-hit re-runs that skip
every execution.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis import experiments
from repro.analysis.experiments import (
    ExperimentSetting,
    default_latency_constraint,
    execute_setting,
    run_comparison,
)
from repro.env.ambient import AmbientProfile, ConstantAmbient, warm_cold_warm
from repro.env.fleet import _FRAME_RESULT_ARRAY_FIELDS
from repro.errors import ExperimentError
from repro.runtime import (
    ExperimentJob,
    ExperimentRuntime,
    ResultCache,
    SweepSpec,
    job_key,
    sweep_metrics_map,
)
from repro.runtime.cache import DEFAULT_BLOB_THRESHOLD_FRAMES
from repro.runtime.fleet import run_fleet


def tiny_setting(**overrides) -> ExperimentSetting:
    defaults = dict(
        device="jetson-orin-nano",
        detector="faster_rcnn",
        dataset="kitti",
        num_frames=30,
        seed=0,
    )
    defaults.update(overrides)
    return ExperimentSetting(**defaults)


# ---------------------------------------------------------------------------
# Job keys
# ---------------------------------------------------------------------------


def test_job_key_is_deterministic():
    job = ExperimentJob(setting=tiny_setting(), method="default")
    same = ExperimentJob(setting=tiny_setting(), method="default")
    assert job_key(job) == job_key(same)
    assert job_key(job) == job.cache_key()


def test_job_key_changes_with_setting_and_method():
    base = ExperimentJob(setting=tiny_setting(), method="default")
    keys = {
        job_key(base),
        job_key(ExperimentJob(setting=tiny_setting(seed=1), method="default")),
        job_key(ExperimentJob(setting=tiny_setting(dataset="visdrone2019"), method="default")),
        job_key(ExperimentJob(setting=tiny_setting(num_frames=31), method="default")),
        job_key(ExperimentJob(setting=tiny_setting(), method="ztt")),
        job_key(ExperimentJob(setting=tiny_setting(), method="default", domain_datasets=("kitti", "visdrone2019"))),
    }
    assert len(keys) == 6


def test_job_key_resolves_default_latency_constraint():
    derived = default_latency_constraint("jetson-orin-nano", "faster_rcnn", "kitti")
    implicit = ExperimentJob(setting=tiny_setting(), method="default")
    explicit = ExperimentJob(
        setting=tiny_setting(latency_constraint_ms=derived), method="default"
    )
    tighter = ExperimentJob(
        setting=tiny_setting(latency_constraint_ms=derived * 0.9), method="default"
    )
    assert job_key(implicit) == job_key(explicit)
    assert job_key(implicit) != job_key(tighter)


def test_job_key_changes_when_config_changes(monkeypatch):
    job = ExperimentJob(setting=tiny_setting(), method="default")
    before = job_key(job)
    monkeypatch.setattr(experiments, "CONTROL_MARGIN_FRACTION", 0.123)
    assert job_key(job) != before


def test_job_key_covers_ambient_profiles():
    base = ExperimentJob(setting=tiny_setting(), method="default")
    constant = ExperimentJob(
        setting=tiny_setting(), method="default", ambient=ConstantAmbient(10.0)
    )
    stepped = ExperimentJob(
        setting=tiny_setting(), method="default", ambient=warm_cold_warm(10)
    )
    keys = {job_key(base), job_key(constant), job_key(stepped)}
    assert None not in keys and len(keys) == 3


def test_exotic_ambient_profile_is_uncacheable(tmp_path):
    class WeirdAmbient(AmbientProfile):
        def temperature_at(self, frame_index: int) -> float:
            return 20.0 + (frame_index % 3)

    job = ExperimentJob(setting=tiny_setting(num_frames=10), method="default", ambient=WeirdAmbient())
    assert job.cache_key() is None
    runtime = ExperimentRuntime(max_workers=1, cache=ResultCache(tmp_path))
    result = runtime.run(job)
    assert result.metrics.num_frames == 10
    assert runtime.last_report.uncacheable == 1
    assert ResultCache(tmp_path).stats().entries == 0


# ---------------------------------------------------------------------------
# Cache round trips
# ---------------------------------------------------------------------------


def test_cache_round_trip_reproduces_session(tmp_path):
    cache = ResultCache(tmp_path)
    result = execute_setting(tiny_setting(), "ztt")
    assert not cache.contains("a" * 64)
    cache.store("a" * 64, result)
    assert cache.contains("a" * 64)
    loaded = cache.load("a" * 64)
    assert loaded is not None
    assert loaded.policy_name == result.policy_name
    assert loaded.metrics == result.metrics
    assert loaded.steady_metrics == result.steady_metrics
    assert len(loaded.trace) == len(result.trace)
    assert loaded.trace.records[5] == result.trace.records[5]
    assert loaded.losses == pytest.approx(result.losses)
    assert loaded.rewards == pytest.approx(result.rewards)


def test_cache_miss_and_corruption_are_tolerated(tmp_path):
    cache = ResultCache(tmp_path)
    key = "b" * 64
    assert cache.load(key) is None
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"not a gzip payload")
    assert cache.load(key) is None  # corrupt entry reads as a miss


def test_cache_stats_and_clear(tmp_path):
    cache = ResultCache(tmp_path)
    result = execute_setting(tiny_setting(num_frames=8), "default")
    cache.store("c" * 64, result)
    cache.store("d" * 64, result)
    stats = cache.stats()
    assert stats.entries == 2 and stats.total_bytes > 0
    assert cache.clear() == 2
    assert cache.stats().entries == 0


def test_cache_sidecar_blob_round_trip_and_clear(tmp_path):
    """A trace past the blob threshold is stored as a columnar sidecar
    blob, reloads bit-identically, and is removed by ``clear``."""
    frames = 600
    assert frames >= DEFAULT_BLOB_THRESHOLD_FRAMES
    cache = ResultCache(tmp_path)
    result = execute_setting(tiny_setting(num_frames=frames), "default")
    key = "e" * 64
    cache.store(key, result)
    assert cache.blob_dir_for(key).is_dir()
    assert cache.stats().blob_bytes > 0
    loaded = cache.load(key)
    assert loaded is not None
    assert loaded.trace.records == result.trace.records
    assert loaded.metrics == result.metrics
    assert loaded.steady_metrics == result.steady_metrics
    assert cache.clear() == 1
    assert list(tmp_path.iterdir()) == []


def _metric_bits(metrics) -> bytes:
    values = [getattr(metrics, f.name) for f in dataclasses.fields(metrics)]
    return np.array(values, dtype=np.float64).view(np.int64).tobytes()


@pytest.mark.parametrize(
    "frames", [30, DEFAULT_BLOB_THRESHOLD_FRAMES], ids=["rows", "blob"]
)
def test_cache_round_trip_of_fleet_derived_sessions(tmp_path, frames):
    """A session cut from a fleet trace (NumPy-backed columns) stores and
    reloads bit-identically through both the JSON-row and the blob path."""
    cache = ResultCache(tmp_path)
    fleet = run_fleet(tiny_setting(num_frames=frames), "default", 2)
    for i, session in enumerate(fleet.sessions):
        key = str(i) * 64
        cache.store(key, session)
        assert cache.blob_dir_for(key).is_dir() == (frames >= DEFAULT_BLOB_THRESHOLD_FRAMES)
        loaded = cache.load(key)
        assert loaded is not None
        for name in ("index",) + _FRAME_RESULT_ARRAY_FIELDS:
            ours, theirs = loaded.trace.column(name), session.trace.column(name)
            assert ours.dtype == theirs.dtype
            assert ours.tobytes() == theirs.tobytes(), name
        assert loaded.trace.datasets() == session.trace.datasets()
        assert _metric_bits(loaded.metrics) == _metric_bits(session.metrics)
        assert _metric_bits(loaded.steady_metrics) == _metric_bits(
            session.steady_metrics
        )


# ---------------------------------------------------------------------------
# Engine: serial / parallel equivalence and cache hits
# ---------------------------------------------------------------------------


def test_serial_and_parallel_sweeps_are_identical_and_cached(tmp_path):
    spec = SweepSpec(
        datasets=("kitti", "visdrone2019"),
        methods=("default", "lotus"),
        num_frames=40,
    )
    jobs = spec.expand()
    assert len(jobs) == 4

    serial = ExperimentRuntime(max_workers=1).run_jobs(jobs)
    parallel_runtime = ExperimentRuntime(max_workers=2, cache=ResultCache(tmp_path))
    parallel = parallel_runtime.run_jobs(jobs)
    assert parallel_runtime.last_report.executed == 4

    for serial_result, parallel_result in zip(serial, parallel):
        assert serial_result.metrics == parallel_result.metrics
        assert serial_result.steady_metrics == parallel_result.steady_metrics

    # An immediate re-run answers every cell from the cache without
    # re-training any session.
    rerun_runtime = ExperimentRuntime(max_workers=2, cache=ResultCache(tmp_path))
    rerun = rerun_runtime.run_jobs(jobs)
    assert rerun_runtime.last_report.cache_hits == 4
    assert rerun_runtime.last_report.executed == 0
    for fresh, cached in zip(parallel, rerun):
        assert fresh.metrics == cached.metrics


def test_run_comparison_through_cached_runtime(tmp_path):
    setting = tiny_setting(num_frames=25)
    plain = run_comparison(setting, methods=("default", "ztt"))
    cached_runtime = ExperimentRuntime(max_workers=1, cache=ResultCache(tmp_path))
    first = run_comparison(setting, methods=("default", "ztt"), runtime=cached_runtime)
    assert cached_runtime.last_report.executed == 2
    second = run_comparison(setting, methods=("default", "ztt"), runtime=cached_runtime)
    assert cached_runtime.last_report.cache_hits == 2
    for method in ("default", "ztt"):
        assert plain.metrics(method) == first.metrics(method)
        assert first.metrics(method) == second.metrics(method)


def test_engine_progress_and_validation(tmp_path):
    with pytest.raises(ExperimentError):
        ExperimentRuntime(max_workers=0)
    seen = []
    runtime = ExperimentRuntime(max_workers=1, cache=ResultCache(tmp_path))
    job = ExperimentJob(setting=tiny_setting(num_frames=8), method="default")
    runtime.run_jobs([job], progress=lambda done, total, j, hit: seen.append((done, total, hit)))
    runtime.run_jobs([job], progress=lambda done, total, j, hit: seen.append((done, total, hit)))
    assert seen == [(1, 1, False), (1, 1, True)]


# ---------------------------------------------------------------------------
# Sweep expansion
# ---------------------------------------------------------------------------


def test_sweep_spec_expansion_order_and_size():
    spec = SweepSpec(
        devices=("jetson-orin-nano", "mi11-lite"),
        detectors=("faster_rcnn",),
        datasets=("kitti", "visdrone2019"),
        methods=("default", "lotus"),
        seeds=(0, 1),
        num_frames=10,
    )
    jobs = spec.expand()
    assert spec.size == len(jobs) == 16
    assert jobs == spec.expand()  # deterministic
    assert jobs[0].setting.device == "jetson-orin-nano"
    assert [j.method for j in jobs[:2]] == ["default", "lotus"]
    assert jobs[0].setting.seed == 0 and jobs[2].setting.seed == 1
    assert jobs[-1].setting.device == "mi11-lite"


def test_sweep_spec_validation():
    with pytest.raises(ExperimentError):
        SweepSpec(methods=())
    with pytest.raises(ExperimentError):
        SweepSpec(num_frames=0)


def test_sweep_metrics_map_layout():
    spec = SweepSpec(methods=("default", "fixed"), num_frames=8)
    jobs = spec.expand()
    results = ExperimentRuntime(max_workers=1).run_jobs(jobs)
    table = sweep_metrics_map(jobs, results, device="jetson-orin-nano")
    assert set(table) == {"faster_rcnn"}
    assert set(table["faster_rcnn"]) == {"default", "fixed"}
    assert set(table["faster_rcnn"]["default"]) == {"kitti"}
    assert table["faster_rcnn"]["default"]["kitti"].num_frames == 8
    assert sweep_metrics_map(jobs, results, device="mi11-lite") == {}
    with pytest.raises(ExperimentError):
        sweep_metrics_map(jobs, results[:1], device="jetson-orin-nano")
