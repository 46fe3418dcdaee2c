"""State-isolation and recovery contract of the persistent warm-worker pool.

The acceptance bar of :mod:`repro.runtime.pool`:

* **Warm workers leak no state.**  A randomized back-to-back episode
  sequence — mixed registry scenarios, homogeneous fleet cells and
  supervised faulted runs — executed on one shared pool produces traces
  byte-identical to fresh-process runs (each call preceded by
  ``shutdown_shared_pool()``, so it forks new workers), whether a shard is
  served from a warm pin or rebuilt after LRU eviction.
* **A worker death mid-sequence is invisible.**  The pool respawns the
  slot, the supervised shard resumes from its spooled checkpoint, the
  trace stays byte-identical to the uninterrupted single-process run, and
  the *same* pool keeps serving subsequent episodes bit-exactly.
* **The protocol is honest.**  Fingerprints key on the exact session
  slice and method, RESET drops every pinned shard, results larger than
  the pipe buffer cross intact, worker counts clamp to the host CPU count
  with wave scheduling for the excess, and unknown task kinds fail with a
  typed error.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro import obs
from repro.analysis.experiments import ExperimentSetting
from repro.errors import ShardError
from repro.faults import FaultPlan, SensorDropout, WorkerCrash
from repro.runtime import (
    ExperimentJob,
    ExperimentRuntime,
    cell_scenario,
    run_fleet_scenario,
    run_sharded_scenario,
    run_supervised_scenario,
)
from repro.runtime.pool import (
    FleetWorkerPool,
    PoolTask,
    scenario_shard_fingerprint,
    shared_pool,
    shutdown_shared_pool,
)
from repro.kernels import FAMILIES, resolve
from repro.scenarios import ScenarioSpec, build_scenario

from tests.test_fleet_sharding import assert_traces_identical

FRAMES = 10
SESSIONS = 4
SHARDS = 2


@pytest.fixture(autouse=True)
def _pool_isolation():
    """Every test starts and ends with no shared pool."""
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()


def _dropout_plan() -> FaultPlan:
    return FaultPlan(
        events=(SensorDropout(start_frame=2, num_frames=3, probability=0.6),),
        seed=11,
        name="pool-dropout",
    )


def _episode_menu():
    """Callables covering every pool task kind; each call builds its own
    inputs so nothing but the pool itself persists between episodes."""
    setting = ExperimentSetting(num_frames=8, seed=3)
    return [
        lambda: run_sharded_scenario(
            "cctv-burst", SHARDS, num_sessions=SESSIONS, num_frames=FRAMES
        ).fleet_trace,
        lambda: run_sharded_scenario(
            "mixed-edge-fleet", SHARDS, num_sessions=SESSIONS, num_frames=8
        ).fleet_trace,
        lambda: run_sharded_scenario(
            cell_scenario(setting, "default", 6), SHARDS
        ).fleet_trace,
        lambda: run_sharded_scenario(cell_scenario(setting, "ztt", 5), SHARDS).fleet_trace,
        lambda: run_supervised_scenario(
            build_scenario("cctv-burst").with_faults(_dropout_plan()),
            SHARDS,
            num_sessions=SESSIONS,
            num_frames=FRAMES,
            checkpoint_every=4,
        ).fleet_trace,
    ]


class TestWarmStateIsolation:
    def test_randomized_sequence_matches_fresh_process_runs(self):
        menu = _episode_menu()
        # Every episode kind at least once, plus seeded-random repeats so
        # warm pins, LRU evictions and rebuilds all occur mid-sequence.
        rng = np.random.default_rng(90125)
        order = list(range(len(menu))) + [
            int(i) for i in rng.integers(0, len(menu), size=2)
        ]
        rng.shuffle(order)

        # Fresh-process baseline: shutting the shared pool down before each
        # call gives every call newly forked workers.
        fresh = []
        for i in order:
            shutdown_shared_pool()
            fresh.append(menu[i]())

        shutdown_shared_pool()
        warm_first = [menu[i]() for i in order]
        pool = shared_pool()
        first_stats = dict(pool.stats)
        warm_second = [menu[i]() for i in order]

        assert shared_pool() is pool, "the shared pool must persist"
        assert pool.stats["tasks"] > first_stats["tasks"]
        for baseline, first, second in zip(fresh, warm_first, warm_second):
            assert_traces_identical(first, baseline)
            assert_traces_identical(second, baseline)

    def test_back_to_back_rerun_hits_warm_shards(self):
        first = run_sharded_scenario(
            "cctv-burst", SHARDS, num_sessions=SESSIONS, num_frames=FRAMES
        )
        warm_hits = shared_pool().stats["warm_hits"]
        second = run_sharded_scenario(
            "cctv-burst", SHARDS, num_sessions=SESSIONS, num_frames=FRAMES
        )
        assert shared_pool().stats["warm_hits"] > warm_hits
        assert_traces_identical(second.fleet_trace, first.fleet_trace)

    def test_runtime_jobs_on_pool_match_serial(self):
        jobs = [
            ExperimentJob(setting=ExperimentSetting(num_frames=6, seed=s), method=m)
            for s, m in ((0, "default"), (1, "ztt"), (2, "default"))
        ]
        serial = ExperimentRuntime(max_workers=1, cache=None).run_jobs(jobs)
        # First on freshly forked workers, then again on the same, warm pool.
        pool = shared_pool()
        for _ in range(2):
            pooled = ExperimentRuntime(max_workers=2, cache=None).run_jobs(jobs)
            assert shared_pool() is pool
            for mine, theirs in zip(pooled, serial):
                assert pickle.dumps(mine) == pickle.dumps(theirs)

    def test_results_larger_than_the_pipe_buffer_match_serial(self):
        """A result pickle beyond the 64 KiB pipe buffer blocks the worker's
        send until the parent reads it; both jobs must still arrive whole."""
        jobs = [
            ExperimentJob(
                setting=ExperimentSetting(num_frames=1000, seed=seed), method="default"
            )
            for seed in (0, 1)
        ]
        serial = ExperimentRuntime(max_workers=1, cache=None).run_jobs(jobs)
        pooled = ExperimentRuntime(max_workers=2, cache=None).run_jobs(jobs)
        for mine, theirs in zip(pooled, serial):
            blob = pickle.dumps(theirs)
            assert len(blob) > 64 * 1024
            assert pickle.dumps(mine) == blob


class TestCrashRecoveryOnPool:
    def test_worker_kill_mid_sequence_recovers(self):
        scenario = build_scenario("cctv-burst")
        reference = run_fleet_scenario(
            scenario, num_frames=FRAMES, num_sessions=SESSIONS
        )

        # Episode 1 warms the pool; episode 2 loses a worker mid-run.
        before = run_sharded_scenario(
            "cctv-burst", SHARDS, num_sessions=SESSIONS, num_frames=FRAMES
        )
        pool = shared_pool()
        respawns = pool.stats["respawns"]
        result = run_supervised_scenario(
            scenario,
            SHARDS,
            num_sessions=SESSIONS,
            num_frames=FRAMES,
            checkpoint_every=4,
            crashes=(WorkerCrash(frame=6, shard=0),),
        )
        assert result.recovery.crashes_detected >= 1
        assert result.recovery.restarts >= 1
        assert 0 in result.recovery.recovered_shards
        assert_traces_identical(result.fleet_trace, reference.fleet_trace)

        # Episode 3: the same pool survived the death with a respawned slot
        # and still produces bit-exact traces.
        assert shared_pool() is pool
        assert pool.stats["respawns"] > respawns
        after = run_sharded_scenario(
            "cctv-burst", SHARDS, num_sessions=SESSIONS, num_frames=FRAMES
        )
        assert_traces_identical(after.fleet_trace, before.fleet_trace)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only forked workers inherit the parent's kernels",
)
def test_forked_workers_inherit_the_parents_resolved_kernels(monkeypatch):
    """Every worker, a respawned one included, runs its tasks on the
    kernels the parent resolved before forking it: no task resolves a
    family, so none of their obs snapshots carries ``fused.resolved``."""
    monkeypatch.setattr(resolve, "_kernels", {})
    monkeypatch.setattr(resolve, "_status", {})
    shutdown_shared_pool()  # workers forked from here on see the patch
    registry = obs.enable()
    try:
        result = run_supervised_scenario(
            "cctv-burst",
            SHARDS,
            num_sessions=SESSIONS,
            num_frames=FRAMES,
            checkpoint_every=4,
            crashes=(WorkerCrash(frame=6, shard=0),),
        )
    finally:
        obs.disable()
    assert result.recovery.recovered_shards == (0,)
    origins = {event.get("origin") for event in registry.events}
    assert {"worker-0", "worker-1"} <= origins
    resolved = [event for event in registry.events if event["name"] == "fused.resolved"]
    assert sorted(event["fields"]["family"] for event in resolved) == sorted(FAMILIES)
    assert all("origin" not in event for event in resolved)


class TestPoolProtocol:
    def test_worker_count_clamps_to_cpu(self):
        pool = FleetWorkerPool(max_workers=4096)
        try:
            assert pool.max_workers <= (os.cpu_count() or 1)
            pool.ensure_workers(4096)
            assert pool.stats["workers"] <= pool.max_workers
        finally:
            pool.shutdown()

    def test_wave_scheduling_completes_excess_shards(self):
        scenario = build_scenario("cctv-burst")
        sharded = run_sharded_scenario(scenario, 4, num_sessions=8, num_frames=6)
        reference = run_fleet_scenario(scenario, num_frames=6, num_sessions=8)
        assert_traces_identical(sharded.fleet_trace, reference.fleet_trace)

    def test_fingerprints_key_on_slice_and_method(self):
        scenario = build_scenario("cctv-burst")
        a = scenario_shard_fingerprint(scenario, 4, 0, 2)
        assert a == scenario_shard_fingerprint(scenario, 4, 0, 2)
        assert a != scenario_shard_fingerprint(scenario, 4, 2, 4)
        assert a != scenario_shard_fingerprint(scenario, 8, 0, 2)

        governed = ScenarioSpec(name="cell", method="default", num_frames=8)
        learned = governed.with_overrides(method="ztt")
        f = scenario_shard_fingerprint(governed, 6, 0, 3)
        assert f == scenario_shard_fingerprint(governed, 6, 0, 3)
        assert f != scenario_shard_fingerprint(learned, 6, 0, 3)
        assert f != scenario_shard_fingerprint(governed, 6, 3, 6)
        assert a != f

    def test_reset_drops_pinned_shards(self):
        args = ("cctv-burst", SHARDS)
        kwargs = dict(num_sessions=SESSIONS, num_frames=6)
        result = run_sharded_scenario(*args, **kwargs)
        pool = shared_pool()
        assert all(handle.pins for handle in pool._workers)

        pool.reset()
        assert not any(handle.pins for handle in pool._workers)
        before = dict(pool.stats)
        run_sharded_scenario(*args, **kwargs)
        assert pool.stats["warm_hits"] == before["warm_hits"]
        assert pool.stats["rebuilds"] == before["rebuilds"] + len(result.shards)

    def test_unknown_task_kind_raises_shard_error(self):
        pool = FleetWorkerPool(max_workers=1)
        try:
            with pytest.raises(ShardError, match="unknown pool task kind"):
                pool.run_tasks([PoolTask(kind="bogus", args=())])
        finally:
            pool.shutdown()
