"""State-isolation and recovery contract of the persistent warm-worker pool.

The acceptance bar of :mod:`repro.runtime.pool`:

* **Warm workers leak no state.**  A randomized back-to-back episode
  sequence — mixed registry scenarios, homogeneous fleet cells and
  supervised faulted runs — executed on one shared pool produces traces
  byte-identical to fresh-process runs (``REPRO_POOL=0`` spawns a private
  single-use pool per call), whether a shard is served from a warm pin or
  rebuilt after LRU eviction.
* **A worker death mid-sequence is invisible.**  The pool respawns the
  slot, the supervised shard resumes from its spooled checkpoint, the
  trace stays byte-identical to the uninterrupted single-process run, and
  the *same* pool keeps serving subsequent episodes bit-exactly.
* **The protocol is honest.**  Fingerprints key on the exact session
  slice and method, checkpoints of pinned shards are capturable and
  RESET drops them, large payloads round-trip through shared memory,
  worker counts clamp to the host CPU count with wave scheduling for the
  excess, and unknown task kinds fail with a typed error.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentSetting
from repro.errors import ShardError
from repro.faults import FaultPlan, SensorDropout, WorkerCrash
from repro.runtime import (
    ExperimentJob,
    ExperimentRuntime,
    run_fleet_scenario,
    run_sharded_fleet,
    run_sharded_scenario,
    run_supervised_scenario,
)
from repro.runtime.pool import (
    POOL_ENV,
    SHM_THRESHOLD_BYTES,
    FleetWorkerPool,
    PoolTask,
    _export_payload,
    _import_payload,
    acquire_pool,
    pool_enabled,
    scenario_shard_fingerprint,
    shared_pool,
    shutdown_shared_pool,
)
from repro.scenarios import ScenarioSpec, build_scenario

from tests.test_fleet_sharding import assert_traces_identical

FRAMES = 10
SESSIONS = 4
SHARDS = 2


@pytest.fixture(autouse=True)
def _pool_isolation(monkeypatch):
    """Every test starts from no shared pool and the default (enabled) env."""
    monkeypatch.delenv(POOL_ENV, raising=False)
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
        lambda: run_sharded_fleet(setting, "default", 6, SHARDS).fleet_trace,
        lambda: run_sharded_fleet(setting, "ztt", 5, SHARDS).fleet_trace,
        lambda: run_supervised_scenario(
            build_scenario("cctv-burst").with_faults(_dropout_plan()),
            SHARDS,
            num_sessions=SESSIONS,
            num_frames=FRAMES,
            checkpoint_every=4,
        ).fleet_trace,
    ]


class TestWarmStateIsolation:
    def test_randomized_sequence_matches_fresh_process_runs(self, monkeypatch):
        menu = _episode_menu()
        # Every episode kind at least once, plus seeded-random repeats so
        # warm pins, LRU evictions and rebuilds all occur mid-sequence.
        rng = np.random.default_rng(90125)
        order = list(range(len(menu))) + [
            int(i) for i in rng.integers(0, len(menu), size=2)
        ]
        rng.shuffle(order)

        # Fresh-process baseline: a disabled pool gives every call its own
        # private single-use pool of newly spawned workers.
        monkeypatch.setenv(POOL_ENV, "0")
        fresh = [menu[i]() for i in order]

        monkeypatch.delenv(POOL_ENV, raising=False)
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

    def test_runtime_jobs_on_pool_match_serial(self, monkeypatch):
        jobs = [
            ExperimentJob(setting=ExperimentSetting(num_frames=6, seed=s), method=m)
            for s, m in ((0, "default"), (1, "ztt"), (2, "default"))
        ]
        serial = ExperimentRuntime(max_workers=1, cache=None).run_jobs(jobs)
        # REPRO_POOL=0 runs the jobs on a private pool; unset, on the shared one.
        for pool_env in ("0", None):
            if pool_env is None:
                monkeypatch.delenv(POOL_ENV)
            else:
                monkeypatch.setenv(POOL_ENV, pool_env)
            pooled = ExperimentRuntime(max_workers=2, cache=None).run_jobs(jobs)
            assert (shared_pool.__globals__["_shared_pool"] is None) == (
                pool_env == "0"
            )
            for mine, theirs in zip(pooled, serial):
                assert pickle.dumps(mine) == pickle.dumps(theirs)


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

    def test_checkpoint_of_pinned_shard_and_reset(self):
        result = run_sharded_scenario(
            "cctv-burst", SHARDS, num_sessions=SESSIONS, num_frames=6
        )
        pool = shared_pool()
        total = len(result.assignments)
        shard = result.shards[0]
        fingerprint = scenario_shard_fingerprint(
            result.scenario, total, shard.start, shard.stop
        )
        env_states, policy_states = pool.checkpoint(fingerprint)
        assert len(env_states) >= 1
        assert len(policy_states) == len(env_states)

        pool.reset()
        with pytest.raises(ShardError):
            pool.checkpoint(fingerprint)

    def test_shared_memory_payload_round_trip(self):
        small = {"answer": 42}
        descriptor = _export_payload(small)
        assert descriptor[0] == "inline"
        obj, blocks, nbytes = _import_payload(descriptor)
        assert obj == small and blocks == 0 and nbytes == 0

        big = np.arange(SHM_THRESHOLD_BYTES, dtype=np.float64)
        descriptor = _export_payload(big)
        assert descriptor[0] == "shm"
        obj, blocks, nbytes = _import_payload(descriptor)
        assert np.array_equal(obj, big)
        assert blocks == 1 and nbytes >= SHM_THRESHOLD_BYTES

    def test_unknown_task_kind_raises_shard_error(self):
        pool = FleetWorkerPool(max_workers=1)
        try:
            with pytest.raises(ShardError, match="unknown pool task kind"):
                pool.run_tasks([PoolTask(kind="bogus", args=())])
        finally:
            pool.shutdown()

    def test_disabled_env_yields_private_owned_pool(self, monkeypatch):
        monkeypatch.setenv(POOL_ENV, "0")
        assert not pool_enabled()
        pool, owned = acquire_pool(2)
        try:
            assert owned
            assert pool is not shared_pool.__globals__["_shared_pool"]
        finally:
            pool.shutdown()

        monkeypatch.delenv(POOL_ENV)
        assert pool_enabled()
        shared, owned = acquire_pool(1)
        assert not owned
        assert shared is shared_pool()
