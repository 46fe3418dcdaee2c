"""Fault injection, lossy delivery and supervised crash recovery.

The acceptance bar of the fault-tolerant runtime:

* **Crash recovery is invisible.**  A supervised sharded run that loses a
  worker mid-episode and recovers from the latest periodic checkpoint
  produces a :class:`~repro.env.fleet.FleetTrace` byte-identical to the
  uninterrupted single-process run — across registry scenarios and shard
  counts.
* **Fault plans are part of the experiment's identity.**  The same seeded
  plan compiles to the same schedule wherever the session lands, and plans
  round-trip through dict/JSON with strict validation.
* **Reliable delivery loses nothing.**  Under 20 % channel loss the
  retry/dedup protocol completes episodes with zero lost decisions and
  reports the retries it needed.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentSetting
from repro.analysis.resilience import resilience_report
from repro.comms.channel import LossyChannel, SimulatedChannel
from repro.comms.server import RemotePolicy
from repro.env.episode import run_episode
from repro.env.fleet import _FRAME_RESULT_ARRAY_FIELDS
from repro.errors import (
    FaultError,
    LotusError,
    ProtocolError,
    ReproError,
    ScenarioError,
    ShardError,
)
from repro.faults import (
    ChannelFaults,
    FaultPlan,
    SensorDropout,
    SensorSpike,
    ThrottlingStorm,
    WorkerCrash,
    compile_fault_plan,
    fault_plan_from_dict,
    fault_plan_from_json,
)
from repro import obs
from repro.governors.static import UserspacePolicy
from repro.runtime import (
    ResultCache,
    run_fleet_scenario,
    run_sharded_scenario,
    run_supervised_scenario,
)
from repro.runtime import shards
from repro.runtime.fleet import _resolve_scenario
from repro.runtime.pool import shutdown_shared_pool
from repro.scenarios import build_scenario

from tests.conftest import make_small_environment
from tests.test_fleet_equivalence import scenario_result_digest
from tests.test_fleet_sharding import assert_traces_identical

FRAMES = 24
SESSIONS = 4


def crash_plan(seed: int = 3) -> FaultPlan:
    """A plan mixing deterministic dropout with a mid-episode worker crash."""
    return FaultPlan(
        events=(
            SensorDropout(start_frame=5, num_frames=6, probability=0.7),
            WorkerCrash(frame=FRAMES // 2, shard=1),
        ),
        seed=seed,
        name="crash-plan",
    )


# ---------------------------------------------------------------------------
# Plan codec and validation
# ---------------------------------------------------------------------------


def test_fault_plan_round_trips_through_dict_and_json():
    plan = FaultPlan(
        events=(
            SensorDropout(start_frame=2, num_frames=3, sessions=(0, 2), probability=0.5),
            SensorSpike(frame=7, delta_c=9.0),
            ThrottlingStorm(start_frame=10, num_frames=2),
            ChannelFaults(drop_rate=0.2, delay_rate=0.1, delay_ms=30.0, duplicate_rate=0.05),
            WorkerCrash(frame=12, shard=1),
        ),
        seed=11,
        name="everything",
    )
    assert fault_plan_from_dict(plan.to_dict()) == plan
    assert fault_plan_from_json(plan.to_json()) == plan


def test_fault_plan_rejects_malformed_payloads():
    plan = crash_plan()
    with pytest.raises(FaultError):
        fault_plan_from_dict({"kind": "not-a-plan"})
    payload = plan.to_dict()
    payload["mystery"] = 1
    with pytest.raises(FaultError):
        fault_plan_from_dict(payload)
    payload = plan.to_dict()
    payload["events"][0]["kind"] = "solar_flare"
    with pytest.raises(FaultError):
        fault_plan_from_dict(payload)
    payload = plan.to_dict()
    payload["events"][0]["extra_field"] = True
    with pytest.raises(FaultError):
        fault_plan_from_dict(payload)
    with pytest.raises(FaultError):
        fault_plan_from_json("{broken json")


def test_fault_event_validation():
    with pytest.raises(FaultError):
        SensorDropout(start_frame=-1, num_frames=3)
    with pytest.raises(FaultError):
        SensorDropout(start_frame=0, num_frames=0)
    with pytest.raises(FaultError):
        SensorDropout(start_frame=0, num_frames=1, probability=1.5)
    with pytest.raises(FaultError):
        ChannelFaults(drop_rate=1.5)
    with pytest.raises(FaultError):
        WorkerCrash(frame=0, shard=-1)


# ---------------------------------------------------------------------------
# Schedule compilation: seeded, per-session, grouping-invariant
# ---------------------------------------------------------------------------


def test_compiled_schedule_is_deterministic():
    plan = crash_plan()
    first = compile_fault_plan(plan, FRAMES, list(range(SESSIONS)))
    second = compile_fault_plan(plan, FRAMES, list(range(SESSIONS)))
    assert np.array_equal(first.dropout, second.dropout)
    assert np.array_equal(first.spike_c, second.spike_c)
    assert np.array_equal(first.storm, second.storm)


def test_schedule_is_invariant_under_session_grouping():
    """Column i of a full compile equals a single-session compile of i."""
    plan = FaultPlan(
        events=(
            SensorDropout(start_frame=3, num_frames=8, probability=0.4),
            SensorSpike(frame=14, delta_c=5.0),
        ),
        seed=17,
    )
    full = compile_fault_plan(plan, FRAMES, list(range(SESSIONS)))
    for session in range(SESSIONS):
        solo = compile_fault_plan(plan, FRAMES, [session])
        assert np.array_equal(full.dropout[:, session], solo.dropout[:, 0])
        assert np.array_equal(full.spike_c[:, session], solo.spike_c[:, 0])


# ---------------------------------------------------------------------------
# Supervised crash recovery: byte-identical to the uninterrupted run
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    @pytest.mark.parametrize("name", ["cctv-burst", "mixed-edge-fleet"])
    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_recovered_trace_is_byte_identical(self, name, num_shards):
        scenario = build_scenario(name).with_faults(crash_plan())
        reference = run_fleet_scenario(
            scenario, num_frames=FRAMES, num_sessions=SESSIONS
        )
        recovered = run_supervised_scenario(
            scenario,
            num_shards,
            num_frames=FRAMES,
            num_sessions=SESSIONS,
            checkpoint_every=6,
        )
        assert recovered.recovery.crashes_detected >= 1
        assert recovered.recovery.restarts >= 1
        assert_traces_identical(recovered.fleet_trace, reference.fleet_trace)
        assert reference.degraded is not None
        assert np.array_equal(recovered.degraded, reference.degraded)

    def test_same_plan_seed_reproduces_the_whole_run(self):
        scenario = build_scenario("cctv-burst").with_faults(crash_plan())
        first = run_supervised_scenario(
            scenario, 2, num_frames=FRAMES, num_sessions=SESSIONS, checkpoint_every=6
        )
        second = run_supervised_scenario(
            scenario, 2, num_frames=FRAMES, num_sessions=SESSIONS, checkpoint_every=6
        )
        assert_traces_identical(first.fleet_trace, second.fleet_trace)
        assert np.array_equal(first.degraded, second.degraded)

    @pytest.mark.parametrize("checkpoint_every", [0, 5, 6])
    @pytest.mark.parametrize("crash_frame", [0, 6, 7, 12, FRAMES - 1])
    def test_explicit_crash_without_plan_recovers(self, crash_frame, checkpoint_every):
        """Crashes at the episode's ends, mid-interval and exactly at a
        checkpoint frame, without periodic checkpoints and with intervals
        that divide the episode or do not, all recover to the uninterrupted
        trace."""
        spec = build_scenario("cctv-burst").with_overrides(
            num_frames=FRAMES, num_sessions=SESSIONS
        )
        reference = run_fleet_scenario(spec)
        recovered = run_supervised_scenario(
            spec,
            2,
            checkpoint_every=checkpoint_every,
            crashes=(WorkerCrash(frame=crash_frame, shard=0),),
        )
        assert recovered.recovery.crashes_detected == 1
        assert recovered.recovery.recovered_shards == (0,)
        assert_traces_identical(recovered.fleet_trace, reference.fleet_trace)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patch reaches the workers only when they are forked",
    )
    def test_crash_between_chunk_flush_and_checkpoint_recovers(
        self, tmp_path, monkeypatch
    ):
        """A worker dying after a chunk flush but before that boundary's
        checkpoint resumes from the previous checkpoint's store index and
        rewrites the flushed chunk."""
        spec = build_scenario("cctv-burst").with_overrides(
            num_frames=FRAMES, num_sessions=SESSIONS
        )
        reference = run_fleet_scenario(spec)
        marker = tmp_path / "died"
        write = shards._checkpoint_write

        def dying_write(path, payload):
            if path.name == "shard-0.ckpt" and payload["frame"] == 12:
                if not marker.exists():
                    chunk = path.parent / "shard-0-trace" / "chunk-000001.bin"
                    assert chunk.is_file(), "the chunk is flushed first"
                    marker.write_text("12")
                    os._exit(44)
            write(path, payload)

        monkeypatch.setattr(shards, "_checkpoint_write", dying_write)
        # A new shared pool, so its workers are forked after the patch; it
        # is shut down again so no later test runs on the patched workers.
        shutdown_shared_pool()
        try:
            recovered = run_supervised_scenario(spec, 2, checkpoint_every=6)
        finally:
            shutdown_shared_pool()
        assert marker.exists()
        assert recovered.recovery.crashes_detected == 1
        assert recovered.recovery.recovered_shards == (0,)
        assert_traces_identical(recovered.fleet_trace, reference.fleet_trace)

    def test_checkpoints_hold_state_not_frames(self, tmp_path, monkeypatch):
        """A checkpoint carries the states and the store's chunk index: no
        frames, so it grows only by one index entry per chunk."""
        payloads = []
        write = shards._checkpoint_write

        def recording_write(path, payload):
            payloads.append(payload)
            write(path, payload)

        monkeypatch.setattr(shards, "_checkpoint_write", recording_write)
        scenario = _resolve_scenario(
            build_scenario("cctv-burst").with_faults(crash_plan()), 48
        )
        shards._run_scenario_shard(
            shards._build_scenario_shard(scenario, 16, 0, 8),
            scenario.num_frames,
            shard_index=0,
            start=0,
            stop=8,
            spool_dir=str(tmp_path),
            checkpoint_every=6,
            crash_frame=None,
        )
        assert [payload["frame"] for payload in payloads] == list(range(6, 48, 6))
        for payload in payloads:
            assert set(payload) == {"frame", "environments", "policies", "store"}
            assert len(payload["store"]["chunks"]) == payload["frame"] // 6
        sizes = [
            len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
            for payload in payloads
        ]
        frame_bytes = (tmp_path / "shard-0-trace" / "chunk-000000.bin").stat().st_size / 6
        # Six more frames of trace would add 6 * frame_bytes per interval.
        assert max(np.diff(sizes)) < 256 < frame_bytes

    def test_a_failed_run_removes_its_spool_and_closes_its_span(
        self, tmp_path, monkeypatch
    ):
        spec = build_scenario("cctv-burst").with_overrides(
            num_frames=FRAMES, num_sessions=SESSIONS
        )
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        registry = obs.enable()
        try:
            with pytest.raises(ShardError, match="kept dying"):
                run_supervised_scenario(
                    spec,
                    2,
                    checkpoint_every=6,
                    crashes=(WorkerCrash(frame=7, shard=1),),
                    max_restarts=0,
                )
        finally:
            obs.disable()
        assert list(tmp_path.iterdir()) == []
        ends = [
            event["name"]
            for event in registry.events
            if event.get("phase") == "end" and "origin" not in event
        ]
        assert "runtime.run_supervised_scenario" in ends

    @pytest.mark.parametrize(
        "run", [run_sharded_scenario, run_supervised_scenario]
    )
    def test_a_merge_that_cannot_be_built_leaves_no_spool_or_open_span(
        self, tmp_path, monkeypatch, run
    ):
        spec = build_scenario("cctv-burst").with_overrides(
            num_frames=FRAMES, num_sessions=SESSIONS
        )

        def no_memory(*args, **kwargs):
            raise MemoryError("merge columns")

        monkeypatch.setattr(shards, "_ShardMerge", no_memory)
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        registry = obs.enable()
        try:
            with pytest.raises(MemoryError, match="merge columns"):
                run(spec, 2)
        finally:
            obs.disable()
        assert list(tmp_path.iterdir()) == []
        phases = [
            event["phase"]
            for event in registry.events
            if event.get("name", "").startswith("runtime.run_")
        ]
        assert phases.count("start") == phases.count("end")

    def test_invalid_supervision_arguments_are_typed(self):
        spec = build_scenario("cctv-burst").with_overrides(
            num_frames=8, num_sessions=2
        )
        with pytest.raises(ShardError):
            run_supervised_scenario(spec, 2, checkpoint_every=-1)
        with pytest.raises(FaultError):
            run_supervised_scenario(
                spec, 2, crashes=(WorkerCrash(frame=1, shard=9),)
            )


# ---------------------------------------------------------------------------
# Degradation: dropout holds last-known-good, storms floor the levels
# ---------------------------------------------------------------------------


def test_dropout_marks_degraded_frames():
    plan = FaultPlan(
        events=(SensorDropout(start_frame=5, num_frames=6),), seed=0
    )
    scenario = build_scenario("cctv-burst").with_faults(plan)
    result = run_fleet_scenario(scenario, num_frames=FRAMES, num_sessions=3)
    assert result.degraded is not None
    assert result.degraded.shape == (FRAMES, 3)
    assert result.degraded[5:11].all()
    assert not result.degraded[:5].any()
    assert not result.degraded[11:].any()


#: Fault frames the wrapper may or may not skip, each with a crash of
#: shard 1 so that shard resumes from a checkpoint (every 6 frames):
#: ``(events, crash frame, pinned scenario_result_digest)``.  The runs are
#: 2-shard supervised ``mixed-edge-fleet`` at 8 sessions and 24 frames.
FAST_PATH_CASES = {
    "dropout-at-frame-0": (
        (SensorDropout(start_frame=0, num_frames=3, probability=0.7),),
        9,
        "029a4ac77eed380d72b308134e3af1ec37d30d0e16529d04082a9c7af0c1daad",
    ),
    "windows-one-clean-frame-apart": (
        (
            SensorDropout(start_frame=5, num_frames=3),
            SensorDropout(start_frame=9, num_frames=3, probability=0.7),
        ),
        14,
        "9a48529ec46ca336fc6bd22e6f916bfa72f02a3790318a203b611913fa5bc6eb",
    ),
    "dropout-on-the-last-frame": (
        (SensorDropout(start_frame=FRAMES - 1, num_frames=1),),
        20,
        "2d91a8577ecebfcb1d6d9e0edfdffc34d39fe7b78ad1195547daa5b3c33f5199",
    ),
    "spike-without-dropout": (
        (SensorSpike(frame=7, delta_c=12.0),),
        10,
        "847da6ef224299190f0f12620b029fd641531d7d6b8a8a91a51e4fad251ce8c2",
    ),
    "checkpoint-right-before-the-window": (
        (SensorDropout(start_frame=6, num_frames=4, probability=0.7),),
        8,
        "e7dc0c752ac48c5c38a3832edb2972cea7963c5af1a84088623ff58f3c862340",
    ),
    "checkpoint-inside-the-window": (
        (SensorDropout(start_frame=3, num_frames=7, probability=0.7),),
        8,
        "9e44dd875dee6a9c018f68410e77aa9836facbfebcd4f2b55b53507a52f6597e",
    ),
}


@pytest.mark.parametrize("case", sorted(FAST_PATH_CASES))
def test_fault_frames_match_the_unsharded_run_and_the_pin(case):
    """Last-known-good is read on dropout frames only: whichever frames the
    fault wrapper skips, a resumed supervised run equals the unsharded run
    and its pinned digest."""
    events, crash_frame, pinned = FAST_PATH_CASES[case]
    plan = FaultPlan(
        events=events + (WorkerCrash(frame=crash_frame, shard=1),), seed=5
    )
    scenario = build_scenario("mixed-edge-fleet").with_faults(plan)
    reference = run_fleet_scenario(scenario, num_sessions=8, num_frames=FRAMES)
    recovered = run_supervised_scenario(
        scenario, 2, num_sessions=8, num_frames=FRAMES, checkpoint_every=6
    )
    assert recovered.recovery.recovered_shards == (1,)
    assert reference.degraded.any()
    digest = scenario_result_digest(recovered)
    assert digest == scenario_result_digest(reference)
    assert digest == pinned


@pytest.mark.parametrize("num_shards", [2, 3])
def test_sharded_run_keeps_the_degraded_mask(num_shards):
    plan = FaultPlan(
        events=(SensorDropout(start_frame=2, num_frames=6, probability=0.7),),
        seed=0,
    )
    scenario = build_scenario("cctv-burst").with_faults(plan)
    reference = run_fleet_scenario(scenario, num_frames=12, num_sessions=4)
    sharded = run_sharded_scenario(
        scenario, num_shards, num_frames=12, num_sessions=4
    )
    assert reference.recovery is None and sharded.recovery is None
    expected = resilience_report(reference)
    assert expected.degraded_cells > 0
    assert expected.crashes_detected == 0 and expected.restarts == 0
    assert resilience_report(sharded) == expected
    assert np.array_equal(sharded.degraded, reference.degraded)


def test_clean_scenario_reports_no_degradation():
    spec = build_scenario("cctv-burst").with_overrides(num_frames=8, num_sessions=2)
    assert run_fleet_scenario(spec).degraded is None


# ---------------------------------------------------------------------------
# Reliable delivery under loss
# ---------------------------------------------------------------------------


def test_remote_policy_loses_no_decisions_under_loss():
    lossy_env = make_small_environment()
    lossy = RemotePolicy(
        UserspacePolicy(9, 3),
        LossyChannel(drop_rate=0.2, duplicate_rate=0.1, seed=42),
    )
    lossy_trace = run_episode(lossy_env, lossy, num_frames=40)

    clean_env = make_small_environment()
    clean = RemotePolicy(UserspacePolicy(9, 3), SimulatedChannel())
    clean_trace = run_episode(clean_env, clean, num_frames=40)

    # Zero lost decisions: the device saw exactly the same level sequence.
    assert lossy_trace.records == clean_trace.records

    report = lossy.overhead_report()
    assert report.frames == 40
    assert report.retries > 0
    assert report.dropped_messages > 0
    assert report.duplicates_discarded > 0
    assert report.retry_wait_ms_per_frame > 0.0
    assert clean.overhead_report().retries == 0


def test_lossy_channel_exhaustion_is_typed():
    channel = LossyChannel(drop_rate=1.0, seed=0)
    policy = RemotePolicy(UserspacePolicy(9, 3), channel, max_retries=3)
    env = make_small_environment()
    with pytest.raises(ProtocolError):
        run_episode(env, policy, num_frames=2)


def test_channel_faults_build_a_lossy_channel():
    faults = ChannelFaults(drop_rate=0.3, delay_rate=0.2, delay_ms=12.0, duplicate_rate=0.1)
    channel = LossyChannel.from_faults(faults, seed=5)
    assert channel.drop_rate == pytest.approx(0.3)
    assert channel.delay_rate == pytest.approx(0.2)
    assert channel.delay_ms == pytest.approx(12.0)
    assert channel.duplicate_rate == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# Cache pruning dry-run
# ---------------------------------------------------------------------------


def tiny_setting(**overrides) -> ExperimentSetting:
    defaults = dict(
        device="jetson-orin-nano",
        detector="faster_rcnn",
        dataset="kitti",
        num_frames=20,
        seed=0,
    )
    defaults.update(overrides)
    return ExperimentSetting(**defaults)


def test_prune_dry_run_deletes_nothing(tmp_path):
    from repro.analysis.experiments import execute_setting

    cache = ResultCache(tmp_path)
    result = execute_setting(tiny_setting(num_frames=8), "default")
    cache.store("a" * 64, result)
    cache.store("b" * 64, result)
    doomed = cache.prune(keep_latest=1, dry_run=True)
    assert doomed == 1
    assert cache.stats().entries == 2
    assert cache.prune(keep_latest=1) == 1
    assert cache.stats().entries == 1


# ---------------------------------------------------------------------------
# Error hierarchy
# ---------------------------------------------------------------------------


def test_every_error_is_a_repro_error():
    for exc in (FaultError, LotusError, ProtocolError, ScenarioError, ShardError):
        assert issubclass(exc, ReproError)
    assert issubclass(FaultError, LotusError)
