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
from repro.governors.static import UserspacePolicy
from repro.runtime import (
    ResultCache,
    run_fleet_scenario,
    run_sharded_scenario,
    run_supervised_scenario,
)
from repro.scenarios import build_scenario

from tests.conftest import make_small_environment
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

    @pytest.mark.parametrize("checkpoint_every", [0, 6])
    @pytest.mark.parametrize("crash_frame", [0, 7, FRAMES - 1])
    def test_explicit_crash_without_plan_recovers(self, crash_frame, checkpoint_every):
        """Crashes at the episode's ends and mid-interval, with and without
        periodic checkpoints, all recover to the uninterrupted trace."""
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
    expected = resilience_report(reference).degraded_cells
    assert expected > 0
    assert resilience_report(sharded).degraded_cells == expected
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
