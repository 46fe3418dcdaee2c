"""Seed-for-seed equivalence of the vectorized fleet engine.

The PR that introduced the fleet engine came with a hard guarantee: session
``i`` of a fleet run is *bit-for-bit* the scalar run with base seed
``seed + i`` — every frequency decision, latency, temperature, throttle
flag and energy value matches, for the vectorized policies (default
governors, static policies) and for arbitrary scalar policies adapted via
:class:`~repro.env.fleet.PerSessionPolicies` (including the learning
agents).  These tests enforce it layer by layer and end to end.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.analysis.experiments import (
    ExperimentSetting,
    default_latency_constraint,
    execute_setting,
    make_environment,
)
from repro.detection.fleet import (
    BatchedExecutionModel,
    propose_batch,
    stage1_cost_arrays,
    stage2_cost_arrays,
)
from repro.detection.latency import ExecutionModel, compute_profile_for
from repro.detection.registry import build_detector
from repro.env.ambient import AmbientSegment, DiurnalAmbient, LinearRampAmbient, StepAmbient
from repro.env.fleet import (
    _FRAME_RESULT_ARRAY_FIELDS,
    BatchedInferenceEnvironment,
    run_fleet_episode,
    run_grouped_fleet_episode,
)
from repro.env.trace import FrameRecord
from repro.faults import (
    FaultPlan,
    SensorDropout,
    SensorSpike,
    ThrottlingStorm,
    WorkerCrash,
)
from repro.governors.fleet import build_batched_default_governor
from repro.governors.registry import build_default_governor
from repro.hardware.devices.registry import available_devices, build_device
from repro.hardware.fleet import DeviceFleet
from repro.kernels import FAMILIES, resolve
from repro.policies.checkpoint import checkpoint_from_policy
from repro.runtime.fleet import (
    FleetScenarioResult,
    _resolve_scenario,
    _session_groups,
    cell_scenario,
    make_fleet_environment,
    make_fleet_policy,
    run_fleet,
    run_fleet_scenario,
    scalar_reference_session,
    scalar_reference_sessions,
)
from repro.runtime.shards import run_sharded_scenario, run_supervised_scenario
from repro.scenarios import FleetMember, FleetScenario, ScenarioSpec, build_scenario
from repro.workload.dataset import build_dataset
from repro.workload.fleet import FleetFrameStream
from repro.workload.generator import DomainSegment, DomainSwitchStream, FrameStream

FLEET = 5


def _assert_sessions_identical(fleet_result, scalar_results):
    for i, scalar in enumerate(scalar_results):
        fleet_trace = fleet_result.sessions[i].trace
        assert len(fleet_trace) == len(scalar.trace)
        for ours, theirs in zip(fleet_trace.records, scalar.trace.records):
            # Dataclass equality covers every field bit-for-bit.
            assert ours == theirs


@pytest.mark.parametrize("method", ["default", "performance", "powersave", "fixed"])
def test_vectorized_policies_match_scalar_path_bit_for_bit(method):
    setting = ExperimentSetting(num_frames=90, seed=0)
    fleet = run_fleet(setting, method, FLEET)
    scalars = scalar_reference_sessions(setting, method, FLEET)
    _assert_sessions_identical(fleet, scalars)


@pytest.mark.parametrize("method", ["lotus", "ztt"])
def test_per_session_learning_policies_match_scalar_path(method):
    setting = ExperimentSetting(num_frames=70, seed=3)
    fleet = run_fleet(setting, method, 3)
    scalars = scalar_reference_sessions(setting, method, 3)
    _assert_sessions_identical(fleet, scalars)
    for i, scalar in enumerate(scalars):
        assert fleet.sessions[i].losses == scalar.losses
        assert fleet.sessions[i].rewards == scalar.rewards


@pytest.mark.parametrize("device_name", ["mi11-lite", "raspberry-pi-5"])
def test_fleet_equivalence_holds_on_every_device(device_name):
    setting = ExperimentSetting(device=device_name, num_frames=60, seed=1)
    fleet = run_fleet(setting, "default", 3)
    scalars = scalar_reference_sessions(setting, "default", 3)
    _assert_sessions_identical(fleet, scalars)


def test_one_stage_detector_fleet_matches_scalar():
    setting = ExperimentSetting(detector="yolo_v5", num_frames=60, seed=2)
    fleet = run_fleet(setting, "default", 3)
    scalars = scalar_reference_sessions(setting, "default", 3)
    _assert_sessions_identical(fleet, scalars)


#: SHA-256 of ``run_fleet(ExperimentSetting(num_frames=24, seed=0), method,
#: 4).fleet_trace``.  ``lotus-fleet`` has no scalar reference, so these pin
#: the cell's builder and frame loop absolutely.
PINNED_RUN_FLEET_DIGESTS = {
    "default": "6228be075a0ae5701ca30af4fbed3b2ab768c01322388741315acf27838cfd99",
    "lotus": "a66b17207a421fbafac266f4a03888f55b1217ff3aa10b5cf2c37cf434546e7c",
    "lotus-fleet": "f5954fbe477e705f85cc1020fcdf6dffc2b04b82bf6e5c0ae0644f73d9357772",
}


def _fleet_trace_digest(trace) -> str:
    """SHA-256 over the int64 bit view of every column, plus the datasets.

    8-byte columns hash as int64 bits (so ``-0.0`` and NaN payloads count),
    narrower ones hash their raw bytes.
    """
    digest = hashlib.sha256()
    for name in _FRAME_RESULT_ARRAY_FIELDS:
        column = np.ascontiguousarray(trace.column_window(name))
        digest.update(f"{name}:{column.dtype.str}:{column.shape}".encode())
        if column.dtype.itemsize == 8:
            column = column.view(np.int64)
        digest.update(column.tobytes())
    digest.update(
        "\n".join("\t".join(row) for row in trace.datasets_window()).encode()
    )
    return digest.hexdigest()


@pytest.mark.parametrize("method", sorted(PINNED_RUN_FLEET_DIGESTS))
def test_run_fleet_trace_matches_pinned_digest(method):
    result = run_fleet(ExperimentSetting(num_frames=24, seed=0), method, 4)
    assert _fleet_trace_digest(result.fleet_trace) == PINNED_RUN_FLEET_DIGESTS[method]


def governed_cell(name: str) -> tuple:
    """``(environment, policy, frames)`` of one default-governed pin cell.

    Each registered governor pair (the Jetson's at an 80 °C ambient, where
    it throttles), a one-stage detector, a 12.5 ms idle gap between
    frames, a ``StepAmbient`` schedule, a one-session domain switch at
    frame 12, and 256 sessions.
    """
    setting = ExperimentSetting(num_frames=24, seed=0)
    sessions, ambient = 4, None
    if name == "jetson-orin-nano":
        setting = setting.with_overrides(ambient_temperature_c=80.0)
    elif name == "mi11-lite":
        setting = setting.with_overrides(device="mi11-lite", detector="mask_rcnn", seed=1)
    elif name == "raspberry-pi-5":
        setting, sessions = setting.with_overrides(device="raspberry-pi-5", seed=2), 8
        ambient = StepAmbient(
            [AmbientSegment(8, 25.0), AmbientSegment(8, 0.0), AmbientSegment(1, 35.0)]
        )
    elif name == "one-stage":
        setting = setting.with_overrides(detector="yolo_v5", seed=3)
    elif name == "idle-gap":
        sessions, seed = 4, 5
        constraint = default_latency_constraint("jetson-orin-nano", "faster_rcnn", "kitti")
        environment = BatchedInferenceEnvironment(
            build_device("jetson-orin-nano"),
            build_detector("faster_rcnn"),
            FleetFrameStream(
                build_dataset("kitti"),
                [np.random.default_rng(seed + i) for i in range(sessions)],
                latency_constraint_ms=[constraint] * sessions,
            ),
            ambient=DiurnalAmbient(mean_c=30.0, amplitude_c=8.0, period_frames=10),
            rngs=[np.random.default_rng(seed + i + 1) for i in range(sessions)],
            idle_between_frames_ms=12.5,
        )
        return environment, build_batched_default_governor("jetson-orin-nano"), 24
    elif name == "domain-switch":
        setting = setting.with_overrides(num_frames=30, seed=6)
        segments = [
            DomainSegment(
                build_dataset(dataset), 12,
                default_latency_constraint(setting.device, setting.detector, dataset),
            )
            for dataset in ("kitti", "visdrone2019")
        ]
        stream = DomainSwitchStream(segments, np.random.default_rng(setting.seed))
        environment = make_environment(setting, stream=stream).fleet
        return environment, build_batched_default_governor(setting.device), 30
    elif name == "wide":
        sessions = 256
    else:
        raise KeyError(name)
    environment = make_fleet_environment(setting, sessions, ambient=ambient)
    return environment, build_batched_default_governor(setting.device), setting.num_frames


#: SHA-256 (:func:`_fleet_trace_digest`) of each :func:`governed_cell` run
#: by ``run_fleet_episode`` with its device's default governor pair.
PINNED_GOVERNED_FLEET_DIGESTS = {
    "domain-switch": "5a2feea456433ef95779906f0206b1f5858082cd7451e8d91226de807fc62b1b",
    "idle-gap": "0d3822e1fdc55d4ff44b6e740bb50c2480cce153eecb912a031857018548fe24",
    "jetson-orin-nano": "c5885af5800bbdeaa67ded08201ad4220dda168285d1b3cd9e73511486874199",
    "mi11-lite": "ed231c8392e7e5378303dbdaafaea64d7e0d086677f4b1e88f43a847a7ddb2b7",
    "one-stage": "58f8651241e1539d30255895b7af426be9c886a36e12bfd0437c21d38bde3f94",
    "raspberry-pi-5": "cad10a64533baf72ee6c027e4d7f2d0ab4afeb3e1b9f79f0f287a7af663f67f3",
    "wide": "6271b731bbd176ec04a2c725a99995184aa5d4e2f779190c82c3e01cbdb8d64a",
}


@pytest.mark.parametrize("kernels", ("fused", "numpy"))
@pytest.mark.parametrize("cell", sorted(PINNED_GOVERNED_FLEET_DIGESTS))
def test_governed_fleet_trace_matches_pinned_digest(cell, kernels, monkeypatch):
    if kernels == "numpy":
        monkeypatch.setattr(resolve, "_kernels", dict.fromkeys(FAMILIES))
    environment, policy, frames = governed_cell(cell)
    trace = run_fleet_episode(environment, policy, frames)
    assert _fleet_trace_digest(trace) == PINNED_GOVERNED_FLEET_DIGESTS[cell]


#: SHA-256 over :func:`_fleet_trace_digest` and the loss and reward
#: histories of a 4-session x 120-frame seed-0 ``lotus-fleet`` cell at a
#: 45 °C ambient, where the cool-down fires (21 triggers): the pin on the
#: cool-down branch of the fleet agent's batched action selection.
PINNED_HOT_LOTUS_FLEET_DIGEST = "13ad011839da5b47833478b449070d926db136bba9b967b75a9000f94d7cdae6"

#: ``checkpoint_from_policy(agent).content_id()`` of that agent after the
#: run: pins the ``lotus-fleet`` checkpoint kind's key layout and contents.
PINNED_HOT_LOTUS_FLEET_CHECKPOINT_ID = "98b1d1ecbf6e55a59d6406d0beed9b023ee0342eafdfd65452de76cd6b8d10f0"


def test_hot_lotus_fleet_fires_cooldown_and_matches_pinned_digest():
    setting = ExperimentSetting(num_frames=120, seed=0, ambient_temperature_c=45.0)
    environment = make_fleet_environment(setting, 4)
    agent = make_fleet_policy("lotus-fleet", environment, 120, seed=0)
    trace = run_fleet_episode(environment, agent, 120)
    assert agent.cooldown.trigger_count > 0
    assert agent.loss_history
    digest = hashlib.sha256(_fleet_trace_digest(trace).encode())
    digest.update(b"losses" + np.asarray(agent.loss_history, dtype=np.float64).tobytes())
    digest.update(b"rewards" + np.asarray(agent.reward_history, dtype=np.float64).tobytes())
    assert digest.hexdigest() == PINNED_HOT_LOTUS_FLEET_DIGEST
    checkpoint = checkpoint_from_policy(agent)
    assert checkpoint.content_id() == PINNED_HOT_LOTUS_FLEET_CHECKPOINT_ID


#: Fault plan of the supervised pin: a dropout window across the frame-6
#: checkpoint, a spike, a storm and a crash on shard 1.
PIN_FAULT_PLAN = FaultPlan(
    events=(
        SensorDropout(start_frame=4, num_frames=5, probability=0.6),
        SensorSpike(frame=13, delta_c=9.0),
        ThrottlingStorm(start_frame=16, num_frames=3),
        WorkerCrash(frame=10, shard=1),
    ),
    seed=11,
    name="pin",
)

#: SHA-256 (:func:`scenario_result_digest`) of 2-shard runs of
#: ``mixed-edge-fleet`` at 8 sessions and 24 frames: ``supervised`` with
#: :data:`PIN_FAULT_PLAN` and a checkpoint every 6 frames, ``sharded``
#: unfaulted and unsupervised.  Its two shards hold different dataset
#: tables.
PINNED_SCENARIO_RUN_DIGESTS = {
    "supervised": "ff95073b40d1fe6770ab76ff92adef598b51215d6b1b0e86b1716c8fa2ccba6f",
    "sharded": "9686b8e3666ae59cd908ec87a5e34db2130bea1e28b7489d974eb5d5b82d75cb",
}


def scenario_result_digest(result) -> str:
    """SHA-256 over a scenario result: the trace (:func:`_fleet_trace_digest`),
    the ``degraded`` mask, every session's metrics, policy name, losses and
    rewards."""
    digest = hashlib.sha256(_fleet_trace_digest(result.fleet_trace).encode())
    if result.degraded is None:
        digest.update(b"degraded:none")
    else:
        digest.update(f"degraded:{result.degraded.shape}".encode())
        digest.update(np.ascontiguousarray(result.degraded).tobytes())
    digest.update(_session_metrics_digest(result.sessions).encode())
    for session in result.sessions:
        digest.update(session.policy_name.encode())
        for history in (session.losses, session.rewards):
            values = np.asarray(history, dtype=np.float64)
            digest.update(f"{values.shape}".encode())
            digest.update(values.view(np.int64).tobytes())
    return digest.hexdigest()


def _pinned_scenario_run(entry):
    scenario = build_scenario("mixed-edge-fleet")
    if entry == "supervised":
        return run_supervised_scenario(
            scenario.with_faults(PIN_FAULT_PLAN),
            2,
            num_sessions=8,
            num_frames=24,
            checkpoint_every=6,
        )
    return run_sharded_scenario(scenario, 2, num_sessions=8, num_frames=24)


@pytest.mark.parametrize("entry", sorted(PINNED_SCENARIO_RUN_DIGESTS))
def test_sharded_scenario_run_matches_pinned_digest(entry):
    result = _pinned_scenario_run(entry)
    assert result.num_shards == 2
    if entry == "supervised":
        assert result.recovery.recovered_shards == (1,)
        assert result.degraded.any()
    assert scenario_result_digest(result) == PINNED_SCENARIO_RUN_DIGESTS[entry]


@pytest.mark.parametrize("method", sorted(PINNED_RUN_FLEET_DIGESTS))
def test_run_fleet_is_the_run_of_its_cell_scenario(method):
    """``run_fleet`` returns its cell scenario's result, field for field."""
    setting = ExperimentSetting(num_frames=24, seed=0)
    result = run_fleet(setting, method, 4)
    assert type(result) is FleetScenarioResult
    assert result.recovery is None
    assert result.scenario.name == f"{method}-cell"
    reference = run_fleet_scenario(cell_scenario(setting, method, 4))
    assert scenario_result_digest(result) == scenario_result_digest(reference)


#: SHA-256 over the float64 bits of every :class:`EpisodeMetrics` field of
#: ``metrics`` then ``steady_metrics``, session by session
#: (:func:`_session_metrics_digest`).  ``run_fleet`` entries pin the same
#: cells as :data:`PINNED_RUN_FLEET_DIGESTS`; ``execute_setting`` entries
#: pin the scalar session of ``ExperimentSetting(num_frames=24, seed=0)``
#: as ``(metrics digest, trace digest)``.
PINNED_SESSION_METRICS_DIGESTS = {
    ("run_fleet", "default"): "584a45644ad1ae8ee1b645bea82b94009174b4a8bb1d2bc98b01af5ad547b980",
    ("run_fleet", "lotus"): "c3360b137b7dcdcd0f77ea64ce6025e4b86283757c5f2bd13d51bebbf902bf6d",
    ("run_fleet", "lotus-fleet"): "122ef69aec0b1e9fff9daf7b758238de13d4b474c28e5602daa19226254b78f9",
    ("execute_setting", "default"): (
        "94d5f3c2c77fac4eb3f14dad534158927c2acf101a34051a69425569dfd23297",
        "79785d19f1248b8ed1758256c8dedaa2d1c9737e0cf369f9e7df739c1613bed8",
    ),
    ("execute_setting", "lotus"): (
        "38b50a0a584611b0dd27c670bf26303fce1273143fa757aa7bc7afc5b82f7a76",
        "cb38df59286aca64c73fe18cfc511d5fd2a417b104fa20cfa7d78a72e82ee517",
    ),
    ("execute_setting", "ztt"): (
        "4f5eabc22c1dd2b7a264c0c984b1c219c5e57109e385e4a0880e76497058d70d",
        "19884c99afceaea56175bae0e35abc7a93b27f968bef18fadd24d4ce02b4ebf0",
    ),
}


def _session_metrics_digest(sessions) -> str:
    """SHA-256 over the float64 bits of every session's metric fields."""
    digest = hashlib.sha256()
    for session in sessions:
        for metrics in (session.metrics, session.steady_metrics):
            values = np.array(
                [getattr(metrics, f.name) for f in dataclasses.fields(metrics)],
                dtype=np.float64,
            )
            digest.update(values.view(np.int64).tobytes())
    return digest.hexdigest()


_RECORD_DTYPES = {"int": np.int64, "float": np.float64, "bool": np.bool_}


def _scalar_trace_digest(trace) -> str:
    """:func:`_fleet_trace_digest`'s recipe over a scalar trace's records.

    Every numeric :class:`FrameRecord` field (``index`` included) hashes
    as one column, then the dataset names.
    """
    records = list(trace)
    digest = hashlib.sha256()
    for f in dataclasses.fields(FrameRecord):
        if f.name == "dataset":
            continue
        column = np.array(
            [getattr(record, f.name) for record in records], dtype=_RECORD_DTYPES[f.type]
        )
        digest.update(f"{f.name}:{column.dtype.str}:{column.shape}".encode())
        if column.dtype.itemsize == 8:
            column = column.view(np.int64)
        digest.update(column.tobytes())
    digest.update("\n".join(record.dataset for record in records).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "entry,method", sorted(PINNED_SESSION_METRICS_DIGESTS), ids="-".join
)
def test_session_metrics_match_pinned_digest(entry, method):
    setting = ExperimentSetting(num_frames=24, seed=0)
    pinned = PINNED_SESSION_METRICS_DIGESTS[(entry, method)]
    if entry == "run_fleet":
        sessions = run_fleet(setting, method, 4).sessions
        assert _session_metrics_digest(sessions) == pinned
    else:
        result = execute_setting(setting, method)
        assert (
            _session_metrics_digest([result]),
            _scalar_trace_digest(result.trace),
        ) == pinned


# ---------------------------------------------------------------------------
# What policies observe
# ---------------------------------------------------------------------------


def _hash_value(digest, value) -> None:
    """Feed one observation, result or decision field into ``digest``:
    arrays as dtype, shape and bits, anything else by ``repr``."""
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str}:{value.shape}".encode())
        value = np.ascontiguousarray(value)
        digest.update((value.view(np.int64) if value.dtype.itemsize == 8 else value).tobytes())
    else:
        digest.update(repr(value).encode())


def _hash_fields(digest, label, value) -> None:
    digest.update(label.encode())
    if value is None:
        digest.update(b"None")
        return
    for field in dataclasses.fields(value):
        digest.update(field.name.encode())
        _hash_value(digest, getattr(value, field.name))


class _ObservationRecorder:
    """A fleet policy wrapper that hashes, as it receives them, every field
    of every observation and frame result its group hands the wrapped
    policy, and every decision the policy returns."""

    def __init__(self, policy, digest):
        self.policy = policy
        self.name = policy.name
        self.digest = digest

    def reset(self):
        self.policy.reset()

    def begin_frame(self, observation):
        _hash_fields(self.digest, "start", observation)
        decision = self.policy.begin_frame(observation)
        _hash_fields(self.digest, "start-decision", decision)
        return decision

    def mid_frame(self, observation):
        _hash_fields(self.digest, "mid", observation)
        decision = self.policy.mid_frame(observation)
        _hash_fields(self.digest, "mid-decision", decision)
        return decision

    def end_frame(self, result):
        _hash_fields(self.digest, "result", result)
        self.policy.end_frame(result)


def _governed_mixed_edge_fleet() -> FleetScenario:
    """``mixed-edge-fleet`` without its learning members: one- and
    two-stage groups on three devices, one of them soaking hot."""
    base = build_scenario("mixed-edge-fleet")
    return FleetScenario(
        name="mixed-edge-fleet-governed",
        members=tuple(
            member
            for member in base.members
            if member.spec.method in ("default", "performance", "powersave", "fixed")
        ),
    )


#: SHA-256 of every observation, frame result and decision the policies of
#: a 20-frame run see (:class:`_ObservationRecorder`, groups in build
#: order): a two-stage ``default`` cell and a ``lotus-fleet`` cell of 4
#: sessions at seed 0, and the governor-only members of
#: ``mixed-edge-fleet`` at 12 sessions (a one-stage group, two-stage groups
#: and a throttling one).  Unlike the trace pins, these cover the fields
#: only policies read: ``remaining_budget_ms``, ``previous_latency_ms``,
#: the utilisations and the throttle flags at each decision point.
PINNED_OBSERVATION_DIGESTS = {
    "default": "d34f38d37815e75b514151c495530581d5aa7fc078cc7f8e2b0319ff80a9bbc0",
    "lotus-fleet": "e5d585b3df1ae259cd1ba99859777fd3cac142ca086241c459920d6a3fa55f21",
    "mixed-edge-fleet-governed": (
        "b1860c680d38f2afa6fcb9db40293fb9a6b65e9897a430c1e80a1c8cbde1a203"
    ),
}


def _observed_run(entry) -> tuple:
    """``(observation digest, fleet trace)`` of one pinned run."""
    if entry == "mixed-edge-fleet-governed":
        scenario, sessions = _governed_mixed_edge_fleet(), 12
    else:
        scenario = cell_scenario(ExperimentSetting(num_frames=20, seed=0), entry, 4)
        sessions = 4
    scenario = _resolve_scenario(scenario, 20)
    digest = hashlib.sha256()
    groups = [
        dataclasses.replace(group, policy=_ObservationRecorder(group.policy, digest))
        for group in _session_groups(scenario.session_assignments(sessions), 20)
    ]
    return digest, run_grouped_fleet_episode(groups, 20)


@pytest.mark.parametrize("kernels", ("fused", "fleet-without-random", "numpy"))
@pytest.mark.parametrize("entry", sorted(PINNED_OBSERVATION_DIGESTS))
def test_observations_match_pinned_digest(entry, kernels, monkeypatch):
    if kernels == "numpy":
        # Every kernel family off, as REPRO_FUSED=0 runs.
        monkeypatch.setattr(resolve, "_kernels", dict.fromkeys(FAMILIES))
    elif kernels == "fleet-without-random":
        # The fused frame with NumPy's draws, as without libnpyrandom.
        monkeypatch.setitem(resolve._kernels, "random", None)
    digest, trace = _observed_run(entry)
    if entry == "mixed-edge-fleet-governed":
        assert trace.column_window("cpu_throttled").any() or trace.column_window(
            "gpu_throttled"
        ).any(), "the governed run must throttle"
    assert digest.hexdigest() == PINNED_OBSERVATION_DIGESTS[entry]


# ---------------------------------------------------------------------------
# Heterogeneous fleets (scenario runner)
# ---------------------------------------------------------------------------


def _assert_scenario_sessions_identical(result, num_frames, check_histories=False):
    """Every session of a heterogeneous fleet matches its own scalar reference."""
    for assignment in result.assignments:
        reference = scalar_reference_session(
            assignment.spec, seed=assignment.seed, num_frames=num_frames
        )
        session = result.sessions[assignment.index]
        assert len(session.trace) == len(reference.trace) == num_frames
        for ours, theirs in zip(session.trace.records, reference.trace.records):
            # Dataclass equality covers every field bit-for-bit.
            assert ours == theirs
        if check_histories:
            assert session.losses == reference.losses
            assert session.rewards == reference.rewards


def test_heterogeneous_fleet_matches_scalar_runs_bit_for_bit():
    """Mixed devices, detectors, datasets, ambients and constraints in one
    fleet: each session must equal the scalar run of its own spec + seed."""
    fleet = FleetScenario(
        name="hetero-test",
        members=(
            FleetMember(
                ScenarioSpec(
                    name="jetson-kitti",
                    device="jetson-orin-nano",
                    detector="faster_rcnn",
                    dataset="kitti",
                    method="default",
                    num_frames=60,
                    seed=0,
                    ambient=DiurnalAmbient(
                        mean_c=25.0, amplitude_c=6.0, period_frames=40
                    ),
                ),
                weight=2.0,
            ),
            FleetMember(
                ScenarioSpec(
                    name="phone-visdrone",
                    device="mi11-lite",
                    detector="faster_rcnn",
                    dataset="visdrone2019",
                    method="default",
                    num_frames=60,
                    seed=11,
                    latency_constraint_ms=900.0,
                    ambient=LinearRampAmbient(
                        start_c=25.0, end_c=5.0, ramp_frames=30
                    ),
                ),
            ),
            # Shares the Jetson/FasterRCNN group with the first member but
            # runs a different dataset, method, seed block and ambient — the
            # sub-fleet policy partition and the per-session stream/ambient
            # arrays all get exercised inside one batched group.
            FleetMember(
                ScenarioSpec(
                    name="jetson-visdrone-powersave",
                    device="jetson-orin-nano",
                    detector="faster_rcnn",
                    dataset="visdrone2019",
                    method="powersave",
                    num_frames=60,
                    seed=23,
                    ambient=LinearRampAmbient(
                        start_c=30.0, end_c=20.0, ramp_frames=25, delay_frames=10
                    ),
                ),
            ),
        ),
    )
    result = run_fleet_scenario(fleet, num_sessions=5)
    assert result.num_sessions == 5
    assert len(_session_groups(result.assignments, 60)) == 2
    _assert_scenario_sessions_identical(result, num_frames=60)


def test_mixed_method_group_learning_policies_match_scalar():
    """Learning and governor sessions sharing one device group stay exact,
    including their loss/reward histories."""
    result = run_fleet_scenario(
        "shared-device-mixed-load", num_sessions=4, num_frames=40
    )
    groups = _session_groups(result.assignments, 40)
    assert len(groups) == 1
    assert groups[0].policy.name.startswith("sub-fleet(")
    _assert_scenario_sessions_identical(result, num_frames=40, check_histories=True)


def test_builtin_mixed_edge_fleet_acceptance():
    """The acceptance scenario: >=2 device profiles and >=2 ambient profiles
    in one ``mixed-edge-fleet`` run, every session bit-exact vs. scalar."""
    fleet = build_scenario("mixed-edge-fleet")
    devices = {member.spec.device for member in fleet.members}
    ambients = {type(member.spec.ambient) for member in fleet.members}
    assert len(devices) >= 2
    assert len(ambients) >= 2
    result = run_fleet_scenario(fleet, num_sessions=6, num_frames=30)
    assert result.num_sessions == 6
    _assert_scenario_sessions_identical(result, num_frames=30)


def test_homogeneous_scenario_matches_homogeneous_fleet_engine():
    """A single-spec scenario reproduces the plain fleet path exactly."""
    spec = ScenarioSpec(
        name="homogeneous",
        device="jetson-orin-nano",
        detector="faster_rcnn",
        dataset="kitti",
        method="default",
        num_frames=50,
        num_sessions=3,
        seed=2,
    )
    scenario_result = run_fleet_scenario(spec)
    setting = ExperimentSetting(num_frames=50, seed=2)
    fleet_result = run_fleet(setting, "default", 3)
    for i in range(3):
        ours = scenario_result.sessions[i].trace.records
        theirs = fleet_result.sessions[i].trace.records
        assert ours == theirs


# ---------------------------------------------------------------------------
# Layer-by-layer kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("device_name", sorted(available_devices()))
def test_device_fleet_segments_match_scalar_devices(device_name):
    n = 6
    fleet = DeviceFleet(build_device(device_name), n)
    devices = [build_device(device_name) for _ in range(n)]
    rng = np.random.default_rng(7)
    for step in range(12):
        cpu_levels = rng.integers(0, fleet.cpu.num_levels, size=n)
        gpu_levels = rng.integers(0, fleet.gpu.num_levels, size=n)
        durations = rng.uniform(0.0, 400.0, size=n)
        cpu_util = rng.uniform(0.0, 1.0, size=n)
        gpu_util = rng.uniform(0.0, 1.0, size=n)
        fleet.request_levels(cpu_levels, gpu_levels)
        telemetry = fleet.execute(durations, cpu_util, gpu_util)
        for i, device in enumerate(devices):
            device.request_levels(int(cpu_levels[i]), int(gpu_levels[i]))
            scalar = device.execute(
                float(durations[i]), float(cpu_util[i]), float(gpu_util[i])
            )
            assert telemetry.cpu_temperature_c[i] == scalar.cpu_temperature_c
            assert telemetry.gpu_temperature_c[i] == scalar.gpu_temperature_c
            assert telemetry.cpu_power_w[i] == scalar.cpu_power_w
            assert telemetry.gpu_power_w[i] == scalar.gpu_power_w
            assert telemetry.energy_j[i] == scalar.energy_j
            assert telemetry.cpu_level[i] == device.cpu_level
            assert telemetry.gpu_level[i] == device.gpu_level
            assert bool(telemetry.cpu_throttled[i]) == scalar.cpu_throttled
            assert bool(telemetry.gpu_throttled[i]) == scalar.gpu_throttled
    for i, device in enumerate(devices):
        assert fleet.total_energy_j[i] == device.total_energy_j
        assert fleet.elapsed_ms[i] == device.elapsed_ms


@pytest.mark.parametrize(
    "device_name", ["jetson-orin-nano", "mi11-lite", "raspberry-pi-5"]
)
def test_batched_governors_match_scalar_decisions(device_name):
    batched = build_batched_default_governor(device_name)
    scalar = build_default_governor(device_name)
    rng = np.random.default_rng(11)
    n = 64
    for cpu_levels_count, gpu_levels_count in ((10, 5), (8, 7), (7, 4)):
        utils_cpu = rng.uniform(0.0, 1.0, size=n)
        utils_gpu = rng.uniform(0.0, 1.0, size=n)
        cur_cpu = rng.integers(0, cpu_levels_count, size=n)
        cur_gpu = rng.integers(0, gpu_levels_count, size=n)
        got_cpu = batched.cpu_governor.select_levels(utils_cpu, cur_cpu, cpu_levels_count)
        got_gpu = batched.gpu_governor.select_levels(utils_gpu, cur_gpu, gpu_levels_count)
        for i in range(n):
            assert got_cpu[i] == scalar.cpu_governor.select_level(
                float(utils_cpu[i]), int(cur_cpu[i]), cpu_levels_count
            )
            assert got_gpu[i] == scalar.gpu_governor.select_level(
                float(utils_gpu[i]), int(cur_gpu[i]), gpu_levels_count
            )


def test_a_registered_default_governor_drives_fleets_too(monkeypatch):
    """One registry: a pairing registered for a device drives its fleet
    sessions exactly as it drives the scalar ones."""
    from repro.governors import registry
    from repro.governors.base import DefaultGovernorPolicy
    from repro.governors.cpu import OndemandGovernor
    from repro.governors.gpu import MsmAdrenoTzGovernor

    monkeypatch.setitem(
        registry._REGISTRY,
        "jetson-orin-nano",
        lambda: DefaultGovernorPolicy(
            OndemandGovernor(up_threshold=0.7), MsmAdrenoTzGovernor()
        ),
    )
    batched = build_batched_default_governor("jetson-orin-nano")
    assert batched.name == "default(ondemand+msm-adreno-tz)"
    assert batched.frame_governors() is not None
    setting = ExperimentSetting(num_frames=60, seed=1)
    fleet = run_fleet(setting, "default", 3)
    _assert_sessions_identical(fleet, scalar_reference_sessions(setting, "default", 3))


def test_a_pairing_without_a_batched_twin_is_refused(monkeypatch):
    from repro.errors import ConfigurationError
    from repro.governors import registry
    from repro.governors.base import DefaultGovernorPolicy
    from repro.governors.cpu import SchedutilGovernor
    from repro.governors.gpu import SimpleOndemandGovernor

    class Custom(SchedutilGovernor):
        def select_level(self, utilisation, current_level, num_levels):
            return 0

    class CustomPolicy(DefaultGovernorPolicy):
        pass

    for builder, refused in (
        (lambda: DefaultGovernorPolicy(Custom(), SimpleOndemandGovernor()), "Custom"),
        (
            lambda: CustomPolicy(SchedutilGovernor(), SimpleOndemandGovernor()),
            "CustomPolicy",
        ),
    ):
        monkeypatch.setitem(registry._REGISTRY, "mi11-lite", builder)
        with pytest.raises(ConfigurationError, match=rf"{refused}\b.*no vectorized twin"):
            build_batched_default_governor("mi11-lite")


@pytest.mark.parametrize("detector_name", ["faster_rcnn", "mask_rcnn", "yolo_v5"])
def test_batched_costs_and_execution_match_scalar(detector_name):
    detector = build_detector(detector_name)
    profile = compute_profile_for("jetson-orin-nano")
    scalar_exec = ExecutionModel(profile)
    batched_exec = BatchedExecutionModel(profile)
    rng = np.random.default_rng(13)
    n = 16
    scales = rng.uniform(0.8, 1.6, size=n)
    proposals = rng.integers(5, 600, size=n)
    cpu_khz = rng.uniform(2e5, 1.5e6, size=n)
    gpu_khz = rng.uniform(2e5, 6.2e5, size=n)

    cpu1, gpu1 = stage1_cost_arrays(detector, scales)
    cpu2, gpu2 = stage2_cost_arrays(detector, proposals, scales)
    seg1 = batched_exec.execute(cpu1, gpu1, cpu_khz, gpu_khz)
    seg2 = batched_exec.execute(cpu2, gpu2, cpu_khz, gpu_khz)
    for i in range(n):
        s1 = detector.stage1_cost(float(scales[i]))
        s2 = detector.stage2_cost(int(proposals[i]), float(scales[i]))
        assert cpu1[i] == s1.cpu_kilocycles
        assert gpu1[i] == s1.gpu_kilocycles
        assert cpu2[i] == s2.cpu_kilocycles
        assert gpu2[i] == s2.gpu_kilocycles
        ref1 = scalar_exec.execute(s1, float(cpu_khz[i]), float(gpu_khz[i]))
        assert seg1.latency_ms[i] == ref1.latency_ms
        assert seg1.cpu_utilisation[i] == ref1.cpu_utilisation
        assert seg1.gpu_utilisation[i] == ref1.gpu_utilisation
        ref2 = scalar_exec.execute(s2, float(cpu_khz[i]), float(gpu_khz[i]))
        assert seg2.latency_ms[i] == ref2.latency_ms


def test_propose_batch_matches_scalar_sampling():
    detector = build_detector("faster_rcnn")
    candidates = np.random.default_rng(17).uniform(0.0, 500.0, size=12)
    batched_rngs = [np.random.default_rng(100 + i) for i in range(12)]
    scalar_rngs = [np.random.default_rng(100 + i) for i in range(12)]
    for _ in range(5):
        batch = propose_batch(detector, candidates, batched_rngs)
        for i in range(12):
            assert batch[i] == detector.propose(float(candidates[i]), scalar_rngs[i])
    one_stage = build_detector("yolo_v5")
    assert (propose_batch(one_stage, candidates, batched_rngs) == 0).all()


def test_fleet_frame_stream_matches_scalar_streams():
    dataset = build_dataset("visdrone2019")
    fleet_stream = FleetFrameStream(
        dataset,
        [np.random.default_rng(40 + i) for i in range(4)],
        latency_constraint_ms=[400.0] * 4,
    )
    scalar_streams = [
        FrameStream(dataset, np.random.default_rng(40 + i)) for i in range(4)
    ]
    for frame_index in range(25):
        batch = fleet_stream.next_frames()
        assert batch.index == frame_index
        for i, stream in enumerate(scalar_streams):
            frame = stream.next_frame()
            assert batch.scene_candidates[i] == frame.scene_candidates
            assert batch.image_scale[i] == frame.image_scale
            assert batch.datasets[i] == frame.dataset


def test_heterogeneous_fleet_frame_stream_matches_scalar_streams():
    """Per-session AR(1) parameters: each session's stream equals the
    scalar stream of its own dataset profile and generator, and per-session
    constraints pass through."""
    profiles = [
        build_dataset("kitti"),
        build_dataset("visdrone2019"),
        build_dataset("kitti"),
    ]
    fleet_stream = FleetFrameStream(
        profiles,
        [np.random.default_rng(70 + i) for i in range(3)],
        latency_constraint_ms=[250.0, 300.0, 410.0],
    )
    scalar_streams = [
        FrameStream(profile, np.random.default_rng(70 + i))
        for i, profile in enumerate(profiles)
    ]
    for _ in range(25):
        batch = fleet_stream.next_frames()
        assert batch.latency_constraint_ms[0] == 250.0
        assert batch.latency_constraint_ms[2] == 410.0
        for i, stream in enumerate(scalar_streams):
            frame = stream.next_frame()
            assert batch.scene_candidates[i] == frame.scene_candidates
            assert batch.image_scale[i] == frame.image_scale
            assert batch.datasets[i] == frame.dataset
