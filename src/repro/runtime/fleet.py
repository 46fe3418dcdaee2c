"""Fleet execution mode: many sessions, one vectorized process.

The process-pool runtime (:mod:`repro.runtime.engine`) scales experiment
*cells* across workers; the fleet mode scales *sessions within one cell*
across a single NumPy program.  A fleet run is defined exactly like N
scalar runs: session ``i`` uses base seed ``setting.seed + i``, the same
device/detector/dataset/constraint, and (for per-session policies) the
same policy construction — so its traces are interchangeable with, and for
supported methods bit-identical to, the scalar path's.

Methods map onto fleet policies as follows:

* ``default`` / ``performance`` / ``powersave`` / ``fixed`` — vectorized
  batch policies (:mod:`repro.governors.fleet`), trace-equivalent to their
  scalar counterparts.
* ``lotus-fleet`` — the fleet-trained agent
  (:class:`repro.core.fleet.FleetLotusAgent`): one shared Q-network fed by
  every session's experience (a new capability, not a scalar-equivalent
  mode).
* ``policy:<id>`` — frozen deployment of one stored checkpoint from the
  policy zoo (:mod:`repro.policies`): the artifact is loaded and verified
  once, rebuilt as one inference-only instance per session, and adapted
  through :class:`repro.env.fleet.PerSessionPolicies` — bit-identical to
  the scalar frozen run of each session's seed.
* anything else (``lotus``, ``ztt``, the ablations) — per-session scalar
  policies adapted through
  :class:`repro.env.fleet.PerSessionPolicies`, preserving exact scalar
  behaviour while still running on the vectorized environment.

Every fleet runs through the one in-process entry point,
:func:`run_fleet_scenario`: a
:class:`~repro.scenarios.FleetScenario` is resolved into per-session
assignments, sessions are partitioned into grouped sub-fleets sharing one
device model and detector (the quantities the batched kernels require to be
uniform), each group advances as one batched kernel with per-session
datasets, ambient schedules, constraints and seeds, and the per-group
results re-interleave into a single columnar :class:`FleetTrace` — with
every session still bit-identical to the scalar run of its own spec and
seed.  A homogeneous (setting, method) cell is the one-member scenario of
its setting (:func:`_cell_spec`): :func:`make_fleet_environment` builds its
one group and :func:`run_fleet` runs it as a scenario.  The sharded and
supervised runs (:mod:`repro.runtime.shards`) return the same
:class:`FleetScenarioResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import ExperimentError, ScenarioError
from repro.core.fleet import FleetLotusAgent
# ``session_result_from_trace`` is re-exported: it stays part of this
# module's namespace for code that patches it here by module path.
from repro.core.training import SessionResult, session_result_from_trace  # noqa: F401
from repro.detection.fleet import proposal_scale
from repro.detection.registry import build_detector
from repro.env.ambient import AmbientProfile, ConstantAmbient
from repro.env.metrics import EpisodeMetrics, summarize_sessions
from repro.env.fleet import (
    BatchedInferenceEnvironment,
    FleetPolicy,
    FleetSessionGroup,
    FleetTrace,
    PerSessionPolicies,
    run_grouped_fleet_episode,
)
from repro.governors.fleet import (
    BatchedPerformancePolicy,
    BatchedPowersavePolicy,
    BatchedUserspacePolicy,
    SubFleetPolicies,
    build_batched_default_governor,
)
from repro.faults.inject import FaultedFleetPolicy
from repro.faults.plan import FaultSchedule, compile_fault_plan
from repro.hardware.devices.registry import build_device
from repro.workload.dataset import build_dataset
from repro.workload.fleet import FleetFrameStream

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.analysis.experiments import ExperimentSetting
    from repro.scenarios import (
        FleetScenario,
        ScenarioSpec,
        SessionAssignment,
    )

# The analysis layer itself imports the runtime (its runners execute through
# the engine), so its symbols are imported lazily inside the functions below
# to keep ``repro.runtime`` importable on its own.


@dataclass(frozen=True)
class FleetRunResult:
    """Outcome of one fleet run.

    Attributes:
        setting: The base experiment setting (session ``i`` ran with seed
            ``setting.seed + i``).
        method: Method name.
        num_sessions: Fleet size N.
        policy_name: Name of the fleet policy that produced the traces.
        sessions: Per-session :class:`SessionResult` records (same shape the
            scalar runtime produces).
        fleet_trace: The raw columnar trace.
        elapsed_s: Wall-clock seconds spent in the episode loop.
    """

    setting: ExperimentSetting
    method: str
    num_sessions: int
    policy_name: str
    sessions: Tuple[SessionResult, ...]
    fleet_trace: FleetTrace
    elapsed_s: float

    @property
    def aggregate_frames_per_second(self) -> float:
        """Total frames processed across the fleet per wall-clock second."""
        if self.elapsed_s <= 0:
            return float("inf")
        return self.fleet_trace.total_frames / self.elapsed_s


def _cell_spec(
    setting: ExperimentSetting,
    method: str,
    num_sessions: int,
    ambient: AmbientProfile | None = None,
) -> ScenarioSpec:
    """The one-member scenario of a homogeneous (setting, method) cell.

    Session ``i`` runs seed ``setting.seed + i`` under ``ambient`` (default:
    the constant ``setting.ambient_temperature_c``) — the spec every cell
    entry point (:func:`make_fleet_environment`, :func:`run_fleet`,
    :func:`repro.runtime.shards.run_sharded_fleet`, the CLI) builds from.
    """
    from repro.scenarios import ScenarioSpec

    return ScenarioSpec(
        name=f"{method}-cell",
        device=setting.device,
        detector=setting.detector,
        dataset=setting.dataset,
        method=method,
        num_frames=setting.num_frames,
        num_sessions=num_sessions,
        seed=setting.seed,
        latency_constraint_ms=setting.latency_constraint_ms,
        ambient=(
            ambient
            if ambient is not None
            else ConstantAmbient(setting.ambient_temperature_c)
        ),
    )


def make_fleet_environment(
    setting: ExperimentSetting,
    num_sessions: int,
    ambient: AmbientProfile | None = None,
) -> BatchedInferenceEnvironment:
    """Build the fleet environment for ``num_sessions`` sessions of ``setting``.

    The one group of the cell's scenario (:func:`make_group_environment`):
    session ``i`` gets the stream generator ``default_rng(setting.seed + i)``
    and the proposal generator ``default_rng(setting.seed + i + 1)`` —
    exactly the generators :func:`repro.analysis.experiments.make_environment`
    gives a scalar run with seed ``setting.seed + i``.
    """
    if num_sessions <= 0:
        raise ExperimentError("num_sessions must be positive")
    # The environment does not depend on the method; any one names the cell.
    cell = _cell_spec(setting, "default", num_sessions, ambient)
    return make_group_environment(
        setting.device,
        setting.detector,
        _resolve_scenario(cell).session_assignments(),
    )


def make_member_policy(
    method: str,
    environment: BatchedInferenceEnvironment,
    num_frames: int,
    seeds: Sequence[int],
) -> FleetPolicy:
    """Build a fleet policy for ``len(seeds)`` sessions of one method.

    The policy-factory primitive shared by the homogeneous fleet path
    (:func:`make_fleet_policy`, where the sessions span the whole
    environment) and the scenario runner (where each member of a
    heterogeneous group gets its own policy over its own session slice).
    ``environment`` only contributes the device, detector and throttle
    threshold; ``seeds`` gives session ``i`` its base seed (matching the
    scalar run it must reproduce).
    """
    from repro.analysis.experiments import make_policy

    if not seeds:
        raise ExperimentError("need at least one session seed")
    device = environment.device
    if method == "default":
        return build_batched_default_governor(device.name)
    if method == "performance":
        return BatchedPerformancePolicy()
    if method == "powersave":
        return BatchedPowersavePolicy()
    if method == "fixed":
        return BatchedUserspacePolicy(
            cpu_level=device.cpu.max_level,
            gpu_level=max(0, device.gpu.max_level - 1),
        )
    if method == "lotus-fleet":
        from repro.core.config import LotusConfig

        seed = seeds[0]
        return FleetLotusAgent(
            cpu_levels=device.cpu.num_levels,
            gpu_levels=device.gpu.num_levels,
            temperature_threshold_c=environment.throttle_threshold_c,
            proposal_scale=proposal_scale(environment.detector),
            num_sessions=len(seeds),
            config=LotusConfig(seed=seed + 100).for_episode_length(num_frames),
            rng=np.random.default_rng(seed + 100),
        )
    from repro.policies import is_policy_method

    if is_policy_method(method):
        # Frozen deployment of one stored artifact across the member's
        # sessions: resolve and verify the checkpoint once, then rebuild one
        # inference-only instance per session (each session needs its own
        # transient frame bookkeeping) — not one store read per session.
        from repro.policies import (
            PolicyStore,
            frozen_policy_from_checkpoint,
            policy_method_id,
        )

        store = PolicyStore()
        policy_id = store.resolve(policy_method_id(method))
        checkpoint = store.load_checkpoint(policy_id)
        frozen = []
        for _ in seeds:
            instance = frozen_policy_from_checkpoint(checkpoint, policy_id=policy_id)
            instance.validate_environment(environment)
            frozen.append(instance)
        return PerSessionPolicies(frozen)
    # Fall back to exact per-session scalar policies (lotus, ztt, ablations,
    # and any future registered method): make_policy only inspects the
    # device, detector and throttle threshold, which the fleet environment
    # exposes with the same attribute names.
    policies = [
        make_policy(method, environment, num_frames, seed=seed) for seed in seeds
    ]
    return PerSessionPolicies(policies)


def make_fleet_policy(
    method: str,
    environment: BatchedInferenceEnvironment,
    num_frames: int,
    seed: int = 0,
) -> FleetPolicy:
    """Build a fleet policy by method name, sized for the environment."""
    return make_member_policy(
        method,
        environment,
        num_frames,
        seeds=[seed + i for i in range(environment.num_sessions)],
    )


def _cell_result(
    setting: ExperimentSetting,
    method: str,
    result: FleetScenarioResult,
) -> FleetRunResult:
    """Wrap the scenario result of a cell as its :class:`FleetRunResult`."""
    return FleetRunResult(
        setting=setting,
        method=method,
        num_sessions=result.num_sessions,
        policy_name=result.sessions[0].policy_name,
        sessions=result.sessions,
        fleet_trace=result.fleet_trace,
        elapsed_s=result.elapsed_s,
    )


def run_fleet(
    setting: ExperimentSetting,
    method: str,
    num_sessions: int,
) -> FleetRunResult:
    """Run one (setting, method) cell as a vectorized fleet of sessions.

    The fleet analogue of
    :func:`repro.analysis.experiments.execute_setting`, minus the
    online-training warm-up (fleet learning methods train within the
    episode itself).  The cell runs as its one-member scenario through
    :func:`run_fleet_scenario`.
    """
    if num_sessions <= 0:
        raise ExperimentError("num_sessions must be positive")
    result = run_fleet_scenario(_cell_spec(setting, method, num_sessions))
    return _cell_result(setting, method, result)


def _session_histories(
    policy: FleetPolicy, num_sessions: int
) -> Tuple[List[List[float]], List[List[float]]]:
    """Per-session (losses, rewards) histories for any fleet policy shape.

    Per-session adapters report each session's own histories; sub-fleet
    combinators recurse into their partitions; shared policies (one network
    across the sessions, e.g. the fleet-trained agent) replicate their
    single history to every session.
    """
    if isinstance(policy, FaultedFleetPolicy):
        return _session_histories(policy.inner, num_sessions)
    if isinstance(policy, PerSessionPolicies):
        return policy.loss_histories(), policy.reward_histories()
    if isinstance(policy, SubFleetPolicies):
        losses: List[List[float]] = [[] for _ in range(num_sessions)]
        rewards: List[List[float]] = [[] for _ in range(num_sessions)]
        for sub_policy, indices in zip(policy.policies, policy.indices):
            sub_losses, sub_rewards = _session_histories(sub_policy, len(indices))
            for local, index in enumerate(indices.tolist()):
                losses[index] = sub_losses[local]
                rewards[index] = sub_rewards[local]
        return losses, rewards
    shared_losses = list(getattr(policy, "loss_history", []))
    shared_rewards = list(getattr(policy, "reward_history", []))
    return (
        [list(shared_losses) for _ in range(num_sessions)],
        [list(shared_rewards) for _ in range(num_sessions)],
    )


def _session_policy_names(policy: FleetPolicy, num_sessions: int) -> List[str]:
    """Per-session policy names (sub-fleet combinators resolve per slice)."""
    if isinstance(policy, FaultedFleetPolicy):
        return _session_policy_names(policy.inner, num_sessions)
    if isinstance(policy, SubFleetPolicies):
        return policy.session_policy_names()
    return [policy.name] * num_sessions


def _package_sessions(
    fleet_trace: FleetTrace,
    summaries: Tuple[Sequence[EpisodeMetrics], Sequence[EpisodeMetrics]],
    losses: Sequence[List[float]],
    rewards: Sequence[List[float]],
    names: Sequence[str],
) -> Tuple[SessionResult, ...]:
    """One :class:`SessionResult` per trace column, in global session order.

    The single packaging step of every fleet entry point (unsharded,
    sharded and supervised): ``summaries`` is the ``(metrics, steady)``
    pair of :func:`~repro.env.metrics.summarize_sessions` and
    ``losses``/``rewards``/``names`` are indexed by global session.  Each
    session's :class:`~repro.env.trace.Trace` is built only when read.
    """
    metrics, steady = summaries
    return tuple(
        SessionResult(
            names[i], (fleet_trace, i), metrics[i], steady[i], list(losses[i]), list(rewards[i])
        )
        for i in range(fleet_trace.num_sessions)
    )


def scalar_reference_sessions(
    setting: ExperimentSetting, method: str, num_sessions: int
) -> List[SessionResult]:
    """Run the N equivalent scalar sessions (the fleet's reference path).

    Used by the equivalence tests: session ``i`` is ``execute_setting`` at
    seed ``setting.seed + i`` without warm-up, on the Python scalar
    stepping — the :func:`scalar_reference_session` of the cell's scenario
    at that seed.
    """
    cell = _cell_spec(setting, method, num_sessions)
    return [
        scalar_reference_session(cell, seed=setting.seed + i)
        for i in range(num_sessions)
    ]


# ---------------------------------------------------------------------------
# Scenario execution (heterogeneous fleets)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """One shard of a fleet run: a contiguous block of global sessions.

    Attributes:
        index: Shard number (``0..num_shards-1`` after empty shards are
            dropped).
        start: First global session index of the block (inclusive).
        stop: One past the last global session index (exclusive).
    """

    index: int
    start: int
    stop: int

    @property
    def num_sessions(self) -> int:
        """Sessions in this shard."""
        return self.stop - self.start

    @property
    def session_indices(self) -> np.ndarray:
        """Global session indices of the shard, in order."""
        return np.arange(self.start, self.stop, dtype=np.int64)


@dataclass(frozen=True)
class FleetScenarioResult:
    """Outcome of running one scenario, in-process or sharded.

    Attributes:
        scenario: The (possibly overridden) fleet scenario that ran.
        assignments: Per-session resolution to specs and seeds, in global
            session order.
        shards: The contiguous session blocks the fleet ran as (one block
            covering every session for an in-process run).
        sessions: Per-session :class:`SessionResult` records, global order.
        fleet_trace: The combined columnar trace (global session order),
            byte-identical for every shard count.
        elapsed_s: Wall-clock seconds spent running (and, when sharded,
            merging) the episode.
        degraded: ``(num_frames, num_sessions)`` bool mask of fault-degraded
            cells, or ``None`` when the scenario carries no fault plan.
    """

    scenario: FleetScenario
    assignments: Tuple[SessionAssignment, ...]
    shards: Tuple[ShardPlan, ...]
    sessions: Tuple[SessionResult, ...]
    fleet_trace: FleetTrace
    elapsed_s: float
    degraded: np.ndarray | None = None

    @property
    def num_sessions(self) -> int:
        """Total fleet size."""
        return self.fleet_trace.num_sessions

    @property
    def num_shards(self) -> int:
        """Number of (non-empty) shards that actually ran."""
        return len(self.shards)

    @property
    def aggregate_frames_per_second(self) -> float:
        """Total frames processed across the fleet per wall-clock second."""
        if self.elapsed_s <= 0:
            return float("inf")
        return self.fleet_trace.total_frames / self.elapsed_s


def make_group_environment(
    device_name: str,
    detector_name: str,
    assignments: Sequence[SessionAssignment],
) -> BatchedInferenceEnvironment:
    """Build the batched environment of one grouped sub-fleet.

    All assignments must share ``device_name``/``detector_name``; each
    session gets its own dataset profile (per-session AR(1) workload
    parameters), ambient schedule, resolved latency constraint, stream
    generator (``default_rng(seed)``) and proposal generator
    (``default_rng(seed + 1)``) — exactly the components the scalar
    environment of that session's spec and seed would use.
    """
    from repro.analysis.experiments import (
        _control_margin_c,
        default_latency_constraint,
    )

    if not assignments:
        raise ExperimentError("a session group needs at least one assignment")
    for assignment in assignments:
        if (
            assignment.spec.device != device_name
            or assignment.spec.detector != detector_name
        ):
            raise ExperimentError(
                f"assignment {assignment.spec.name!r} does not belong to group "
                f"({device_name}, {detector_name})"
            )
    device = build_device(device_name)
    detector = build_detector(detector_name)
    # Every session's constraint is resolved here — explicit on its spec,
    # or the cost-model default of its dataset — so the stream carries one
    # float per session and the environment never substitutes a default.
    constraint_cache: Dict[str, float] = {}
    constraints: List[float] = []
    for assignment in assignments:
        spec = assignment.spec
        if spec.latency_constraint_ms is not None:
            constraints.append(float(spec.latency_constraint_ms))
            continue
        if spec.dataset not in constraint_cache:
            constraint_cache[spec.dataset] = default_latency_constraint(
                device_name, detector_name, spec.dataset
            )
        constraints.append(constraint_cache[spec.dataset])
    streams = FleetFrameStream(
        [build_dataset(assignment.spec.dataset) for assignment in assignments],
        [np.random.default_rng(assignment.seed) for assignment in assignments],
        latency_constraint_ms=constraints,
    )
    rngs = [np.random.default_rng(assignment.seed + 1) for assignment in assignments]
    trip = min(
        device.cpu_throttle.trip_temperature_c, device.gpu_throttle.trip_temperature_c
    )
    return BatchedInferenceEnvironment(
        device=device,
        detector=detector,
        streams=streams,
        ambient=[assignment.spec.ambient for assignment in assignments],
        rngs=rngs,
        throttle_threshold_c=trip - _control_margin_c(trip),
    )


def _group_fault_schedule(
    assignments: Sequence[SessionAssignment], num_frames: int
) -> FaultSchedule | None:
    """Compile the merged fault schedule of one session group, if any.

    Each assignment's spec may carry its own :class:`~repro.faults.FaultPlan`;
    every column is compiled from that plan at the session's *global* index,
    so the schedule is invariant under grouping and sharding.  Returns
    ``None`` when no session of the group is ever faulted.
    """
    plans = [getattr(a.spec, "faults", None) for a in assignments]
    if not any(plan is not None for plan in plans):
        return None
    shape = (num_frames, len(assignments))
    dropout = np.zeros(shape, dtype=bool)
    spike_c = np.zeros(shape, dtype=float)
    storm = np.zeros(shape, dtype=bool)
    for local, (assignment, plan) in enumerate(zip(assignments, plans)):
        if plan is None:
            continue
        column = compile_fault_plan(plan, num_frames, [assignment.index])
        dropout[:, local] = column.dropout[:, 0]
        spike_c[:, local] = column.spike_c[:, 0]
        storm[:, local] = column.storm[:, 0]
    schedule = FaultSchedule(
        sessions=tuple(a.index for a in assignments),
        dropout=dropout,
        spike_c=spike_c,
        storm=storm,
    )
    return schedule if schedule.any_faults else None


def _group_policy(
    environment: BatchedInferenceEnvironment,
    assignments: Sequence[SessionAssignment],
    num_frames: int,
) -> FleetPolicy:
    """Build the (possibly partitioned) policy driving one session group.

    When any of the group's specs carries a fault plan with sensor or storm
    events, the group policy is wrapped in a
    :class:`~repro.faults.FaultedFleetPolicy` compiled for the group's
    global session indices.
    """
    runs: List[Tuple[int, List[int], List[int]]] = []
    for local, assignment in enumerate(assignments):
        if runs and runs[-1][0] == assignment.member_index:
            runs[-1][1].append(local)
            runs[-1][2].append(assignment.seed)
        else:
            runs.append((assignment.member_index, [local], [assignment.seed]))
    policies = [
        make_member_policy(
            assignments[locals_[0]].spec.method, environment, num_frames, seeds
        )
        for _, locals_, seeds in runs
    ]
    if len(policies) == 1:
        policy: FleetPolicy = policies[0]
    else:
        policy = SubFleetPolicies(policies, [locals_ for _, locals_, _ in runs])
    schedule = _group_fault_schedule(assignments, num_frames)
    if schedule is not None:
        policy = FaultedFleetPolicy(policy, schedule)
    return policy


def collect_degraded(
    session_groups: Sequence[FleetSessionGroup],
    num_frames: int,
    num_sessions: int,
) -> np.ndarray | None:
    """Assemble the fleet-wide degraded mask from fault-injection wrappers.

    Scatters each :class:`~repro.faults.FaultedFleetPolicy`'s per-group
    ``degraded`` matrix into a ``(num_frames, num_sessions)`` array using the
    groups' session indices.  Returns ``None`` when no group was faulted.
    """
    if not any(
        isinstance(group.policy, FaultedFleetPolicy) for group in session_groups
    ):
        return None
    degraded = np.zeros((num_frames, num_sessions), dtype=bool)
    for group in session_groups:
        if isinstance(group.policy, FaultedFleetPolicy):
            columns = np.asarray(group.session_indices, dtype=int)
            degraded[:, columns] = group.policy.degraded[:num_frames]
    return degraded


def _resolve_scenario(
    scenario: Union[FleetScenario, ScenarioSpec, str],
    num_frames: int | None = None,
) -> FleetScenario:
    """Normalise a scenario argument into a (possibly overridden) fleet.

    Registered names resolve through the scenario registry, a single
    :class:`~repro.scenarios.ScenarioSpec` becomes a one-member fleet, and
    ``num_frames`` (when given) overrides every member's episode length.
    """
    from repro.scenarios import FleetMember, FleetScenario, ScenarioSpec, build_scenario

    if isinstance(scenario, str):
        scenario = build_scenario(scenario)
    if isinstance(scenario, ScenarioSpec):
        scenario = FleetScenario(
            name=scenario.name,
            members=(FleetMember(scenario),),
            description=scenario.description,
        )
    if not isinstance(scenario, FleetScenario):
        raise ScenarioError(
            f"expected a ScenarioSpec or FleetScenario, got {type(scenario).__name__}"
        )
    if num_frames is not None and num_frames != scenario.num_frames:
        scenario = scenario.with_overrides(
            members=tuple(
                FleetMember(
                    member.spec.with_overrides(num_frames=num_frames), member.weight
                )
                for member in scenario.members
            )
        )
    return scenario


def _session_groups(
    assignments: Sequence[SessionAssignment], num_frames: int, base: int = 0
) -> List[FleetSessionGroup]:
    """Partition assignments into grouped sub-fleets by (device, detector).

    Groups keep first-appearance order and each gets its batched environment
    and (possibly partitioned, possibly faulted) policy.  ``base`` rebases
    global session indices onto a contiguous slice, so a shard running
    ``assignments[start:stop]`` builds exactly its sessions' part of the
    unsharded fleet.
    """
    grouped: Dict[Tuple[str, str], List[SessionAssignment]] = {}
    for assignment in assignments:
        key = (assignment.spec.device, assignment.spec.detector)
        grouped.setdefault(key, []).append(assignment)
    session_groups: List[FleetSessionGroup] = []
    for (device_name, detector_name), group_assignments in grouped.items():
        environment = make_group_environment(
            device_name, detector_name, group_assignments
        )
        session_groups.append(
            FleetSessionGroup(
                environment=environment,
                policy=_group_policy(environment, group_assignments, num_frames),
                session_indices=tuple(a.index - base for a in group_assignments),
            )
        )
    return session_groups


def _group_histories(
    session_groups: Sequence[FleetSessionGroup],
) -> Tuple[List[List[float]], List[List[float]], List[str]]:
    """Per-session loss/reward histories and policy names of grouped sessions.

    Indexed by the groups' ``session_indices`` (which partition
    ``0..N-1``).
    """
    count = sum(group.environment.num_sessions for group in session_groups)
    losses: List[List[float]] = [[] for _ in range(count)]
    rewards: List[List[float]] = [[] for _ in range(count)]
    names: List[str] = [""] * count
    for group in session_groups:
        size = group.environment.num_sessions
        group_losses, group_rewards = _session_histories(group.policy, size)
        group_names = _session_policy_names(group.policy, size)
        for local, index in enumerate(group.session_indices):
            losses[index] = group_losses[local]
            rewards[index] = group_rewards[local]
            names[index] = group_names[local]
    return losses, rewards, names


def run_fleet_scenario(
    scenario: Union[FleetScenario, ScenarioSpec, str],
    num_sessions: int | None = None,
    num_frames: int | None = None,
) -> FleetScenarioResult:
    """Run a (possibly heterogeneous) scenario on the grouped fleet engine.

    Sessions are resolved via
    :meth:`~repro.scenarios.FleetScenario.session_assignments`, partitioned
    into sub-fleets by (device, detector), advanced lock-step as one batched
    kernel per group, and re-interleaved into one columnar trace in global
    session order.  Session ``i`` is bit-for-bit the scalar run of
    ``assignments[i].spec`` at seed ``assignments[i].seed``
    (``tests/test_fleet_equivalence.py`` enforces this).

    Args:
        scenario: A :class:`~repro.scenarios.FleetScenario`, a single
            :class:`~repro.scenarios.ScenarioSpec` (treated as a
            one-member fleet), or a registered scenario name.
        num_sessions: Total population override (default: the scenario's).
        num_frames: Episode-length override applied to every member.
    """
    scenario = _resolve_scenario(scenario, num_frames)
    frames = scenario.num_frames
    assignments = scenario.session_assignments(num_sessions)
    session_groups = _session_groups(assignments, frames)

    start = time.perf_counter()
    fleet_trace = run_grouped_fleet_episode(session_groups, frames)
    elapsed_s = time.perf_counter() - start

    return FleetScenarioResult(
        scenario=scenario,
        assignments=assignments,
        shards=(ShardPlan(index=0, start=0, stop=len(assignments)),),
        sessions=_package_sessions(
            fleet_trace,
            summarize_sessions(fleet_trace),
            *_group_histories(session_groups),
        ),
        fleet_trace=fleet_trace,
        elapsed_s=elapsed_s,
        degraded=collect_degraded(session_groups, frames, len(assignments)),
    )


def scalar_reference_session(
    spec: ScenarioSpec,
    seed: int | None = None,
    num_frames: int | None = None,
) -> SessionResult:
    """Run the scalar reference of one scenario session (no warm-up).

    The equivalence oracle of the scenario runner: the Python scalar
    stepping (:class:`~repro.env.reference.ReferenceInferenceEnvironment`)
    and the policy are built exactly as :func:`run_fleet_scenario` builds
    the session's slice of its group, so the returned trace must match
    that session's column of the fleet trace bit for bit.
    """
    from repro.analysis.experiments import _environment_arguments, make_policy
    from repro.core.training import OnlineSession
    from repro.env.reference import ReferenceInferenceEnvironment

    if spec.method == "lotus-fleet":
        raise ScenarioError(
            "lotus-fleet trains one shared network across the fleet and has "
            "no scalar reference session"
        )
    frames = spec.num_frames if num_frames is None else num_frames
    setting = spec.setting().with_overrides(
        seed=spec.seed if seed is None else seed, num_frames=frames
    )
    environment = ReferenceInferenceEnvironment(
        **_environment_arguments(setting, spec.ambient, None)
    )
    policy = make_policy(spec.method, environment, frames, seed=setting.seed)
    return OnlineSession(environment, policy).run(frames)
