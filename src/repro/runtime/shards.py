"""Sharded multi-core fleet execution: one fleet, many worker processes.

The fleet engine (:mod:`repro.runtime.fleet`) advances every session of a
scenario inside one NumPy program; this module splits that program across
the process-pool runtime.  A scenario's session assignments are partitioned
into contiguous *shards*, each shard runs as an independent grouped fleet
episode in its own worker process, and the per-shard columnar traces are
re-interleaved (via the grouped-partition machinery of
:mod:`repro.env.fleet`) into a single :class:`~repro.env.fleet.FleetTrace`
in global session order.

Because sessions never interact inside the engine — every session's
streams, proposal noise, device column and policy state are its own — the
re-interleaved trace is **byte-identical** to the unsharded run, for any
shard count (``tests/test_fleet_sharding.py`` enforces this against every
registered scenario).

The one coupling in the whole system is the fleet-trained
``lotus-fleet`` agent: one shared Q-network learns from *all* of its
member's sessions, so splitting such a member would change its batch
composition and replay contents.  The shard planner therefore treats each
maximal run of consecutive same-member ``lotus-fleet`` sessions as an
*atom* that is never divided: scenarios containing fleet-trained members
still shard bit-exactly (whole atoms move between workers), while a fleet
that is one big ``lotus-fleet`` member degrades to a single shard.

Every sharded fleet runs through the one scenario-shard path: a
homogeneous (setting, method) cell (:func:`run_sharded_fleet`) is the
one-member scenario of its setting, and the supervisor
(:func:`run_supervised_scenario`) runs the same grouped episode loop with a
checkpointing frame sink.  A plan with a single shard is the in-process
run: :func:`run_sharded_scenario` then returns
:func:`repro.runtime.fleet.run_fleet_scenario`'s result, and every entry
point returns a :class:`~repro.runtime.fleet.FleetScenarioResult`.  The
cell entry point refuses ``lotus-fleet`` with more than one shard outright,
with a typed :class:`~repro.errors.ShardError`.
"""

from __future__ import annotations

import math
import os
import pickle
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import FaultError, ShardError
from repro.obs import bus as _obs

# ``session_result_from_trace`` is re-exported: it stays part of this
# module's namespace for code that patches it here by module path.
from repro.core.training import SessionResult, session_result_from_trace  # noqa: F401
from repro.env.fleet import (
    FleetFrameResult,
    FleetSessionGroup,
    FleetTrace,
    run_grouped_fleet_episode,
    validate_session_partition,
)
from repro.env.trace import COLUMN_DTYPES
from repro.store import (
    DEFAULT_CHUNK_FRAMES,
    MANIFEST_NAME,
    FleetTraceWriter,
    MappedFleetTrace,
)
from repro.faults.plan import WorkerCrash
from repro.runtime.pool import PoolTask, acquire_pool, scenario_shard_fingerprint
from repro.runtime.fleet import (
    FleetRunResult,
    FleetScenarioResult,
    ShardPlan,
    _cell_result,
    _cell_spec,
    _group_histories,
    _package_sessions,
    _resolve_scenario,
    _session_groups,
    collect_degraded,
    run_fleet_scenario,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.analysis.experiments import ExperimentSetting
    from repro.scenarios import FleetScenario, ScenarioSpec, SessionAssignment


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------


def _forbidden_cuts(assignments: Sequence["SessionAssignment"]) -> List[bool]:
    """Which inter-session boundaries must not be cut by a shard edge.

    ``result[i]`` forbids a cut between global sessions ``i`` and ``i+1``.
    A maximal run of consecutive same-member ``lotus-fleet`` assignments
    (consecutive in their device/detector group's local order, which is the
    global order filtered to the group) trains one shared agent over the
    whole run; every global boundary the run spans is pinned so the run
    lands in one shard intact.
    """
    n = len(assignments)
    forbidden = [False] * max(n - 1, 0)
    last_in_group: Dict[Tuple[str, str], Tuple[int, int, str]] = {}
    for i, assignment in enumerate(assignments):
        key = (assignment.spec.device, assignment.spec.detector)
        previous = last_in_group.get(key)
        if previous is not None:
            prev_index, prev_member, prev_method = previous
            if (
                prev_method == "lotus-fleet"
                and assignment.spec.method == "lotus-fleet"
                and prev_member == assignment.member_index
            ):
                for j in range(prev_index, i):
                    forbidden[j] = True
        last_in_group[key] = (i, assignment.member_index, assignment.spec.method)
    return forbidden


def plan_shards(
    assignments: Sequence["SessionAssignment"], num_shards: int
) -> List[ShardPlan]:
    """Split session assignments into at most ``num_shards`` contiguous shards.

    The split is deterministic and balanced by session count; indivisible
    ``lotus-fleet`` atoms (see :func:`_forbidden_cuts`) are never cut, and
    when there are fewer divisible segments (or sessions) than requested
    shards, fewer shards are returned instead of empty ones — asking for
    more shards than sessions is not an error.
    """
    if num_shards < 1:
        raise ShardError(f"num_shards must be >= 1, got {num_shards}")
    n = len(assignments)
    if n == 0:
        raise ShardError("cannot shard an empty fleet")
    forbidden = _forbidden_cuts(assignments)
    bounds = [0] + [i + 1 for i in range(n - 1) if not forbidden[i]] + [n]
    segments = list(zip(bounds[:-1], bounds[1:]))

    shards: List[ShardPlan] = []
    i = 0
    for k in range(num_shards):
        if i >= len(segments):
            break
        remaining_shards = num_shards - k
        remaining_sessions = n - segments[i][0]
        target = math.ceil(remaining_sessions / remaining_shards)
        start, stop = segments[i]
        i += 1
        while i < len(segments) and stop - start < target:
            stop = segments[i][1]
            i += 1
        shards.append(ShardPlan(index=k, start=start, stop=stop))
    if i < len(segments):
        # Rounding left a tail of segments; fold it into the last shard.
        last = shards[-1]
        shards[-1] = ShardPlan(index=last.index, start=last.start, stop=n)
    return shards


# ---------------------------------------------------------------------------
# Worker entry points (module-level so the process pool can pickle them)
# ---------------------------------------------------------------------------


def _spool_store_path(spool_dir: str, start: int, stop: int) -> Path:
    return Path(spool_dir) / f"shard-{start:06d}-{stop:06d}"


def _build_scenario_shard(
    scenario: "FleetScenario", num_sessions: int, start: int, stop: int
) -> List[FleetSessionGroup]:
    """Construct one scenario shard's grouped sub-fleets (no episode run).

    The shard re-resolves the scenario's assignments — resolution is
    deterministic — and groups its slice ``start..stop-1`` exactly as
    :func:`repro.runtime.fleet.run_fleet_scenario` groups the whole fleet,
    with shard-local session indices.  Split from the run so the persistent
    pool (:mod:`repro.runtime.pool`) can pin the constructed groups and
    skip this step on a warm fingerprint hit.
    """
    with _obs.span("shard.build", kind="scenario", start=start, stop=stop):
        assignments = scenario.session_assignments(num_sessions)[start:stop]
        return _session_groups(assignments, scenario.num_frames, base=start)


def _execute_scenario_shard(
    session_groups: Sequence[FleetSessionGroup],
    frames: int,
    start: int,
    stop: int,
    spool_dir: str,
):
    """Run one (pre-built) scenario shard's episode and collect its results.

    Returns ``(manifest, losses, rewards, names, degraded)``: the histories
    and names are shard-local lists, ``degraded`` the shard's slice of the
    fault mask (``None`` when unfaulted).  The shard sinks its frames
    incrementally into a columnar chunk store under ``spool_dir`` and
    returns only the store's manifest path, so traces cross the process
    boundary through ``mmap``-able files instead of pickled frame objects.
    """
    count = stop - start
    with _obs.span("shard.run", kind="scenario", start=start, stop=stop):
        writer = FleetTraceWriter(_spool_store_path(spool_dir, start, stop), count)
        run_grouped_fleet_episode(session_groups, frames, sink=writer)
        manifest = str(writer.close())
        losses, rewards, names = _group_histories(session_groups)
        degraded = collect_degraded(session_groups, frames, count)
    return manifest, losses, rewards, names, degraded


# ---------------------------------------------------------------------------
# Re-interleave
# ---------------------------------------------------------------------------


def _interleave_shard_traces(
    shard_traces: Sequence[Union[str, Path]],
    shards: Sequence[ShardPlan],
    num_sessions: int,
) -> FleetTrace:
    """Merge per-shard traces into one trace in global session order.

    Shard payloads are the manifest paths of spooled chunk stores, opened
    here as memory-mapped :class:`~repro.store.MappedFleetTrace` column
    views.  The shard partition is validated once, then each shard's
    column chunks are scattered straight into the combined ``(frames, N)``
    columns, which become the merged trace through
    :meth:`FleetTrace.from_columns`: no shard trace is ever unpickled or
    rebuilt frame by frame.  The scatter applies the same partition
    machinery the grouped episode loop uses, so a sharded trace is
    indistinguishable from (bitwise equal to) a single-process one.
    """
    merge_span = _obs.span("shard.merge", shards=len(shards))
    merge_span.__enter__()
    targets = validate_session_partition(
        [shard.session_indices for shard in shards], num_sessions
    )
    traces = [MappedFleetTrace(path) for path in shard_traces]
    try:
        lengths = {len(trace) for trace in traces}
        if len(lengths) != 1:
            raise ShardError(
                f"shards returned unequal frame counts: {sorted(lengths)}"
            )
        num_frames = lengths.pop()
        starts = {trace.start_index for trace in traces}
        if len(starts) != 1:
            raise ShardError(
                f"shard frame indices diverged: starts {sorted(starts)}"
            )
        columns = {
            name: np.empty((num_frames, num_sessions), dtype=dtype)
            for name, dtype in COLUMN_DTYPES.items()
        }
        datasets = np.empty((num_frames, num_sessions), dtype=object)
        for trace, target in zip(traces, targets):
            for name, column in columns.items():
                for offset, block in trace.iter_column_chunks(name):
                    column[offset : offset + len(block), target] = block
            datasets[:, target] = np.array(
                trace.datasets_window(), dtype=object
            ).reshape(num_frames, len(target))
        return FleetTrace.from_columns(
            columns, [tuple(row) for row in datasets.tolist()], starts.pop()
        )
    finally:
        for trace in traces:
            trace.close()
        merge_span.__exit__(None, None, None)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _plan_scenario(
    scenario: Union["FleetScenario", "ScenarioSpec", str],
    num_shards: int,
    num_sessions: int | None,
    num_frames: int | None,
) -> Tuple["FleetScenario", tuple, Tuple[ShardPlan, ...]]:
    """Resolve a scenario argument, its assignments and its shard plan."""
    scenario = _resolve_scenario(scenario, num_frames)
    assignments = scenario.session_assignments(num_sessions)
    return scenario, assignments, tuple(plan_shards(assignments, num_shards))


def _gather_shards(
    shards: Sequence[ShardPlan],
    shard_results: Sequence[tuple],
    fleet_trace: FleetTrace,
    num_frames: int,
) -> Tuple[Tuple[SessionResult, ...], Optional[np.ndarray]]:
    """Per-session results and the fleet degraded mask from shard results.

    Each shard result is ``(payload, losses, rewards, names, degraded)``
    with shard-local lists; shards are contiguous and in order, so
    concatenating them gives global session order.
    """
    losses: List[List[float]] = []
    rewards: List[List[float]] = []
    names: List[str] = []
    degraded: Optional[np.ndarray] = None
    for shard, (_, shard_losses, shard_rewards, shard_names, shard_degraded) in zip(
        shards, shard_results
    ):
        losses.extend(shard_losses)
        rewards.extend(shard_rewards)
        names.extend(shard_names)
        if shard_degraded is not None:
            if degraded is None:
                degraded = np.zeros(
                    (num_frames, fleet_trace.num_sessions), dtype=bool
                )
            degraded[:, shard.start : shard.stop] = shard_degraded
    return _package_sessions(fleet_trace, losses, rewards, names), degraded


def run_sharded_scenario(
    scenario: Union["FleetScenario", "ScenarioSpec", str],
    num_shards: int,
    num_sessions: int | None = None,
    num_frames: int | None = None,
) -> FleetScenarioResult:
    """Run a scenario's fleet split across ``num_shards`` worker processes.

    The sharded counterpart of :func:`repro.runtime.fleet.run_fleet_scenario`:
    sessions are planned into contiguous shards (:func:`plan_shards`), each
    shard executes the scenario's grouped fleet episode over its own block
    in a separate process, and the results re-interleave into one trace in
    global session order — byte-identical to the unsharded run.  When the
    plan has a single shard, the run is the in-process one and its result
    is :func:`~repro.runtime.fleet.run_fleet_scenario`'s.

    Args:
        scenario: A :class:`~repro.scenarios.FleetScenario`, a single
            :class:`~repro.scenarios.ScenarioSpec`, or a registered name.
        num_shards: Requested shard count (>= 1).  The planner may return
            fewer shards than requested (small fleets, indivisible
            ``lotus-fleet`` atoms); never more.
        num_sessions: Total population override (default: the scenario's).
        num_frames: Episode-length override applied to every member.
    """
    scenario, assignments, shards = _plan_scenario(
        scenario, num_shards, num_sessions, num_frames
    )
    if len(shards) == 1:
        return run_fleet_scenario(scenario, num_sessions)
    total = len(assignments)

    run_span = _obs.span(
        "runtime.run_sharded_scenario", shards=len(shards), sessions=total
    )
    run_span.__enter__()
    start_time = time.perf_counter()
    spool = tempfile.mkdtemp(prefix="repro-shards-")
    pool, owned = acquire_pool(len(shards))
    try:
        tasks = [
            PoolTask(
                kind="scenario-shard",
                args=(scenario, total, shard.start, shard.stop, spool),
                fingerprint=scenario_shard_fingerprint(
                    scenario, total, shard.start, shard.stop
                ),
                shard_index=shard.index,
            )
            for shard in shards
        ]
        shard_results = pool.run_tasks(tasks).results
        fleet_trace = _interleave_shard_traces(
            [result[0] for result in shard_results], shards, total
        )
    finally:
        if owned:
            pool.shutdown()
        shutil.rmtree(spool, ignore_errors=True)
    elapsed_s = time.perf_counter() - start_time
    run_span.__exit__(None, None, None)

    sessions, degraded = _gather_shards(
        shards, shard_results, fleet_trace, scenario.num_frames
    )
    return FleetScenarioResult(
        scenario=scenario,
        assignments=assignments,
        shards=shards,
        sessions=sessions,
        fleet_trace=fleet_trace,
        elapsed_s=elapsed_s,
        degraded=degraded,
    )


def _sharded_cell_spec(
    setting: "ExperimentSetting",
    method: str,
    num_sessions: int,
    num_shards: int,
) -> "ScenarioSpec":
    """The one-member scenario of a cell, checked for a ``num_shards`` run.

    Shared by :func:`run_sharded_fleet` and the CLI's cell mode, so both
    refuse the same inputs: a shard count below one, an empty fleet, and a
    ``lotus-fleet`` cell split across more than one shard.
    """
    if num_shards < 1:
        raise ShardError(f"num_shards must be >= 1, got {num_shards}")
    if num_sessions <= 0:
        raise ShardError("num_sessions must be positive")
    if method == "lotus-fleet" and num_shards > 1:
        raise ShardError(
            "lotus-fleet trains one shared network across the whole fleet and "
            "cannot be split across shards; run with --shards 1, or shard a "
            "scenario whose lotus-fleet members are smaller than the fleet"
        )
    return _cell_spec(setting, method, num_sessions)


def run_sharded_fleet(
    setting: "ExperimentSetting",
    method: str,
    num_sessions: int,
    num_shards: int,
) -> FleetRunResult:
    """Run one homogeneous (setting, method) fleet cell across shards.

    The sharded counterpart of :func:`repro.runtime.fleet.run_fleet`,
    returning the same :class:`~repro.runtime.fleet.FleetRunResult` with a
    byte-identical ``fleet_trace``.  The cell is the one-member scenario of
    its setting (:func:`repro.runtime.fleet._cell_spec`) and runs through
    :func:`run_sharded_scenario`.  ``lotus-fleet`` (one shared network
    across the whole fleet) cannot be divided and is refused for
    ``num_shards > 1``.
    """
    cell = _sharded_cell_spec(setting, method, num_sessions, num_shards)
    result = run_sharded_scenario(cell, num_shards)
    return _cell_result(setting, method, result)


# ---------------------------------------------------------------------------
# Supervised execution: crash detection and checkpoint recovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryReport:
    """What the supervisor observed and did about worker deaths.

    Attributes:
        crashes_detected: Worker deaths the supervisor observed (injected
            crashes and real ones look identical: an EOF on the worker's
            pipe).
        restarts: Shard executions that were resubmitted after a death.
        recovered_shards: Indices of shards that completed only after at
            least one restart.
        checkpoint_every: The periodic checkpoint interval (frames) the
            workers spooled at.
        recovery_s: Wall-clock seconds spent re-running shards after the
            first detected death (zero for a clean run).
    """

    crashes_detected: int
    restarts: int
    recovered_shards: Tuple[int, ...]
    checkpoint_every: int
    recovery_s: float


@dataclass(frozen=True)
class SupervisedScenarioResult(FleetScenarioResult):
    """Outcome of one supervised (fault-tolerant) sharded run of a scenario.

    Carries everything :class:`~repro.runtime.fleet.FleetScenarioResult`
    does, plus the supervisor's :class:`RecoveryReport`.
    """

    recovery: RecoveryReport = field(kw_only=True)


def _checkpoint_write(path: Path, payload: dict) -> None:
    """Atomically pickle a shard checkpoint (write-then-rename)."""
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


@dataclass
class _SupervisedSink:
    """Frame sink of a supervised shard: spool, checkpoint, crash.

    ``append`` spools each frame to the shard's chunk store through
    ``writer``, whose chunks are ``checkpoint_every`` frames long, so every
    checkpoint follows a chunk flush.  Every ``checkpoint_every`` completed
    frames (never after the last) it writes a checkpoint: the environments'
    and policies' ``state_dict`` snapshots and the writer's sealed-chunk
    :meth:`~repro.store.FleetTraceWriter.index`, no frames.  Then, at the
    boundary before ``crash_frame``, it injects the one-shot worker death.
    """

    groups: Sequence[FleetSessionGroup]
    num_frames: int
    checkpoint_every: int
    checkpoint_path: Path
    crash_frame: Optional[int]
    crash_marker: Path
    shard_index: int
    writer: FleetTraceWriter

    def crash_if_due(self, frame: int) -> None:
        """Kill this worker at the start of ``frame`` if it is the crash frame.

        A marker file in the spool makes the crash one-shot: the restarted
        worker passes the same frame unharmed.
        """
        if frame == self.crash_frame and not self.crash_marker.exists():
            self.crash_marker.write_text(str(frame))
            os._exit(43)

    def append(self, frame_result: FleetFrameResult) -> None:
        self.writer.append(frame_result)
        completed = self.writer.frames_written
        if completed >= self.num_frames:
            return
        if self.checkpoint_every > 0 and completed % self.checkpoint_every == 0:
            _checkpoint_write(
                self.checkpoint_path,
                {
                    "frame": completed,
                    "environments": [
                        group.environment.state_dict() for group in self.groups
                    ],
                    "policies": [
                        group.policy.state_dict()
                        if hasattr(group.policy, "state_dict")
                        else None
                        for group in self.groups
                    ],
                    "store": self.writer.index(),
                },
            )
            _obs.event("checkpoint.write", shard=self.shard_index, frame=completed)
            _obs.inc("checkpoint.writes")
        self.crash_if_due(completed)


def _run_supervised_shard(
    scenario: "FleetScenario",
    num_sessions: int,
    start: int,
    stop: int,
    shard_index: int,
    spool_dir: str,
    checkpoint_every: int,
    crash_frame: Optional[int],
):
    """Run one scenario shard with periodic checkpoints and crash injection.

    The shard runs the grouped episode loop with a :class:`_SupervisedSink`
    that spools its frames to a columnar chunk store in the spool as they
    run and writes a checkpoint (the environments' and policies'
    ``state_dict`` snapshots plus the store's sealed-chunk index) every
    ``checkpoint_every`` frames.  When a checkpoint for this shard already
    exists in the spool, the worker resumes from it instead of frame 0: the
    states are loaded, the store's writer is rebuilt from the index, and
    the frames after it are replayed, each rewritten chunk replacing the
    crashed incarnation's.  Because every state a frame reads is captured,
    the resumed run's frames are bit-identical to an uninterrupted one.

    ``crash_frame`` injects a worker death: the process calls ``os._exit``
    at the start of that frame, once — a marker file in the spool keeps the
    restarted worker from crashing again.

    Only the sealed store's manifest path is returned, so the supervisor
    merges memory-mapped columns instead of unpickling frame lists.
    """
    run_span = _obs.span("shard.run", kind="supervised", shard=shard_index)
    run_span.__enter__()
    with _obs.span("shard.build", kind="supervised", shard=shard_index):
        assignments = scenario.session_assignments(num_sessions)[start:stop]
        num_frames = scenario.num_frames
        session_groups = _session_groups(assignments, num_frames, base=start)
    for group in session_groups:
        group.environment.reset()
        group.policy.reset()

    spool = Path(spool_dir)
    checkpoint_path = spool / f"shard-{shard_index}.ckpt"
    store_dir = spool / f"shard-{shard_index}-trace"
    chunk_frames = checkpoint_every or DEFAULT_CHUNK_FRAMES
    first_frame = 0
    if checkpoint_path.exists():
        with open(checkpoint_path, "rb") as handle:
            payload = pickle.load(handle)
        for group, environment_state, policy_state in zip(
            session_groups, payload["environments"], payload["policies"]
        ):
            group.environment.load_state_dict(environment_state)
            if policy_state is not None:
                group.policy.load_state_dict(policy_state)
        first_frame = payload["frame"]
        # An incarnation that finished, but whose result was lost when
        # another worker broke the pool, left its store sealed.
        (store_dir / MANIFEST_NAME).unlink(missing_ok=True)
        writer = FleetTraceWriter.resume(
            store_dir, stop - start, payload["store"], chunk_frames
        )
        _obs.event("checkpoint.restore", shard=shard_index, frame=first_frame)
        _obs.inc("checkpoint.restores")
    else:
        shutil.rmtree(store_dir, ignore_errors=True)
        writer = FleetTraceWriter(store_dir, stop - start, chunk_frames)

    sink = _SupervisedSink(
        groups=session_groups,
        num_frames=num_frames,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        crash_frame=crash_frame,
        crash_marker=spool / f"shard-{shard_index}.crashed",
        shard_index=shard_index,
        writer=writer,
    )
    sink.crash_if_due(first_frame)
    run_grouped_fleet_episode(
        session_groups,
        num_frames - first_frame,
        reset_environments=False,
        reset_policies=False,
        sink=sink,
    )
    manifest = writer.close()
    losses, rewards, names = _group_histories(session_groups)
    degraded = collect_degraded(session_groups, num_frames, stop - start)
    run_span.__exit__(None, None, None)
    return str(manifest), losses, rewards, names, degraded


def run_supervised_scenario(
    scenario: Union["FleetScenario", "ScenarioSpec", str],
    num_shards: int,
    num_sessions: int | None = None,
    num_frames: int | None = None,
    checkpoint_every: int = 25,
    crashes: Sequence[WorkerCrash] = (),
    max_restarts: int = 3,
) -> SupervisedScenarioResult:
    """Run a sharded scenario under a crash-recovering supervisor.

    The fault-tolerant counterpart of :func:`run_sharded_scenario`: every
    shard always runs in a worker process, spools its trace to a chunk
    store as it runs, and checkpoints its state every ``checkpoint_every``
    frames.  When a worker dies — injected through a
    :class:`~repro.faults.WorkerCrash` event (on the scenario's fault plans
    or passed via ``crashes``) or for real — the supervisor observes the
    dead pipe, respawns a fresh worker into the same pool slot, and
    resubmits the unfinished shard, which resumes from its latest
    checkpoint and replays only the frames after it while the other shards
    keep running.  Because the checkpoints capture every bit of state the
    frame loop reads, the recovered trace is byte-identical to an
    uninterrupted run of the same scenario.

    Each run owns a fresh temporary spool (checkpoints, crash markers and
    shard stores), removed when the run ends, whether it succeeded or not.

    Args:
        scenario: A fleet scenario, single spec, or registered name.
        num_shards: Requested shard count (the planner may return fewer).
        num_sessions: Total population override (default: the scenario's).
        num_frames: Episode-length override applied to every member.
        checkpoint_every: Frames between spooled checkpoints (``0``
            disables periodic checkpoints; a crashed shard then restarts
            from frame 0, still bit-identically).
        crashes: Extra injected worker crashes, merged with the crash
            events of the scenario's fault plans.
        max_restarts: Restart budget per shard; exceeding it raises
            :class:`~repro.errors.ShardError`.
    """
    if checkpoint_every < 0:
        raise ShardError("checkpoint_every must be non-negative")
    scenario, assignments, shards = _plan_scenario(
        scenario, num_shards, num_sessions, num_frames
    )
    total = len(assignments)

    all_crashes = list(crashes)
    for member in scenario.members:
        plan = getattr(member.spec, "faults", None)
        if plan is not None:
            all_crashes.extend(plan.crashes)
    crash_by_shard: Dict[int, int] = {}
    for crash in all_crashes:
        if crash.shard >= len(shards):
            raise FaultError(
                f"worker crash targets shard {crash.shard} but the plan "
                f"produced only {len(shards)} shard(s)"
            )
        frame = crash_by_shard.get(crash.shard)
        crash_by_shard[crash.shard] = (
            crash.frame if frame is None else min(frame, crash.frame)
        )

    run_span = _obs.span(
        "runtime.run_supervised_scenario", shards=len(shards), sessions=total
    )
    run_span.__enter__()
    start_time = time.perf_counter()
    spool = tempfile.mkdtemp(prefix="repro-spool-")
    try:
        tasks = [
            PoolTask(
                kind="supervised-shard",
                args=(
                    scenario,
                    total,
                    shard.start,
                    shard.stop,
                    shard.index,
                    spool,
                    checkpoint_every,
                    crash_by_shard.get(shard.index),
                ),
                shard_index=shard.index,
            )
            for shard in shards
        ]
        pool, owned = acquire_pool(len(shards))
        try:
            # A dying worker (injected ``os._exit`` or a real fault) shows
            # up as an EOF on its pipe; the pool respawns a fresh process
            # into the same slot and resubmits the shard, which resumes from
            # its latest spooled checkpoint.  Other shards keep running
            # undisturbed.
            run_report = pool.run_tasks(tasks, max_restarts=max_restarts)
        finally:
            if owned:
                pool.shutdown()
        shard_results = run_report.results
        fleet_trace = _interleave_shard_traces(
            [result[0] for result in shard_results], shards, total
        )
        elapsed_s = time.perf_counter() - start_time
    finally:
        shutil.rmtree(spool, ignore_errors=True)
        run_span.__exit__(None, None, None)
    recovery_s = (
        0.0
        if run_report.first_death is None
        else time.perf_counter() - run_report.first_death
    )
    sessions, degraded = _gather_shards(
        shards, shard_results, fleet_trace, scenario.num_frames
    )

    recovery = RecoveryReport(
        crashes_detected=run_report.crashes_detected,
        restarts=run_report.restarts,
        recovered_shards=tuple(sorted(run_report.recovered)),
        checkpoint_every=checkpoint_every,
        recovery_s=recovery_s,
    )
    _obs.record_report("recovery.report", recovery)
    return SupervisedScenarioResult(
        scenario=scenario,
        assignments=assignments,
        shards=shards,
        sessions=sessions,
        fleet_trace=fleet_trace,
        elapsed_s=elapsed_s,
        degraded=degraded,
        recovery=recovery,
    )
