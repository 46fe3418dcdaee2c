"""Sharded multi-core fleet execution: one fleet, many worker processes.

The fleet engine (:mod:`repro.runtime.fleet`) advances every session of a
scenario inside one NumPy program; this module splits that program across
the process-pool runtime.  A scenario's session assignments are partitioned
into contiguous *shards*, each shard runs as an independent grouped fleet
episode in its own worker process, and the per-shard columnar traces are
merged, each as it arrives, into a single
:class:`~repro.env.fleet.FleetTrace` in global session order.

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

Every sharded fleet runs through one shard runner
(:func:`_run_scenario_shard`, one ``"scenario-shard"`` pool task per
shard) and one driver (:func:`_run_shards`).  A homogeneous (setting,
method) cell is the one-member scenario of its setting
(:func:`repro.runtime.fleet.cell_scenario`) and shards like any other
scenario.  A supervised run (:func:`run_supervised_scenario`) is a sharded
run plus periodic checkpoints, injected crashes and a restart budget, with
its shards rebuilt cold instead of warm.  A plan with a single shard is
the in-process run: :func:`run_sharded_scenario` then returns
:func:`repro.runtime.fleet.run_fleet_scenario`'s result.  Every entry point
returns a :class:`~repro.runtime.fleet.FleetScenarioResult`; the
supervised one also fills its ``recovery`` field with the supervisor's
:class:`~repro.runtime.fleet.RecoveryReport`.
"""

from __future__ import annotations

import math
import os
import pickle
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
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
from repro.env.metrics import EpisodeMetrics, summarize_sessions
from repro.env.trace import COLUMN_DTYPES
from repro.store import (
    DATASET_CODE_COLUMN,
    DEFAULT_CHUNK_FRAMES,
    MANIFEST_NAME,
    FleetTraceWriter,
    MappedFleetTrace,
)
from repro.faults.plan import WorkerCrash
from repro.runtime.pool import (
    PoolRunReport,
    PoolTask,
    scenario_shard_fingerprint,
    shared_pool,
)
from repro.runtime.fleet import (
    FleetScenarioResult,
    RecoveryReport,
    ShardPlan,
    _group_histories,
    _package_sessions,
    _resolve_scenario,
    _session_groups,
    collect_degraded,
    run_fleet_scenario,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
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
    with _obs.span("shard.build", start=start, stop=stop):
        assignments = scenario.session_assignments(num_sessions)[start:stop]
        return _session_groups(assignments, scenario.num_frames, base=start)


def _checkpoint_write(path: Path, payload: dict) -> None:
    """Atomically pickle a shard checkpoint (write-then-rename)."""
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


@dataclass
class _ShardSink:
    """Frame sink of a shard: spool, checkpoint, crash.

    ``append`` spools each frame to the shard's chunk store through
    ``writer``, whose chunks are ``checkpoint_every`` frames long (when
    non-zero), so every checkpoint follows a chunk flush.  Every
    ``checkpoint_every`` completed frames (never after the last; never when
    ``0``) it writes a checkpoint:
    the environments' and policies' ``state_dict`` snapshots and the
    writer's sealed-chunk :meth:`~repro.store.FleetTraceWriter.index`, no
    frames.  Then, at the boundary before ``crash_frame``, it injects the
    one-shot worker death.
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


def _run_scenario_shard(
    session_groups: Sequence[FleetSessionGroup],
    num_frames: int,
    shard_index: int,
    start: int,
    stop: int,
    spool_dir: str,
    checkpoint_every: int,
    crash_frame: Optional[int],
):
    """Run one (pre-built) scenario shard's episode and collect its results.

    The groups are reset and run through the grouped episode loop into a
    :class:`_ShardSink`, which spools the frames to the columnar chunk
    store ``shard-<i>-trace`` in ``spool_dir`` as they run and writes a
    checkpoint (the environments' and policies' ``state_dict`` snapshots
    plus the store's sealed-chunk index) every ``checkpoint_every`` frames.
    When a checkpoint for this shard already exists in the spool, the run
    resumes from it instead of frame 0: the states are loaded, the store's
    writer is rebuilt from the index, and the frames after it are replayed,
    each rewritten chunk replacing the crashed incarnation's.  Because
    every state a frame reads is captured, the resumed run's frames are
    bit-identical to an uninterrupted one.  A run from frame 0 clears the
    store first, so a resubmitted shard can always rewrite it.

    ``crash_frame`` injects a worker death: the process calls ``os._exit``
    at the start of that frame, once — a marker file in the spool keeps the
    restarted worker from crashing again.

    Returns ``(manifest, losses, rewards, names, degraded)``: the sealed
    store's manifest path (so traces cross the process boundary through
    ``mmap``-able files instead of pickled frames), shard-local histories
    and names, and the shard's slice of the fault mask (``None`` when
    unfaulted).
    """
    count = stop - start
    spool = Path(spool_dir)
    checkpoint_path = spool / f"shard-{shard_index}.ckpt"
    store_dir = spool / f"shard-{shard_index}-trace"
    chunk_frames = checkpoint_every or DEFAULT_CHUNK_FRAMES
    with _obs.span("shard.run", shard=shard_index, start=start, stop=stop):
        for group in session_groups:
            group.environment.reset()
            group.policy.reset()
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
                store_dir, count, payload["store"], chunk_frames
            )
            _obs.event("checkpoint.restore", shard=shard_index, frame=first_frame)
            _obs.inc("checkpoint.restores")
        else:
            shutil.rmtree(store_dir, ignore_errors=True)
            writer = FleetTraceWriter(store_dir, count, chunk_frames)

        sink = _ShardSink(
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
        manifest = str(writer.close())
        losses, rewards, names = _group_histories(session_groups)
        degraded = collect_degraded(session_groups, num_frames, count)
    return manifest, losses, rewards, names, degraded


# ---------------------------------------------------------------------------
# Merge on arrival
# ---------------------------------------------------------------------------


class _ShardMerge:
    """The combined result of a sharded run, filled in as shards arrive.

    Holds the ``(frames, N)`` trace columns, the dataset codes against one
    merged dataset table, every session's summaries and histories and the
    degraded mask.  :meth:`add` is the pool's ``on_result`` callback: each
    shard is merged (:func:`_interleave_shard_traces`) and summarised as
    soon as its worker finishes, while the other shards still run, so only
    the last shard's share is left when the last worker ends.
    """

    def __init__(
        self, shards: Sequence[ShardPlan], num_sessions: int, num_frames: int
    ):
        validate_session_partition(
            [shard.session_indices for shard in shards], num_sessions
        )
        self.shards = tuple(shards)
        self.num_frames = num_frames
        self.columns = {
            name: np.empty((num_frames, num_sessions), dtype=dtype)
            for name, dtype in COLUMN_DTYPES.items()
        }
        self.codes = np.empty((num_frames, num_sessions), dtype=np.int32)
        self.dataset_table: List[str] = []
        self.dataset_codes: Dict[str, int] = {}
        self.start_index: Optional[int] = None
        self.metrics: List[Optional[EpisodeMetrics]] = [None] * num_sessions
        self.steady: List[Optional[EpisodeMetrics]] = [None] * num_sessions
        self.losses: List[List[float]] = [[] for _ in range(num_sessions)]
        self.rewards: List[List[float]] = [[] for _ in range(num_sessions)]
        self.names: List[str] = [""] * num_sessions
        self.degraded: Optional[np.ndarray] = None
        self.merged = [False] * len(self.shards)

    def add(self, position: int, result: tuple) -> None:
        """Merge and summarise the shard at ``position`` of the plan.

        ``result`` is the shard worker's ``(manifest, losses, rewards,
        names, degraded)``, with shard-local lists.  The shard's session
        metrics are reduced from its slice of the merged columns: each
        reduction is per session, so they are bitwise those of the whole
        trace.
        """
        shard = self.shards[position]
        manifest, losses, rewards, names, degraded = result
        sessions = slice(shard.start, shard.stop)
        with _obs.span("shard.merge", shard=shard.index):
            _interleave_shard_traces(self, shard, manifest)
            self.metrics[sessions], self.steady[sessions] = summarize_sessions(
                {name: column[:, sessions] for name, column in self.columns.items()}
            )
        self.losses[sessions] = losses
        self.rewards[sessions] = rewards
        self.names[sessions] = names
        if degraded is not None:
            if self.degraded is None:
                self.degraded = np.zeros(self.codes.shape, dtype=bool)
            self.degraded[:, sessions] = degraded
        self.merged[position] = True

    def code_of(self, name: str) -> int:
        """The merged dataset table's code for ``name`` (added if new)."""
        code = self.dataset_codes.get(name)
        if code is None:
            code = self.dataset_codes[name] = len(self.dataset_table)
            self.dataset_table.append(name)
        return code

    def finish(
        self,
    ) -> Tuple[FleetTrace, Tuple[SessionResult, ...], Optional[np.ndarray]]:
        """The merged trace, the session results and the degraded mask."""
        missing = [
            shard.index for shard, done in zip(self.shards, self.merged) if not done
        ]
        if missing:
            raise ShardError(f"shards {missing} returned no result")
        table = self.dataset_table
        rows: Dict[bytes, tuple] = {}
        datasets = []
        for codes in self.codes:
            key = codes.tobytes()
            row = rows.get(key)
            if row is None:
                row = rows[key] = tuple(table[code] for code in codes.tolist())
            datasets.append(row)
        fleet_trace = FleetTrace.from_columns(self.columns, datasets, self.start_index)
        sessions = _package_sessions(
            fleet_trace,
            (self.metrics, self.steady),
            self.losses,
            self.rewards,
            self.names,
        )
        return fleet_trace, sessions, self.degraded


def _interleave_shard_traces(
    merge: _ShardMerge, shard: ShardPlan, manifest: Union[str, Path]
) -> None:
    """Copy one finished shard's trace into ``merge``'s columns, in place.

    The shard's chunk store is opened as a
    :class:`~repro.store.MappedFleetTrace` (manifest and sizes validated),
    each chunk file is read once, and every column block is copied into
    the shard's ``[:, start:stop]`` slice of the merged columns; the
    shard's dataset codes are remapped through a lookup table into the
    merged dataset table.  Shards may arrive in any order; the merged
    trace is bitwise the single-process one.
    """
    sessions = slice(shard.start, shard.stop)
    trace = MappedFleetTrace(manifest)
    try:
        if len(trace) != merge.num_frames:
            raise ShardError(
                f"shard {shard.index} returned {len(trace)} frames, "
                f"expected {merge.num_frames}"
            )
        if merge.start_index is None:
            merge.start_index = trace.start_index
        elif trace.start_index != merge.start_index:
            raise ShardError(
                f"shard frame indices diverged: starts {merge.start_index} "
                f"and {trace.start_index}"
            )
        remap = np.array(
            [merge.code_of(name) for name in trace.dataset_table], dtype=np.int32
        )
        for offset, blocks in trace.iter_chunks():
            frames = slice(offset, offset + len(blocks[DATASET_CODE_COLUMN]))
            for name, column in merge.columns.items():
                column[frames, sessions] = blocks[name]
            merge.codes[frames, sessions] = remap[blocks[DATASET_CODE_COLUMN]]
    finally:
        trace.close()


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


def _run_shards(
    scenario: "FleetScenario",
    assignments: tuple,
    shards: Tuple[ShardPlan, ...],
    span: str,
    warm: bool,
    checkpoint_every: int = 0,
    crash_frames: Optional[Dict[int, int]] = None,
    max_restarts: int = 3,
) -> Tuple[FleetScenarioResult, PoolRunReport]:
    """Run every shard of a plan on the pool and merge them as they arrive.

    Each shard is one ``"scenario-shard"`` pool task of
    :func:`_run_scenario_shard`, keyed for warm reuse by its fingerprint
    when ``warm``, with ``crash_frames[shard.index]`` as its injected
    crash.  The run owns a fresh temporary spool, removed when the run
    ends, whether it succeeded or not.  Returns the run's
    :class:`~repro.runtime.fleet.FleetScenarioResult` and the pool's
    :class:`~repro.runtime.pool.PoolRunReport`.
    """
    total = len(assignments)
    crash_frames = crash_frames or {}
    merge = _ShardMerge(shards, total, scenario.num_frames)
    with _obs.span(span, shards=len(shards), sessions=total):
        start_time = time.perf_counter()
        spool = tempfile.mkdtemp(prefix="repro-spool-")
        try:
            tasks = [
                PoolTask(
                    kind="scenario-shard",
                    args=(
                        scenario,
                        total,
                        shard.index,
                        shard.start,
                        shard.stop,
                        spool,
                        checkpoint_every,
                        crash_frames.get(shard.index),
                    ),
                    fingerprint=scenario_shard_fingerprint(
                        scenario, total, shard.start, shard.stop
                    )
                    if warm
                    else None,
                    shard_index=shard.index,
                )
                for shard in shards
            ]
            # A dying worker (injected ``os._exit`` or a real fault) shows
            # up as an EOF on its pipe; the pool respawns a fresh process
            # into the same slot and resubmits the shard, which resumes
            # from its latest spooled checkpoint, if any.
            report = shared_pool().run_tasks(
                tasks, max_restarts=max_restarts, on_result=merge.add
            )
            fleet_trace, sessions, degraded = merge.finish()
            elapsed_s = time.perf_counter() - start_time
        finally:
            shutil.rmtree(spool, ignore_errors=True)
    result = FleetScenarioResult(
        scenario=scenario,
        assignments=assignments,
        shards=shards,
        sessions=sessions,
        fleet_trace=fleet_trace,
        elapsed_s=elapsed_s,
        degraded=degraded,
    )
    return result, report


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
    global session order — byte-identical to the unsharded run.  Each
    shard's trace, session summaries and histories are merged as soon as
    its worker finishes (:class:`_ShardMerge`), while the others still
    run.  When the plan has a single shard, the run is the in-process one
    and its result is :func:`~repro.runtime.fleet.run_fleet_scenario`'s.

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
    result, _ = _run_shards(
        scenario, assignments, shards, "runtime.run_sharded_scenario", warm=True
    )
    return result


# ---------------------------------------------------------------------------
# Supervised execution: crash detection and checkpoint recovery
# ---------------------------------------------------------------------------


def run_supervised_scenario(
    scenario: Union["FleetScenario", "ScenarioSpec", str],
    num_shards: int,
    num_sessions: int | None = None,
    num_frames: int | None = None,
    checkpoint_every: int = 25,
    crashes: Sequence[WorkerCrash] = (),
    max_restarts: int = 3,
) -> FleetScenarioResult:
    """Run a sharded scenario under a crash-recovering supervisor.

    The fault-tolerant counterpart of :func:`run_sharded_scenario`, on the
    same shard runner and driver: every shard always runs in a worker
    process, rebuilt cold, spools its trace to a chunk store as it runs,
    and checkpoints its state every ``checkpoint_every`` frames.  When a
    worker dies — injected through a
    :class:`~repro.faults.WorkerCrash` event (on the scenario's fault plans
    or passed via ``crashes``) or for real — the supervisor observes the
    dead pipe, respawns a fresh worker into the same pool slot, and
    resubmits the unfinished shard, which resumes from its latest
    checkpoint and replays only the frames after it while the other shards
    keep running.  Because the checkpoints capture every bit of state the
    frame loop reads, the recovered trace is byte-identical to an
    uninterrupted run of the same scenario.  Finished shards are merged as
    they arrive, through the same :class:`_ShardMerge` as
    :func:`run_sharded_scenario`, so a shard that finishes before a
    crashed one is merged while the crashed one replays.  The result is
    the same :class:`~repro.runtime.fleet.FleetScenarioResult`, with its
    ``recovery`` field holding what the supervisor saw.

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

    result, run_report = _run_shards(
        scenario,
        assignments,
        shards,
        "runtime.run_supervised_scenario",
        warm=False,
        checkpoint_every=checkpoint_every,
        crash_frames=crash_by_shard,
        max_restarts=max_restarts,
    )
    recovery_s = (
        0.0
        if run_report.first_death is None
        else time.perf_counter() - run_report.first_death
    )
    recovery = RecoveryReport(
        crashes_detected=run_report.crashes_detected,
        restarts=run_report.restarts,
        recovered_shards=tuple(sorted(run_report.recovered)),
        checkpoint_every=checkpoint_every,
        recovery_s=recovery_s,
    )
    _obs.record_report("recovery.report", recovery)
    return replace(result, recovery=recovery)
