"""Persistent warm-worker pool: long-lived shard processes, reused per episode.

Every sharded entry point before this module paid the same tax on every
call: spawn a fresh ``ProcessPoolExecutor``, re-import the package in each
worker, rebuild every shard's environments and policies from scratch, run
one episode, and tear the whole thing down.  For the repeated-run workloads
the runtime actually serves — sweeps, the generalization matrix, bench
loops, supervised re-runs — that startup dominates wall-clock.

:class:`FleetWorkerPool` keeps a fixed set of worker processes alive across
calls and speaks a four-verb protocol with each of them over a pipe:

``RUN``
    Execute one :class:`PoolTask`.  A task carries an optional *shard
    fingerprint* — a SHA-256 over the canonical description of everything
    the shard's construction reads (scenario codec dict and session
    slice).  A worker pins the environments and policies it built, keyed
    by that fingerprint, in a small LRU; when a
    ``RUN`` arrives whose fingerprint matches a pinned entry the worker
    *restores the entry's pristine state snapshot* and runs the episode on
    the warm objects instead of rebuilding them.
``CHECKPOINT``
    Capture the current ``state_dict`` snapshots of a pinned shard and ship
    them back as a blob (the hook the session-server roadmap item builds
    on).
``RESET``
    Drop every pinned shard (used by tests and by callers that mutated
    global configuration).
``SHUTDOWN``
    Exit the worker loop.

Warm reuse is only sound if no state leaks between episodes.  The design
rule is the same one that makes supervised crash recovery byte-identical
(PR 7): everything a frame reads lives in ``state_dict``.  At build time the
worker captures a deep-copied *pristine* snapshot of every environment and
stateful policy; every warm ``RUN`` restores that snapshot before the
episode loop runs its usual ``reset()``.  RNG bit-generator states, stream
cursors, replay rings and learned weights therefore start bit-identical to
a freshly constructed shard, and the traces are byte-identical to cold-run
and unsharded references (``tests/test_pool.py`` enforces this over
randomized mixed sequences).  Shards whose objects cannot snapshot
(exotic streams without ``state_dict``) are simply rebuilt on every run —
correct first, warm second.

Results cross the process boundary the cheap way: episode traces travel as
``repro-store/v1`` manifest paths (memory-mapped by the merger, PR 8),
while small hot payloads — per-shard summaries, checkpoint blobs — ride in
:mod:`multiprocessing.shared_memory` blocks that the parent copies out and
unlinks immediately.  Only tiny control messages are pickled through the
pipe itself.

Worker death (injected ``os._exit`` crashes or real faults) is detected as
an EOF on the worker's pipe; the supervisor respawns a fresh process *into
the same pool slot* and resubmits the task, which — for supervised shards —
resumes from its spooled checkpoint and replays only the frames after it.

Under the ``fork`` start method the parent resolves every kernel family
(:mod:`repro.kernels`) before it starts a worker, so initial and respawned
workers inherit verified kernels and never run a self-test: a crash costs
its replayed frames, not a fresh process's kernel checks.  Under ``spawn``
or ``forkserver`` each worker re-imports and resolves for itself.

``REPRO_POOL=0`` disables the shared pool: entry points fall back to a
private single-use pool per call (still clamped and wave-scheduled).
"""

from __future__ import annotations

import atexit
import copy
import hashlib
import json
import os
import pickle
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing import connection, get_context
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.kernels as kernels
from repro.errors import ShardError
from repro.obs import bus as _obs

#: Environment variable: ``0`` disables the shared persistent pool.
POOL_ENV = "REPRO_POOL"

#: Pinned shards kept per worker before least-recently-used eviction.
PIN_CAPACITY = 4

#: Result payloads at least this large travel through shared memory.
SHM_THRESHOLD_BYTES = 4096


# ---------------------------------------------------------------------------
# Tasks and fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoolTask:
    """One unit of work for the pool.

    Attributes:
        kind: Dispatch key understood by the worker loop —
            ``"scenario-shard"`` (every sharded fleet, homogeneous cells
            included, since a cell is a one-member scenario),
            ``"supervised-shard"`` or ``"job"``.
        args: Positional payload for the worker-side executor (must be
            picklable; shards carry their scenario plus the session slice
            and spool directory).
        fingerprint: Optional warm-reuse key.  ``None`` disables pinning
            for this task (supervised shards and experiment jobs run
            unpinned).
        shard_index: Optional stable identifier carried into recovery
            reports (the shard's plan index).
    """

    kind: str
    args: tuple
    fingerprint: Optional[str] = None
    shard_index: Optional[int] = None


def _canonical_fingerprint(payload: Any) -> Optional[str]:
    """SHA-256 over canonical JSON, or ``None`` if not serialisable."""
    try:
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        return None
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def scenario_shard_fingerprint(
    scenario, num_sessions: int, start: int, stop: int
) -> Optional[str]:
    """Warm-reuse key of one scenario shard: codec dict plus session slice."""
    try:
        description = scenario.to_dict()
    except Exception:
        return None
    return _canonical_fingerprint(
        {
            "kind": "scenario-shard",
            "scenario": description,
            "num_sessions": int(num_sessions),
            "start": int(start),
            "stop": int(stop),
        }
    )


# ---------------------------------------------------------------------------
# Shared-memory payload exchange
# ---------------------------------------------------------------------------


def _export_payload(obj: Any) -> tuple:
    """Pickle ``obj``; large blobs go to a shared-memory block.

    Returns ``("inline", blob)`` or ``("shm", name, nbytes)``.  The creator
    unregisters the block from its own resource tracker — ownership (and
    the unlink duty) transfers to whichever process imports the payload.
    """
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(blob) < SHM_THRESHOLD_BYTES:
        return ("inline", blob)
    from multiprocessing import shared_memory

    block = shared_memory.SharedMemory(create=True, size=len(blob))
    block.buf[: len(blob)] = blob
    name = block.name
    try:  # hand the unlink duty to the importer (see docstring)
        from multiprocessing import resource_tracker

        resource_tracker.unregister(block._name, "shared_memory")
    except Exception:
        pass
    block.close()
    return ("shm", name, len(blob))


def _import_payload(descriptor: tuple) -> Tuple[Any, int, int]:
    """Load a payload descriptor; returns ``(object, shm_blocks, shm_bytes)``."""
    if descriptor[0] == "inline":
        return pickle.loads(descriptor[1]), 0, 0
    from multiprocessing import shared_memory

    _, name, size = descriptor
    block = shared_memory.SharedMemory(name=name)
    try:
        blob = bytes(block.buf[:size])
    finally:
        block.close()
        try:
            block.unlink()
        except FileNotFoundError:
            pass
    return pickle.loads(blob), 1, size


def _pickle_error(exc: BaseException) -> bytes:
    try:
        return pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return pickle.dumps(
            ShardError(f"{type(exc).__name__}: {exc}"),
            protocol=pickle.HIGHEST_PROTOCOL,
        )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _capture_pristine(pairs: Sequence[tuple]) -> Optional[tuple]:
    """Deep-copied construction-time snapshots of ``(environment, policy)``.

    Returns ``None`` when any object cannot snapshot — the shard then runs
    rebuild-only (correct, never warm).  Policies without ``state_dict``
    are stateless by contract (the same contract supervised checkpoints
    rely on) and snapshot as ``None``.
    """
    try:
        environment_states = [
            copy.deepcopy(environment.state_dict()) for environment, _ in pairs
        ]
        policy_states = [
            copy.deepcopy(policy.state_dict())
            if hasattr(policy, "state_dict")
            else None
            for _, policy in pairs
        ]
    except Exception:
        return None
    return (environment_states, policy_states)


def _restore_pristine(pairs: Sequence[tuple], pristine: tuple) -> bool:
    """Load the pristine snapshots back into live objects (deep-copied)."""
    environment_states, policy_states = pristine
    try:
        for (environment, policy), environment_state, policy_state in zip(
            pairs, environment_states, policy_states
        ):
            environment.load_state_dict(copy.deepcopy(environment_state))
            if policy_state is not None:
                policy.load_state_dict(copy.deepcopy(policy_state))
    except Exception:
        return False
    return True


def _current_state(pairs: Sequence[tuple]) -> tuple:
    """Live (post-episode) snapshots of a pinned shard, for CHECKPOINT."""
    environment_states = [environment.state_dict() for environment, _ in pairs]
    policy_states = [
        policy.state_dict() if hasattr(policy, "state_dict") else None
        for _, policy in pairs
    ]
    return (environment_states, policy_states)


def _execute_task(
    kind: str, fingerprint: Optional[str], args: tuple, pinned: "OrderedDict"
) -> Tuple[Any, Dict[str, Any]]:
    """Run one task inside the worker, with warm pin reuse where keyed."""
    from repro.runtime import shards as shard_mod

    meta: Dict[str, Any] = {"warm": False, "built": False}
    if kind == "scenario-shard":
        scenario, num_sessions, start, stop, spool_dir = args
        entry = pinned.get(fingerprint) if fingerprint else None
        if entry is not None:
            pinned.move_to_end(fingerprint)
            if _restore_pristine(entry["pairs"], entry["pristine"]):
                meta["warm"] = True
            else:
                pinned.pop(fingerprint, None)
                entry = None
        if entry is None:
            session_groups = shard_mod._build_scenario_shard(
                scenario, num_sessions, start, stop
            )
            pairs = [(group.environment, group.policy) for group in session_groups]
            pristine = _capture_pristine(pairs)
            entry = {"groups": session_groups, "pairs": pairs, "pristine": pristine}
            meta["built"] = True
            if fingerprint and pristine is not None:
                pinned[fingerprint] = entry
                while len(pinned) > PIN_CAPACITY:
                    pinned.popitem(last=False)
        result = shard_mod._execute_scenario_shard(
            entry["groups"], scenario.num_frames, start, stop, spool_dir
        )
        return result, meta
    if kind == "supervised-shard":
        # Supervised shards own their lifecycle (checkpoint spool, crash
        # markers, resume-from-checkpoint); they always rebuild so that a
        # respawned worker replays exactly the PR 7 recovery path.
        return shard_mod._run_supervised_shard(*args), meta
    if kind == "job":
        from repro.runtime.engine import execute_job

        return execute_job(args[0]), meta
    raise ShardError(f"unknown pool task kind {kind!r}")


def _worker_main(conn) -> None:
    """Worker process loop: serve RUN/CHECKPOINT/RESET until SHUTDOWN."""
    pinned: "OrderedDict[str, dict]" = OrderedDict()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        command = message[0]
        if command == "SHUTDOWN":
            break
        if command == "RESET":
            pinned.clear()
            conn.send(("ACK",))
            continue
        if command == "CHECKPOINT":
            fingerprint = message[1]
            entry = pinned.get(fingerprint)
            try:
                if entry is None:
                    raise ShardError(
                        f"no shard pinned under fingerprint {fingerprint!r}"
                    )
                conn.send(("CKPT", _export_payload(_current_state(entry["pairs"]))))
            except Exception as exc:  # noqa: BLE001 - forwarded to the parent
                conn.send(("ERR", None, _pickle_error(exc)))
            continue
        if command == "RUN":
            # The observe flag rides in the message (not the environment):
            # long-lived workers forked before REPRO_OBS was set must still
            # collect, and stale registries must not leak between tasks.
            _, index, kind, fingerprint, args, collect = message
            if collect:
                _obs.enable(fresh=True)
            else:
                _obs.disable()
            try:
                result, meta = _execute_task(kind, fingerprint, args, pinned)
            except Exception as exc:  # noqa: BLE001 - forwarded to the parent
                conn.send(("ERR", index, _pickle_error(exc)))
                continue
            meta["pins"] = tuple(pinned.keys())
            if collect:
                meta["obs"] = _obs.registry().snapshot()
                _obs.disable()
            conn.send(("DONE", index, meta, _export_payload(result)))
            continue
        conn.send(("ERR", None, _pickle_error(ShardError(f"bad command {command!r}"))))
    conn.close()


# ---------------------------------------------------------------------------
# Supervisor side
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Parent-side record of one pool slot."""

    __slots__ = ("slot", "process", "conn", "pins", "busy_task", "spawned")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.process = None
        self.conn = None
        self.pins: Tuple[str, ...] = ()
        self.busy_task: Optional[int] = None
        self.spawned = 0

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


@dataclass
class PoolRunReport:
    """Outcome of one :meth:`FleetWorkerPool.run_tasks` call.

    Attributes:
        results: Per-task results, input order.
        warm_hits: Tasks served from a pinned warm shard.
        rebuilds: Tasks that (re)built their shard objects.
        crashes_detected: Worker deaths observed during the run.
        restarts: Task executions resubmitted after a death.
        recovered: ``shard_index`` values (or task positions) that completed
            only after at least one restart.
        first_death: ``perf_counter`` timestamp of the first observed death
            (``None`` for a clean run).
        shm_blocks: Shared-memory payload blocks received.
        shm_bytes: Total bytes received through shared memory.
    """

    results: List[Any] = field(default_factory=list)
    warm_hits: int = 0
    rebuilds: int = 0
    crashes_detected: int = 0
    restarts: int = 0
    recovered: Tuple[int, ...] = ()
    first_death: Optional[float] = None
    shm_blocks: int = 0
    shm_bytes: int = 0


class FleetWorkerPool:
    """A persistent pool of long-lived shard workers.

    Workers are spawned lazily, capped at ``min(max_workers, os.cpu_count())``
    (never oversubscribed — excess tasks queue and run in waves), and stay
    alive between calls so repeated runs of the same shards reuse warm
    pinned environments instead of rebuilding them.

    Args:
        max_workers: Upper bound on live workers.  ``None`` uses
            :func:`repro.runtime.engine.default_worker_count` (the
            ``REPRO_WORKERS`` override or the CPU count), always clamped to
            the host CPU count.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        from repro.runtime.engine import default_worker_count

        cpu_count = os.cpu_count() or 1
        if max_workers is None:
            max_workers = default_worker_count()
        if max_workers < 1:
            raise ShardError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max(1, min(max_workers, cpu_count))
        self._context = get_context()
        self._workers: List[_WorkerHandle] = []
        self._closed = False
        self.lifetime_warm_hits = 0
        self.lifetime_rebuilds = 0
        self.lifetime_respawns = 0
        self.lifetime_tasks = 0
        self.lifetime_shm_blocks = 0
        self.lifetime_shm_bytes = 0

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, handle: _WorkerHandle) -> None:
        if self._context.get_start_method() == "fork":
            # A forked worker inherits the parent's verified kernels, so
            # each family's self-test runs once per parent, not once per
            # (re)spawned worker.  Spawned workers re-import and resolve.
            for family in kernels.FAMILIES:
                getattr(kernels, f"fused_{family}")()
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"repro-pool-{handle.slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.pins = ()
        handle.busy_task = None
        handle.spawned += 1

    def ensure_workers(self, wanted: int) -> None:
        """Grow the pool up to ``min(wanted, max_workers)`` live workers."""
        if self._closed:
            raise ShardError("pool is shut down")
        wanted = max(1, min(wanted, self.max_workers))
        while len(self._workers) < wanted:
            handle = _WorkerHandle(len(self._workers))
            self._spawn(handle)
            self._workers.append(handle)

    def _respawn(self, handle: _WorkerHandle) -> None:
        """Replace a dead worker with a fresh process in the same slot."""
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
        if handle.process is not None:
            handle.process.join(timeout=1.0)
        self._spawn(handle)
        self.lifetime_respawns += 1
        _obs.event("pool.respawn", slot=handle.slot, spawned=handle.spawned)
        _obs.inc("pool.respawns")

    @property
    def num_workers(self) -> int:
        """Live workers currently in the pool."""
        return len(self._workers)

    def shutdown(self) -> None:
        """Terminate every worker and close the pool."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers:
            if handle.conn is not None and handle.alive():
                try:
                    handle.conn.send(("SHUTDOWN",))
                except (OSError, BrokenPipeError):
                    pass
        for handle in self._workers:
            if handle.process is not None:
                handle.process.join(timeout=2.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:
                    pass
        self._workers = []

    # -- control verbs -------------------------------------------------------

    def reset(self) -> None:
        """Drop every pinned shard in every (idle) worker."""
        for handle in self._workers:
            if handle.busy_task is not None:
                raise ShardError("cannot RESET while tasks are in flight")
            if not handle.alive():
                continue
            handle.conn.send(("RESET",))
            message = handle.conn.recv()
            if message[0] != "ACK":
                raise ShardError(f"unexpected RESET reply {message[0]!r}")
            handle.pins = ()

    def checkpoint(self, fingerprint: str) -> Any:
        """Capture the live state snapshots of a pinned shard.

        Returns the ``(environment_states, policy_states)`` tuple the
        worker captured, shipped back as a shared-memory checkpoint blob.
        Raises :class:`~repro.errors.ShardError` when no worker has the
        fingerprint pinned.
        """
        for handle in self._workers:
            if fingerprint not in handle.pins or not handle.alive():
                continue
            if handle.busy_task is not None:
                raise ShardError("cannot CHECKPOINT while the worker is busy")
            handle.conn.send(("CHECKPOINT", fingerprint))
            message = handle.conn.recv()
            if message[0] == "CKPT":
                payload, _, _ = _import_payload(message[1])
                return payload
            if message[0] == "ERR":
                raise pickle.loads(message[2])
            raise ShardError(f"unexpected CHECKPOINT reply {message[0]!r}")
        raise ShardError(f"no worker pins fingerprint {fingerprint!r}")

    # -- execution -----------------------------------------------------------

    def run_tasks(
        self,
        tasks: Sequence[PoolTask],
        max_restarts: int = 3,
        on_result=None,
    ) -> PoolRunReport:
        """Run every task, in waves, with warm affinity and crash recovery.

        Tasks whose fingerprint is pinned on an idle worker are routed to
        that worker; the rest fill free slots in order.  A worker death
        respawns the slot and resubmits the task (up to ``max_restarts``
        times per task) — supervised shards then resume from their spooled
        checkpoints.  ``on_result(position, result)`` fires as each task
        completes (completion order).
        """
        report = PoolRunReport(results=[None] * len(tasks))
        if not tasks:
            return report
        with _obs.span("pool.run_tasks", tasks=len(tasks)):
            self.ensure_workers(len(tasks))
            _obs.gauge("pool.workers", self.num_workers)
            if len(tasks) > self.num_workers:
                # Wave scheduling: more tasks than slots queue and run in
                # waves as workers free up.
                _obs.inc("pool.waves", -(-len(tasks) // self.num_workers))
                _obs.inc("pool.queued_tasks", len(tasks) - self.num_workers)
            else:
                _obs.inc("pool.waves")
            pending: List[int] = list(range(len(tasks)))
            attempts = [0] * len(tasks)
            recovered: set = set()
            done = 0
            try:
                while done < len(tasks):
                    self._dispatch(tasks, pending, attempts, report)
                    done += self._collect(
                        tasks, pending, attempts, max_restarts, recovered,
                        report, on_result,
                    )
            except Exception:
                self._drain(report)
                raise
            report.recovered = tuple(sorted(recovered))
            self.lifetime_warm_hits += report.warm_hits
            self.lifetime_rebuilds += report.rebuilds
            self.lifetime_tasks += len(tasks)
            _obs.record_report("pool.report", report)
        return report

    def _dispatch(
        self,
        tasks: Sequence[PoolTask],
        pending: List[int],
        attempts: List[int],
        report: PoolRunReport,
    ) -> None:
        for handle in self._workers:
            if not pending:
                return
            if handle.busy_task is not None:
                continue
            if not handle.alive():
                self._respawn(handle)
            position = self._pick_task(handle, tasks, pending)
            task = tasks[position]
            collect = _obs.active()
            try:
                handle.conn.send(
                    ("RUN", position, task.kind, task.fingerprint, task.args, collect)
                )
            except (OSError, BrokenPipeError):
                # The worker died while idle; respawn and retry the send.
                report.crashes_detected += 1
                if report.first_death is None:
                    report.first_death = time.perf_counter()
                _obs.event("pool.crash", slot=handle.slot, state="idle")
                _obs.inc("pool.crashes_detected")
                self._respawn(handle)
                handle.conn.send(
                    ("RUN", position, task.kind, task.fingerprint, task.args, collect)
                )
            pending.remove(position)
            handle.busy_task = position
            attempts[position] += 1

    def _pick_task(
        self, handle: _WorkerHandle, tasks: Sequence[PoolTask], pending: List[int]
    ) -> int:
        # First choice: a pending task already pinned warm on this worker.
        for position in pending:
            fingerprint = tasks[position].fingerprint
            if fingerprint is not None and fingerprint in handle.pins:
                return position
        # Otherwise take the first task not pinned on some other idle
        # worker (so affinity survives arbitrary completion order).
        for position in pending:
            fingerprint = tasks[position].fingerprint
            if fingerprint is None:
                return position
            reserved = any(
                other is not handle
                and other.busy_task is None
                and fingerprint in other.pins
                for other in self._workers
            )
            if not reserved:
                return position
        return pending[0]

    def _collect(
        self,
        tasks: Sequence[PoolTask],
        pending: List[int],
        attempts: List[int],
        max_restarts: int,
        recovered: set,
        report: PoolRunReport,
        on_result,
    ) -> int:
        busy = [handle for handle in self._workers if handle.busy_task is not None]
        if not busy:
            return 0
        ready = connection.wait([handle.conn for handle in busy], timeout=60.0)
        by_conn = {handle.conn: handle for handle in busy}
        completed = 0
        if not ready:
            # Nothing readable within the timeout: check for silent deaths.
            ready = [handle.conn for handle in busy if not handle.alive()]
        for conn in ready:
            handle = by_conn[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                message = None
            if message is None:
                self._handle_death(
                    handle, tasks, pending, attempts, max_restarts, report
                )
                continue
            tag = message[0]
            if tag == "DONE":
                _, position, meta, descriptor = message
                result, blocks, nbytes = _import_payload(descriptor)
                report.shm_blocks += blocks
                report.shm_bytes += nbytes
                self.lifetime_shm_blocks += blocks
                self.lifetime_shm_bytes += nbytes
                report.results[position] = result
                fingerprint = tasks[position].fingerprint
                if meta.get("warm"):
                    report.warm_hits += 1
                    if fingerprint is not None:
                        _obs.inc("pool.warm_hits", fingerprint=fingerprint[:12])
                if meta.get("built"):
                    report.rebuilds += 1
                    if fingerprint is not None:
                        _obs.inc("pool.rebuilds", fingerprint=fingerprint[:12])
                if nbytes:
                    _obs.inc("pool.shm_bytes", nbytes)
                    _obs.inc("pool.shm_blocks", blocks)
                worker_obs = meta.get("obs")
                if worker_obs is not None and _obs.active():
                    _obs.registry().merge(
                        worker_obs, origin=f"worker-{handle.slot}"
                    )
                handle.pins = tuple(meta.get("pins", ()))
                if attempts[position] > 1:
                    task = tasks[position]
                    recovered.add(
                        task.shard_index if task.shard_index is not None else position
                    )
                handle.busy_task = None
                completed += 1
                if on_result is not None:
                    on_result(position, result)
            elif tag == "ERR":
                _, _, blob = message
                handle.busy_task = None
                raise pickle.loads(blob)
            else:  # pragma: no cover - protocol violation
                handle.busy_task = None
                raise ShardError(f"unexpected worker reply {tag!r}")
        return completed

    def _handle_death(
        self,
        handle: _WorkerHandle,
        tasks: Sequence[PoolTask],
        pending: List[int],
        attempts: List[int],
        max_restarts: int,
        report: PoolRunReport,
    ) -> None:
        report.crashes_detected += 1
        if report.first_death is None:
            report.first_death = time.perf_counter()
        _obs.event("pool.crash", slot=handle.slot, task=handle.busy_task)
        _obs.inc("pool.crashes_detected")
        position = handle.busy_task
        self._respawn(handle)
        if position is None:
            return
        if attempts[position] > max_restarts:
            raise ShardError(
                f"pool task {position} (shard "
                f"{tasks[position].shard_index}) kept dying after "
                f"{attempts[position] - 1} restart(s); giving up"
            )
        report.restarts += 1
        _obs.inc("pool.restarts")
        pending.insert(0, position)

    def _drain(self, report: Optional[PoolRunReport] = None) -> None:
        """Absorb in-flight replies after an error so the pool stays usable."""
        for handle in self._workers:
            if handle.busy_task is None:
                continue
            try:
                while True:
                    message = handle.conn.recv()
                    if message[0] in ("DONE", "ERR"):
                        if message[0] == "DONE":
                            # Discard the payload (and free its shm block),
                            # still accounting for the transport it used.
                            _, blocks, nbytes = _import_payload(message[3])
                            self.lifetime_shm_blocks += blocks
                            self.lifetime_shm_bytes += nbytes
                            if report is not None:
                                report.shm_blocks += blocks
                                report.shm_bytes += nbytes
                            handle.pins = tuple(message[2].get("pins", ()))
                        break
            except (EOFError, OSError):
                self._respawn(handle)
            handle.busy_task = None

    # -- stats ---------------------------------------------------------------

    @property
    def stats(self) -> Dict[str, int]:
        """Lifetime counters: tasks, warm hits, rebuilds, respawns, workers, shm."""
        return {
            "tasks": self.lifetime_tasks,
            "warm_hits": self.lifetime_warm_hits,
            "rebuilds": self.lifetime_rebuilds,
            "respawns": self.lifetime_respawns,
            "workers": self.num_workers,
            "max_workers": self.max_workers,
            "shm_blocks": self.lifetime_shm_blocks,
            "shm_bytes": self.lifetime_shm_bytes,
        }


# ---------------------------------------------------------------------------
# The process-wide shared pool
# ---------------------------------------------------------------------------

_shared_pool: Optional[FleetWorkerPool] = None


def pool_enabled() -> bool:
    """Whether the shared persistent pool is enabled (``REPRO_POOL`` != 0)."""
    return os.environ.get(POOL_ENV, "1").strip() != "0"


def shared_pool() -> FleetWorkerPool:
    """The process-wide persistent pool, created on first use."""
    global _shared_pool
    if _shared_pool is None or _shared_pool._closed:
        _shared_pool = FleetWorkerPool()
        atexit.register(shutdown_shared_pool)
    return _shared_pool


def shutdown_shared_pool() -> None:
    """Tear down the shared pool (registered atexit; safe to call twice)."""
    global _shared_pool
    if _shared_pool is not None:
        _shared_pool.shutdown()
        _shared_pool = None


def acquire_pool(wanted_workers: int) -> Tuple[FleetWorkerPool, bool]:
    """The pool a sharded entry point should run on.

    Returns ``(pool, owned)``: the shared persistent pool (``owned=False``)
    when enabled, else a private single-use pool the caller must shut down
    (``owned=True``).  Either way the pool is clamped to the CPU count and
    wave-schedules excess tasks.
    """
    if pool_enabled():
        pool = shared_pool()
        pool.ensure_workers(wanted_workers)
        return pool, False
    return FleetWorkerPool(max_workers=max(1, wanted_workers)), True
