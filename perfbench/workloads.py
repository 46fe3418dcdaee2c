"""The four benchmark workloads, their trace digests and simulated outcomes.

Each workload builds its inputs from the benchmark seed, hands the program
only the built objects, and exposes one timed call (:meth:`episode`) that
runs a whole episode through the program's public entry point.  The client
is closed-loop: one process runs episodes back to back, and no workload
uses more worker processes than the host has cores (the pool clamps to
``os.cpu_count()``; the sharded workloads ask for 2).

Why these four (each stresses layers the others bypass):

* ``lotus-session`` -- scalar Lotus online sessions on the paper's reference
  cell; ``rl`` and ``core`` do the work, no fleet kernels, no ``runtime``.
* ``fleet-default`` -- one wide 256-session ``default``-governor group;
  the batched ``workload``/``detection``/``hardware``/``governors`` kernels
  and the in-memory trace sink do the work; no ``rl``, no ``runtime``.
* ``sharded-mixed`` -- the registry ``mixed-edge-fleet`` at 2 shards on the
  shared warm pool: many narrow groups, per-session scalar Lotus members in
  the workers, pristine restore, shm transport, spooled store, mmap merge.
* ``supervised-faulted`` -- governor-only ``mixed-edge-fleet`` members with
  a fixed fault plan under the crash-recovering supervisor: cold shard
  builds, checkpoints, crash, respawn, restore and fault injection.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.analysis.experiments import ExperimentSetting, make_environment, make_policy
from repro.core.training import OnlineSession
from repro.env.fleet import _FRAME_RESULT_ARRAY_FIELDS, run_fleet_episode
from repro.faults import FaultPlan, SensorDropout, ThrottlingStorm, WorkerCrash
from repro.runtime.fleet import make_fleet_environment, make_fleet_policy
from repro.runtime.pool import shutdown_shared_pool
from repro.runtime.shards import run_sharded_scenario, run_supervised_scenario
from repro.scenarios import FleetMember, FleetScenario, build_scenario

#: The seed whose trace digests are pinned in ``digests.json``.
DEFAULT_SEED = 0

#: Benchmark seed ``s`` maps to program seeds ``s * SEED_STRIDE + ...`` so
#: that two benchmark seeds never share a session seed (fleet session ``i``
#: runs seed ``base + i``).
SEED_STRIDE = 1000

#: Shards of the pool workloads (the pool clamps workers to the core count).
SHARDS = 2


# ---------------------------------------------------------------------------
# Trace digest and simulated outcomes
# ---------------------------------------------------------------------------


def trace_columns(trace) -> Dict[str, np.ndarray]:
    """``(frames, sessions)`` columns of a fleet trace or a scalar trace."""
    if hasattr(trace, "column_window"):
        return {name: trace.column_window(name) for name in _FRAME_RESULT_ARRAY_FIELDS}
    records = list(trace)
    return {
        name: np.asarray([[getattr(record, name)] for record in records])
        for name in _FRAME_RESULT_ARRAY_FIELDS
    }


def trace_datasets(trace) -> List[str]:
    if hasattr(trace, "datasets_window"):
        return ["\t".join(row) for row in trace.datasets_window()]
    return [record.dataset for record in trace]


def trace_digest(traces) -> str:
    """SHA-256 over the int64 bit view of every column, plus datasets.

    The same view :func:`repro.store.columnar.fleet_traces_bitwise_equal`
    compares: 8-byte columns hash as int64 bits (so ``-0.0`` and NaN
    payloads count), narrower ones hash their raw bytes.
    """
    digest = hashlib.sha256()
    for trace in traces:
        columns = trace_columns(trace)
        for name in _FRAME_RESULT_ARRAY_FIELDS:
            column = np.ascontiguousarray(columns[name])
            digest.update(f"{name}:{column.dtype.str}:{column.shape}".encode())
            if column.dtype.itemsize == 8:
                column = column.view(np.int64)
            digest.update(column.tobytes())
        digest.update("\n".join(trace_datasets(trace)).encode())
    return digest.hexdigest()


def sim_outcomes(traces) -> Dict[str, float]:
    """Simulated-time outcomes the paper reports, pooled over the traces."""
    per_session_std: List[np.ndarray] = []
    latencies: List[np.ndarray] = []
    met = throttled = cells = 0
    cpu_max = gpu_max = -np.inf
    for trace in traces:
        columns = trace_columns(trace)
        latency = columns["total_latency_ms"]
        per_session_std.append(latency.std(axis=0))
        latencies.append(latency.ravel())
        met += int(columns["met_constraint"].sum())
        throttled += int((columns["cpu_throttled"] | columns["gpu_throttled"]).sum())
        cells += latency.size
        cpu_max = max(cpu_max, float(columns["cpu_temperature_c"].max()))
        gpu_max = max(gpu_max, float(columns["gpu_temperature_c"].max()))
    return {
        "sim_latency_std_ms": float(np.concatenate(per_session_std).mean()),
        "sim_latency_p99_ms": float(np.percentile(np.concatenate(latencies), 99)),
        "sim_constraint_met_frac": met / cells,
        "sim_cpu_temp_max_c": cpu_max,
        "sim_gpu_temp_max_c": gpu_max,
        "sim_unthrottled_frac": 1.0 - throttled / cells,
    }


def proposals_per_frame(traces) -> float:
    total = cells = 0
    for trace in traces:
        proposals = trace_columns(trace)["num_proposals"]
        total += int(proposals.sum())
        cells += proposals.size
    return total / cells


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Size:
    sessions: int
    frames: int


class Workload:
    """One workload: untimed :meth:`prepare`, timed :meth:`episode`.

    ``variants`` distinct inputs are cycled through, episode by episode;
    the simulated outcomes pool all of them.
    """

    name = ""
    variants = 1
    uses_pool = False
    #: How far the workload's host times follow the host-speed factor of
    #: ``hostspeed.py``: they are divided by ``factor ** host_sensitivity``.
    #: Fitted (log time against log factor, over every timed episode of
    #: four ten-run sets) on a shared 2-vCPU VM; see README.md.
    host_sensitivity = 1.0

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size
        self._next = 0
        self._prepared: Callable[[], object] | None = None

    @property
    def session_frames(self) -> int:
        """Session-frames simulated by one episode."""
        return self.size.sessions * self.size.frames

    def prepare(self, variant: int | None = None) -> int:
        """Build an episode's inputs (untimed); returns its variant.

        Without ``variant`` the workload cycles through its variants.
        """
        if variant is None:
            variant = self._next
            self._next = (self._next + 1) % self.variants
        self._prepared = self._build(variant)
        return variant

    def episode(self):
        """Run the prepared episode through the program; returns its output."""
        run, self._prepared = self._prepared, None
        return run()

    def traces(self, output) -> list:
        return [output.fleet_trace]

    def cold_reset(self) -> None:
        """Drop warm state so the next episode starts cold."""
        if self.uses_pool:
            shutdown_shared_pool()

    def close(self) -> None:
        if self.uses_pool:
            shutdown_shared_pool()

    def _build(self, variant: int) -> Callable[[], object]:
        raise NotImplementedError


class LotusSession(Workload):
    """Scalar Lotus online sessions on the ``ExperimentSetting()`` cell."""

    name = "lotus-session"
    # One 500-frame session has ~5 latencies beyond its p99; cycling sixteen
    # seeds pools ~80, which keeps the simulated outcomes steady across
    # benchmark seeds.
    variants = 16
    host_sensitivity = 0.7

    def _build(self, variant):
        setting = ExperimentSetting(
            num_frames=self.size.frames, seed=self.seed * SEED_STRIDE + variant
        )
        environment = make_environment(setting)
        policy = make_policy("lotus", environment, setting.num_frames, seed=setting.seed)
        session = OnlineSession(environment, policy)
        return lambda: session.run(setting.num_frames)

    def traces(self, output):
        return [output.trace]


class FleetDefault(Workload):
    """One homogeneous ``default``-governor cell as one wide fleet group."""

    name = "fleet-default"

    def _build(self, variant):
        setting = ExperimentSetting(
            num_frames=self.size.frames, seed=self.seed * SEED_STRIDE
        )
        environment = make_fleet_environment(setting, self.size.sessions)
        policy = make_fleet_policy("default", environment, setting.num_frames, seed=setting.seed)
        return lambda: run_fleet_episode(environment, policy, setting.num_frames)

    def traces(self, output):
        return [output]


def _reseed(scenario: FleetScenario, seed: int, frames: int) -> FleetScenario:
    return scenario.with_overrides(
        members=tuple(
            FleetMember(
                member.spec.with_overrides(
                    seed=member.spec.seed + seed * SEED_STRIDE, num_frames=frames
                ),
                member.weight,
            )
            for member in scenario.members
        )
    )


class ShardedMixed(Workload):
    """The registry ``mixed-edge-fleet`` at 2 shards on the shared warm pool."""

    name = "sharded-mixed"
    uses_pool = True

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.scenario = _reseed(build_scenario("mixed-edge-fleet"), seed, size.frames)

    def _build(self, variant):
        return lambda: run_sharded_scenario(
            self.scenario, SHARDS, num_sessions=self.size.sessions
        )


def fault_plan(frames: int) -> FaultPlan:
    """The fixed fault plan of ``supervised-faulted`` (frames scale with size)."""
    return FaultPlan(
        events=(
            SensorDropout(start_frame=frames // 6, num_frames=frames // 6, probability=0.5),
            ThrottlingStorm(start_frame=frames // 2, num_frames=frames // 12),
            WorkerCrash(frame=(3 * frames) // 4, shard=1),
        ),
        seed=7,
        name="perfbench",
    )


class SupervisedFaulted(Workload):
    """Governor-only ``mixed-edge-fleet`` members, faulted and supervised."""

    name = "supervised-faulted"
    uses_pool = True
    host_sensitivity = 0.8

    def __init__(self, seed, size):
        super().__init__(seed, size)
        base = build_scenario("mixed-edge-fleet")
        governed = FleetScenario(
            name="mixed-edge-fleet-governed",
            members=tuple(
                member
                for member in base.members
                if member.spec.method in ("default", "performance", "powersave", "fixed")
            ),
            description="governor-only members of mixed-edge-fleet",
        )
        self.scenario = _reseed(governed, seed, size.frames).with_faults(
            fault_plan(size.frames)
        )
        # Five periodic checkpoints per shard; the crash lands between two.
        self.checkpoint_every = max(1, size.frames // 6)

    def _build(self, variant):
        return lambda: run_supervised_scenario(
            self.scenario,
            SHARDS,
            num_sessions=self.size.sessions,
            checkpoint_every=self.checkpoint_every,
        )


WORKLOADS = {
    cls.name: cls for cls in (LotusSession, FleetDefault, ShardedMixed, SupervisedFaulted)
}

#: Benchmark sizes, and the tiny sizes the self-test uses.  Episodes are
#: kept well under a second: a shared host's quiet spells are short, and the
#: best episode of a run is steadier the more episodes a run holds.
SIZES = {
    "full": {
        "lotus-session": Size(sessions=1, frames=500),
        "fleet-default": Size(sessions=256, frames=300),
        "sharded-mixed": Size(sessions=22, frames=60),
        "supervised-faulted": Size(sessions=128, frames=120),
    },
    "tiny": {
        "lotus-session": Size(sessions=1, frames=40),
        "fleet-default": Size(sessions=16, frames=40),
        "sharded-mixed": Size(sessions=8, frames=40),
        "supervised-faulted": Size(sessions=12, frames=48),
    },
}


def build_workload(name: str, seed: int, size: str = "full") -> Workload:
    return WORKLOADS[name](seed, SIZES[size][name])
