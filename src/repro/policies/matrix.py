"""Cross-scenario generalization matrix.

Runs M trained (frozen) policies against N registry scenarios through the
cached :class:`~repro.runtime.engine.ExperimentRuntime` and collects a
transfer grid: how well does a policy trained on scenario A hold up on
scenarios B, C, D it never saw?

Every cell is an ordinary cacheable experiment job whose method is the
``policy:<full content id>`` string — the checkpoint hash therefore rides
into the job fingerprint, so re-rendering an unchanged matrix is a 100 %
cache hit, and retraining a policy (new id) automatically invalidates
exactly its own row.  Cells whose device geometry the policy cannot drive
(different frequency-level counts) are marked incompatible instead of run.

Rendering lives in :func:`repro.analysis.tables.generalization_matrix_table`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PolicyError, ScenarioError
from repro.policies.frozen import POLICY_METHOD_PREFIX
from repro.policies.store import PolicyRecord, PolicyStore


@dataclass(frozen=True)
class MatrixCell:
    """One (policy, scenario) cell of the generalization matrix.

    Attributes:
        policy_id: Full content id of the row's policy.
        scenario: Name of the column's scenario.
        compatible: Whether the policy's action-space geometry fits the
            scenario's device (incompatible cells are skipped, not failed).
        reason: Human-readable skip reason for incompatible cells.
        session: The evaluation :class:`~repro.core.training.SessionResult`
            (``None`` for incompatible cells).
        metrics: The session's whole-episode
            :class:`~repro.env.metrics.EpisodeMetrics`, captured at build
            time so renderers never have to touch the session's trace.
    """

    policy_id: str
    scenario: str
    compatible: bool
    reason: str = ""
    session: Optional[object] = None
    metrics: Optional[object] = None


@dataclass(frozen=True)
class GeneralizationMatrix:
    """The completed transfer grid plus its execution bookkeeping.

    Attributes:
        policies: Zoo records of the evaluated policies (row order).
        scenarios: The evaluated scenario specs (column order).
        cells: Every cell, rows-major.
        num_frames: The episode-length override every cell ran at, or
            ``None`` when each scenario used its own length.
        cache_hits / executed: Runtime bookkeeping of the run (a re-render
            of an unchanged matrix reports ``executed == 0``).
    """

    policies: Tuple[PolicyRecord, ...]
    scenarios: Tuple[object, ...]
    cells: Tuple[MatrixCell, ...]
    num_frames: Optional[int]
    cache_hits: int
    executed: int

    def cell(self, policy_id: str, scenario: str) -> MatrixCell:
        """Look one cell up by full policy id and scenario name."""
        for cell in self.cells:
            if cell.policy_id == policy_id and cell.scenario == scenario:
                return cell
        raise PolicyError(f"no matrix cell for ({policy_id[:12]}, {scenario})")


def _scenario_specs(scenarios: Sequence | None) -> List:
    """Resolve the scenario columns: names/specs in, scalar specs out."""
    from repro.scenarios import FleetScenario, ScenarioSpec, available_scenarios, build_scenario

    if scenarios is None:
        resolved = [build_scenario(name) for name in available_scenarios()]
        return [s for s in resolved if isinstance(s, ScenarioSpec)]
    specs = []
    for entry in scenarios:
        spec = build_scenario(entry) if isinstance(entry, str) else entry
        if isinstance(spec, FleetScenario):
            raise ScenarioError(
                f"fleet scenario {spec.name!r} cannot be an eval-matrix column; "
                f"evaluate against its member specs instead"
            )
        if not isinstance(spec, ScenarioSpec):
            raise ScenarioError(
                f"expected a ScenarioSpec or registered name, got {type(spec).__name__}"
            )
        specs.append(spec)
    return specs


def run_generalization_matrix(
    policy_ids: Sequence[str],
    scenarios: Sequence | None = None,
    num_frames: int | None = None,
    runtime=None,
    store: PolicyStore | None = None,
    progress=None,
) -> GeneralizationMatrix:
    """Evaluate M stored policies across N scenarios on the cached runtime.

    Args:
        policy_ids: Zoo ids (full or unique prefixes) of the row policies.
        scenarios: Scenario names/specs for the columns; ``None`` evaluates
            against every scalar scenario in the registry.
        num_frames: Episode-length override for every cell (default: each
            scenario's own length).
        runtime: A configured :class:`~repro.runtime.engine.ExperimentRuntime`;
            ``None`` builds a serial runtime with the default result cache.
        store: Policy store holding the rows (default store otherwise).
        progress: Forwarded to :meth:`ExperimentRuntime.run_jobs`.
    """
    from repro.hardware.devices.registry import build_device
    from repro.runtime.cache import ResultCache
    from repro.runtime.engine import ExperimentRuntime
    from repro.runtime.job import ExperimentJob

    if not policy_ids:
        raise PolicyError("eval-matrix needs at least one policy id")
    store = store if store is not None else PolicyStore()
    records = [store.record(store.resolve(pid)) for pid in policy_ids]
    specs = _scenario_specs(scenarios)
    if not specs:
        raise ScenarioError("eval-matrix needs at least one scalar scenario")
    if runtime is None:
        runtime = ExperimentRuntime(max_workers=1, cache=ResultCache())

    device_levels: Dict[str, Tuple[int, int]] = {}
    for spec in specs:
        if spec.device not in device_levels:
            device = build_device(spec.device)
            device_levels[spec.device] = (
                int(device.cpu.num_levels),
                int(device.gpu.num_levels),
            )

    jobs: List[ExperimentJob] = []
    cell_shapes: List[Tuple[PolicyRecord, object, bool, str]] = []
    frames = num_frames
    for record in records:
        geometry = record.metadata.get("geometry")
        if not geometry:
            # A store entry without metadata (interrupted save, hand-copied
            # shard) still carries its geometry inside the verified
            # checkpoint itself — never guess it.
            geometry = store.load_checkpoint(record.policy_id).geometry
        try:
            policy_levels = (int(geometry["cpu_levels"]), int(geometry["gpu_levels"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise PolicyError(
                f"policy {record.policy_id[:12]} has no usable geometry: {exc}"
            ) from exc
        for spec in specs:
            if device_levels[spec.device] != policy_levels:
                cell_shapes.append(
                    (
                        record,
                        spec,
                        False,
                        f"device {spec.device!r} exposes "
                        f"{device_levels[spec.device][0]}x{device_levels[spec.device][1]} "
                        f"levels, policy expects {policy_levels[0]}x{policy_levels[1]}",
                    )
                )
                continue
            setting = spec.setting()
            if frames is not None:
                setting = setting.with_overrides(num_frames=frames)
            jobs.append(
                ExperimentJob(
                    setting=setting,
                    method=f"{POLICY_METHOD_PREFIX}{record.policy_id}",
                    ambient=spec.ambient,
                    policy_dir=str(store.root),
                )
            )
            cell_shapes.append((record, spec, True, ""))

    results = runtime.run_jobs(jobs, progress=progress)

    cells: List[MatrixCell] = []
    cursor = 0
    for record, spec, compatible, reason in cell_shapes:
        session = None
        if compatible:
            session = results[cursor]
            cursor += 1
        cells.append(
            MatrixCell(
                policy_id=record.policy_id,
                scenario=spec.name,
                compatible=compatible,
                reason=reason,
                session=session,
                metrics=None if session is None else session.metrics,
            )
        )
    report = runtime.last_report
    return GeneralizationMatrix(
        policies=tuple(records),
        scenarios=tuple(specs),
        cells=tuple(cells),
        num_frames=frames,
        cache_hits=report.cache_hits,
        executed=report.executed,
    )
