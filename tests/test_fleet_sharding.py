"""Bit-exactness harness for the sharded multi-core fleet engine.

The contract of :mod:`repro.runtime.shards` is absolute: splitting a fleet
across worker processes and re-interleaving the per-shard traces produces a
:class:`~repro.env.fleet.FleetTrace` **byte-identical** to the
single-process run — for every registered scenario, any shard count
(including more shards than sessions), heterogeneous grouped populations,
and homogeneous cells.  Floating-point columns are compared through their
int64 bit patterns, so even a sign-of-zero or ULP difference fails.

The planner's one structural rule is also enforced here: a maximal run of
consecutive same-member ``lotus-fleet`` sessions (one shared network) is an
atom no shard boundary may cut, and the homogeneous ``lotus-fleet`` cell
refuses ``num_shards > 1`` with a typed :class:`~repro.errors.ShardError`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentSetting
from repro.env.fleet import _FRAME_RESULT_ARRAY_FIELDS
from repro.errors import ShardError
from repro.faults import FaultPlan, SensorDropout, WorkerCrash
from repro.runtime.fleet import (
    FleetScenarioResult,
    ShardPlan,
    _resolve_scenario,
    run_fleet,
    run_fleet_scenario,
)
from repro.runtime.shards import (
    _build_scenario_shard,
    _execute_scenario_shard,
    _forbidden_cuts,
    _ShardMerge,
    plan_shards,
    run_sharded_fleet,
    run_sharded_scenario,
    run_supervised_scenario,
)
from repro.scenarios import (
    FleetMember,
    FleetScenario,
    ScenarioSpec,
    available_scenarios,
    build_scenario,
)
from repro.store import MappedFleetTrace

from tests.test_fleet_equivalence import scenario_result_digest

#: Short episodes keep the full-registry sweep fast; byte-identity either
#: holds from frame zero or not at all.
FRAMES = 6


def assert_traces_identical(trace_a, trace_b) -> None:
    """Bitwise trace equality: every frame, every column, every session.

    The passing case runs entirely over blocked column views
    (:func:`repro.store.fleet_traces_bitwise_equal`) — linear in the trace
    and free of per-frame object rebuilding — so the full-registry sweep
    stays cheap as fleets grow.  Only on a mismatch does the harness drop
    into the frame-by-frame loop to name the first offending column.
    """
    from repro.store import fleet_traces_bitwise_equal

    if fleet_traces_bitwise_equal(trace_a, trace_b):
        return
    frames_a, frames_b = list(trace_a), list(trace_b)
    assert len(frames_a) == len(frames_b)
    assert trace_a.num_sessions == trace_b.num_sessions
    for fa, fb in zip(frames_a, frames_b):
        assert fa.index == fb.index
        assert fa.datasets == fb.datasets
        for field in _FRAME_RESULT_ARRAY_FIELDS:
            a = np.asarray(getattr(fa, field))
            b = np.asarray(getattr(fb, field))
            if a.dtype.kind == "f":
                assert np.array_equal(
                    a.view(np.int64), b.view(np.int64)
                ), f"frame {fa.index}: {field} differs bitwise"
            else:
                assert np.array_equal(a, b), f"frame {fa.index}: {field} differs"
    pytest.fail("column-view comparison reported a mismatch the frame loop missed")


def _hetero_scenario(frames: int = FRAMES) -> FleetScenario:
    """Mixed devices/detectors/methods, including a lotus-fleet atom."""
    return FleetScenario(
        name="sharding-hetero",
        members=(
            FleetMember(
                ScenarioSpec(
                    name="orin-default", method="default", num_frames=frames
                ),
                weight=2.0,
            ),
            FleetMember(
                ScenarioSpec(
                    name="pi-lotus",
                    device="raspberry-pi-5",
                    method="lotus",
                    num_frames=frames,
                ),
                weight=2.0,
            ),
            FleetMember(
                ScenarioSpec(
                    name="orin-yolo-fleet",
                    detector="yolo_v5",
                    method="lotus-fleet",
                    num_frames=frames,
                    num_sessions=3,
                ),
                weight=3.0,
            ),
            FleetMember(
                ScenarioSpec(
                    name="mi11-performance",
                    device="mi11-lite",
                    method="performance",
                    num_frames=frames,
                ),
                weight=1.0,
            ),
        ),
        description="sharding test population",
    )


class TestScenarioSharding:
    @pytest.mark.parametrize("name", available_scenarios())
    def test_every_registry_scenario_is_byte_identical(self, name):
        reference = run_fleet_scenario(build_scenario(name), num_frames=FRAMES)
        sharded = run_sharded_scenario(name, 2, num_frames=FRAMES)
        assert_traces_identical(sharded.fleet_trace, reference.fleet_trace)

    def test_heterogeneous_scenario_across_shard_counts(self):
        scenario = _hetero_scenario()
        reference = run_fleet_scenario(scenario, num_sessions=16)
        for shards in (1, 3, 5):
            sharded = run_sharded_scenario(scenario, shards, num_sessions=16)
            assert sharded.num_shards <= shards
            assert_traces_identical(sharded.fleet_trace, reference.fleet_trace)

    def test_session_results_match_the_unsharded_run(self):
        scenario = _hetero_scenario()
        reference = run_fleet_scenario(scenario, num_sessions=16)
        sharded = run_sharded_scenario(scenario, 4, num_sessions=16)
        assert len(sharded.sessions) == len(reference.sessions) == 16
        for mine, theirs in zip(sharded.sessions, reference.sessions):
            assert mine.policy_name == theirs.policy_name
            assert list(mine.trace) == list(theirs.trace)
            assert mine.losses == theirs.losses
            assert mine.rewards == theirs.rewards

    def test_interleave_restores_global_session_order(self):
        """Per-session traces come back in assignment order, not shard order."""
        scenario = _hetero_scenario()
        reference = run_fleet_scenario(scenario, num_sessions=12)
        sharded = run_sharded_scenario(scenario, 3, num_sessions=12)
        for index in range(12):
            assert list(sharded.fleet_trace.session_trace(index)) == list(
                reference.fleet_trace.session_trace(index)
            )

    def test_lotus_fleet_scenario_degrades_to_one_shard(self):
        """A fleet that is one big lotus-fleet atom cannot be divided — the
        planner returns a single shard instead of erroring, and that shard
        is the in-process run with its result type."""
        spec = ScenarioSpec(
            name="one-atom",
            method="lotus-fleet",
            num_sessions=6,
            num_frames=FRAMES,
        )
        reference = run_fleet_scenario(spec)
        sharded = run_sharded_scenario(spec, 4)
        assert sharded.num_shards == 1
        assert type(sharded) is type(reference) is FleetScenarioResult
        assert sharded.shards == reference.shards == (ShardPlan(0, 0, 6),)
        assert sharded.assignments == reference.assignments
        for mine, theirs in zip(sharded.sessions, reference.sessions):
            assert list(mine.trace) == list(theirs.trace)
            assert mine.metrics == theirs.metrics
        assert_traces_identical(sharded.fleet_trace, reference.fleet_trace)


class TestMergeOnArrival:
    """Shards merge as they arrive, in whichever order that is."""

    PLAN = FaultPlan(
        events=(SensorDropout(start_frame=3, num_frames=6, probability=0.6),), seed=2
    )

    def _scenario(self):
        # At 8 sessions, shard 0 is all KITTI and shard 1 mostly VisDrone:
        # their stores hold different dataset tables.
        return build_scenario("mixed-edge-fleet").with_faults(self.PLAN)

    def test_shards_merge_in_reverse_order(self, tmp_path):
        scenario = _resolve_scenario(self._scenario(), 24)
        reference = run_fleet_scenario(scenario, num_sessions=8)
        shards = plan_shards(scenario.session_assignments(8), 2)
        results = [
            _execute_scenario_shard(
                _build_scenario_shard(scenario, 8, shard.start, shard.stop),
                24,
                shard.start,
                shard.stop,
                str(tmp_path),
            )
            for shard in shards
        ]
        tables = [MappedFleetTrace(result[0]).dataset_table for result in results]
        assert tables[0] != tables[1]
        merge = _ShardMerge(shards, 8, 24)
        for position in (1, 0):
            merge.add(position, results[position])
        fleet_trace, sessions, degraded = merge.finish()
        assert_traces_identical(fleet_trace, reference.fleet_trace)
        assert np.array_equal(degraded, reference.degraded)
        for mine, theirs in zip(sessions, reference.sessions):
            assert mine.metrics == theirs.metrics
            assert mine.steady_metrics == theirs.steady_metrics
            assert mine.policy_name == theirs.policy_name
            assert mine.losses == theirs.losses

    def test_a_crashed_first_shard_matches_the_unsharded_run(self):
        """With shard 0 replaying from frame 0, shard 1 usually arrives first."""
        scenario = self._scenario()
        reference = run_fleet_scenario(scenario, num_sessions=8, num_frames=24)
        recovered = run_supervised_scenario(
            scenario,
            2,
            num_sessions=8,
            num_frames=24,
            checkpoint_every=0,
            crashes=(WorkerCrash(frame=23, shard=0),),
        )
        assert recovered.recovery.recovered_shards == (0,)
        assert scenario_result_digest(recovered) == scenario_result_digest(reference)


class TestCellSharding:
    @pytest.mark.parametrize("shards", (1, 2, 7))
    def test_shard_counts_including_more_than_sessions(self, shards):
        setting = ExperimentSetting(num_frames=10, seed=4)
        reference = run_fleet(setting, "lotus", 5)
        sharded = run_sharded_fleet(setting, "lotus", 5, shards)
        assert_traces_identical(sharded.fleet_trace, reference.fleet_trace)
        assert sharded.policy_name == reference.policy_name
        for mine, theirs in zip(sharded.sessions, reference.sessions):
            assert mine.losses == theirs.losses
            assert mine.rewards == theirs.rewards

    def test_governor_cell_matches_across_shards(self):
        setting = ExperimentSetting(num_frames=8, seed=0)
        reference = run_fleet(setting, "default", 9)
        sharded = run_sharded_fleet(setting, "default", 9, 3)
        assert_traces_identical(sharded.fleet_trace, reference.fleet_trace)

    def test_lotus_fleet_cell_refuses_multiple_shards(self):
        setting = ExperimentSetting(num_frames=8, seed=0)
        with pytest.raises(ShardError, match="cannot be split across shards"):
            run_sharded_fleet(setting, "lotus-fleet", 6, 2)
        # A single shard is the degenerate case and stays allowed.
        result = run_sharded_fleet(setting, "lotus-fleet", 3, 1)
        reference = run_fleet(setting, "lotus-fleet", 3)
        assert_traces_identical(result.fleet_trace, reference.fleet_trace)


class TestShardPlanner:
    def _assignments(self, num_sessions: int = 16):
        return _hetero_scenario().session_assignments(num_sessions)

    def test_plans_are_a_contiguous_partition(self):
        assignments = self._assignments()
        for requested in range(1, 9):
            plans = plan_shards(assignments, requested)
            assert 1 <= len(plans) <= requested
            assert plans[0].start == 0
            assert plans[-1].stop == len(assignments)
            for before, after in zip(plans[:-1], plans[1:]):
                assert before.stop == after.start
            assert all(plan.num_sessions > 0 for plan in plans)

    def test_lotus_fleet_atoms_are_never_cut(self):
        assignments = self._assignments()
        forbidden = _forbidden_cuts(assignments)
        assert any(forbidden), "test population must contain an atom"
        for requested in range(1, 9):
            for plan in plan_shards(assignments, requested)[:-1]:
                # A shard boundary after global session `stop - 1` must not
                # land on a forbidden cut.
                assert not forbidden[plan.stop - 1]

    def test_forbidden_cuts_pin_whole_runs(self):
        """Consecutive same-member lotus-fleet sessions form one atom even
        when another group's sessions are interleaved between them."""
        scenario = FleetScenario(
            name="interleaved-atom",
            members=(
                FleetMember(
                    ScenarioSpec(
                        name="fleet-member",
                        method="lotus-fleet",
                        num_frames=FRAMES,
                        num_sessions=2,
                    ),
                    weight=1.0,
                ),
                FleetMember(
                    ScenarioSpec(
                        name="pi-default",
                        device="raspberry-pi-5",
                        method="default",
                        num_frames=FRAMES,
                    ),
                    weight=1.0,
                ),
            ),
        )
        assignments = scenario.session_assignments(8)
        forbidden = _forbidden_cuts(assignments)
        fleet_positions = [
            i
            for i, a in enumerate(assignments)
            if a.spec.method == "lotus-fleet"
        ]
        # Every boundary spanned by the run of fleet sessions is pinned.
        for j in range(fleet_positions[0], fleet_positions[-1]):
            assert forbidden[j]

    def test_shard_errors(self):
        assignments = self._assignments(8)
        with pytest.raises(ShardError, match="num_shards"):
            plan_shards(assignments, 0)
        with pytest.raises(ShardError, match="empty fleet"):
            plan_shards([], 2)
        setting = ExperimentSetting(num_frames=4, seed=0)
        with pytest.raises(ShardError, match="num_shards"):
            run_sharded_fleet(setting, "default", 4, 0)
        with pytest.raises(ShardError, match="positive"):
            run_sharded_fleet(setting, "default", 0, 1)
