"""The declarative scenario subsystem.

Covers the new ambient profiles, the spec/fleet (de)serialisation round
trips, the validating registry (including its error paths), the weighted
session allocation, the grouped re-interleaving order of heterogeneous
runs, the sub-fleet policy combinator's validation, cacheable job keys for
the ambient profiles scenarios use, the per-group summary table and the
``python -m repro scenario`` CLI.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.env.ambient import (
    AmbientProfile,
    ConstantAmbient,
    DiurnalAmbient,
    LinearRampAmbient,
    StepAmbient,
    warm_cold_warm,
)
from repro.errors import ConfigurationError, ScenarioError
from repro.governors.fleet import BatchedPerformancePolicy, SubFleetPolicies
from repro.runtime.cli import main
from repro.runtime.fleet import _session_groups, run_fleet_scenario
from repro.runtime.job import ExperimentJob
from repro.scenarios import (
    FleetMember,
    FleetScenario,
    ScenarioSpec,
    ambient_from_dict,
    ambient_to_dict,
    available_scenarios,
    build_scenario,
    register_scenario,
    scenario_from_json,
)

# ---------------------------------------------------------------------------
# Ambient profiles
# ---------------------------------------------------------------------------


def test_diurnal_ambient_cycles_around_the_mean():
    ambient = DiurnalAmbient(mean_c=20.0, amplitude_c=5.0, period_frames=100)
    assert ambient.temperature_at(0) == pytest.approx(20.0)
    assert ambient.temperature_at(25) == pytest.approx(25.0)
    assert ambient.temperature_at(75) == pytest.approx(15.0)
    # One full period later the temperature repeats.
    assert ambient.temperature_at(137) == pytest.approx(ambient.temperature_at(37))
    assert ambient.initial_temperature() == pytest.approx(20.0)


def test_diurnal_ambient_phase_shifts_the_cycle():
    base = DiurnalAmbient(mean_c=20.0, amplitude_c=5.0, period_frames=100)
    shifted = DiurnalAmbient(
        mean_c=20.0, amplitude_c=5.0, period_frames=100, phase_frames=25
    )
    assert shifted.temperature_at(0) == pytest.approx(base.temperature_at(25))


def test_diurnal_ambient_validation():
    with pytest.raises(ConfigurationError):
        DiurnalAmbient(period_frames=0)
    with pytest.raises(ConfigurationError):
        DiurnalAmbient(amplitude_c=-1.0)


def test_linear_ramp_ambient_interpolates_then_holds():
    ambient = LinearRampAmbient(start_c=25.0, end_c=5.0, ramp_frames=10, delay_frames=5)
    assert ambient.temperature_at(0) == 25.0
    assert ambient.temperature_at(5) == 25.0
    assert ambient.temperature_at(10) == pytest.approx(15.0)
    assert ambient.temperature_at(15) == 5.0
    assert ambient.temperature_at(1000) == 5.0
    assert ambient.initial_temperature() == 25.0


def test_linear_ramp_ambient_validation():
    with pytest.raises(ConfigurationError):
        LinearRampAmbient(ramp_frames=0)
    with pytest.raises(ConfigurationError):
        LinearRampAmbient(delay_frames=-1)
    with pytest.raises(ConfigurationError):
        LinearRampAmbient().temperature_at(-1)


def test_step_ambient_has_value_semantics():
    assert warm_cold_warm(100) == warm_cold_warm(100)
    assert warm_cold_warm(100) != warm_cold_warm(200)


# ---------------------------------------------------------------------------
# Serialisation round trips
# ---------------------------------------------------------------------------

AMBIENTS = [
    ConstantAmbient(31.5),
    warm_cold_warm(120, warm_temperature_c=26.0, cold_temperature_c=-2.0),
    DiurnalAmbient(mean_c=22.0, amplitude_c=7.5, period_frames=400, phase_frames=50),
    LinearRampAmbient(start_c=24.0, end_c=-3.0, ramp_frames=200, delay_frames=40),
]


@pytest.mark.parametrize("ambient", AMBIENTS, ids=lambda a: type(a).__name__)
def test_ambient_codec_round_trip(ambient):
    assert ambient_from_dict(ambient_to_dict(ambient)) == ambient


def test_ambient_codec_rejects_unknown_kinds_and_types():
    with pytest.raises(ScenarioError):
        ambient_from_dict({"kind": "volcanic"})
    with pytest.raises(ScenarioError):
        ambient_from_dict({"temperature_c": 20.0})

    class CustomAmbient(AmbientProfile):
        def temperature_at(self, frame_index: int) -> float:
            return 20.0

    with pytest.raises(ScenarioError):
        ambient_to_dict(CustomAmbient())


@pytest.mark.parametrize("ambient", AMBIENTS, ids=lambda a: type(a).__name__)
def test_scenario_spec_round_trip(ambient):
    spec = ScenarioSpec(
        name="round-trip",
        device="mi11-lite",
        detector="yolo_v5",
        dataset="visdrone2019",
        method="powersave",
        num_frames=123,
        num_sessions=7,
        seed=42,
        latency_constraint_ms=321.5,
        ambient=ambient,
        description="round trip test",
    )
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    assert scenario_from_json(spec.to_json()) == spec


def test_fleet_scenario_round_trip():
    fleet = build_scenario("mixed-edge-fleet")
    assert FleetScenario.from_dict(fleet.to_dict()) == fleet
    assert FleetScenario.from_json(fleet.to_json()) == fleet
    assert scenario_from_json(fleet.to_json()) == fleet


def test_spec_from_dict_rejects_malformed_payloads():
    with pytest.raises(ScenarioError):
        ScenarioSpec.from_dict({"kind": "fleet", "name": "x"})
    with pytest.raises(ScenarioError):
        ScenarioSpec.from_dict({"name": "x", "surprise": 1})
    with pytest.raises(ScenarioError):
        ScenarioSpec.from_dict({"kind": "scenario"})
    with pytest.raises(ScenarioError):
        ScenarioSpec.from_json("{not json")
    with pytest.raises(ScenarioError):
        scenario_from_json('{"kind": "mystery", "name": "x"}')


def test_spec_structural_validation():
    with pytest.raises(ScenarioError):
        ScenarioSpec(name="")
    with pytest.raises(ScenarioError):
        ScenarioSpec(name="x", num_frames=0)
    with pytest.raises(ScenarioError):
        ScenarioSpec(name="x", num_sessions=0)
    with pytest.raises(ScenarioError):
        ScenarioSpec(name="x", latency_constraint_ms=0.0)


# ---------------------------------------------------------------------------
# Fleet composition and allocation
# ---------------------------------------------------------------------------


def _tiny_spec(name: str, **overrides) -> ScenarioSpec:
    defaults = dict(
        name=name,
        device="jetson-orin-nano",
        detector="yolo_v5",
        dataset="kitti",
        method="default",
        num_frames=50,
        num_sessions=2,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def test_fleet_scenario_wraps_bare_specs_and_checks_frames():
    fleet = FleetScenario(name="f", members=(_tiny_spec("a"), _tiny_spec("b", seed=9)))
    assert all(isinstance(member, FleetMember) for member in fleet.members)
    assert fleet.num_frames == 50
    with pytest.raises(ScenarioError):
        FleetScenario(
            name="f",
            members=(_tiny_spec("a"), _tiny_spec("b", num_frames=60)),
        )
    with pytest.raises(ScenarioError):
        FleetScenario(name="f", members=())
    with pytest.raises(ScenarioError):
        FleetMember(_tiny_spec("a"), weight=0.0)
    with pytest.raises(ScenarioError):
        FleetMember(_tiny_spec("a"), weight=math.inf)
    with pytest.raises(ScenarioError):
        FleetScenario(
            name="f",
            members=(_tiny_spec("a"), _tiny_spec("b")),
            num_sessions=1,
        )


def test_allocation_follows_weights_with_floor_of_one():
    fleet = FleetScenario(
        name="f",
        members=(
            FleetMember(_tiny_spec("a"), weight=3.0),
            FleetMember(_tiny_spec("b"), weight=1.0),
            FleetMember(_tiny_spec("c"), weight=2.0),
        ),
    )
    assert fleet.allocate(6) == (3, 1, 2)
    assert sum(fleet.allocate(7)) == 7
    # Even a member with a tiny weight keeps at least one session.
    skewed = FleetScenario(
        name="s",
        members=(
            FleetMember(_tiny_spec("a"), weight=1000.0),
            FleetMember(_tiny_spec("b"), weight=0.001),
        ),
    )
    assert skewed.allocate(5) == (4, 1)
    with pytest.raises(ScenarioError):
        fleet.allocate(2)
    # Default total: the sum of the member specs' own session counts.
    assert sum(fleet.allocate()) == fleet.total_sessions() == 6


def test_session_assignments_number_sessions_member_by_member():
    fleet = FleetScenario(
        name="f",
        members=(
            FleetMember(_tiny_spec("a", seed=10), weight=2.0),
            FleetMember(_tiny_spec("b", seed=20), weight=1.0),
        ),
    )
    assignments = fleet.session_assignments(3)
    assert [a.index for a in assignments] == [0, 1, 2]
    assert [a.member_index for a in assignments] == [0, 0, 1]
    assert [a.seed for a in assignments] == [10, 11, 20]
    assert [a.spec.name for a in assignments] == ["a", "a", "b"]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_builtin_library_is_registered():
    names = available_scenarios()
    for expected in (
        "phone-diurnal",
        "drone-climb",
        "cctv-burst",
        "thermal-soak",
        "mixed-edge-fleet",
    ):
        assert expected in names
    assert len(names) >= 8
    fleet = build_scenario("mixed-edge-fleet")
    devices = {member.spec.device for member in fleet.members}
    ambients = {type(member.spec.ambient) for member in fleet.members}
    assert len(devices) >= 2
    assert len(ambients) >= 2


def test_build_unknown_scenario_raises():
    with pytest.raises(ScenarioError):
        build_scenario("does-not-exist")


def test_register_rejects_duplicates_and_invalid_specs():
    with pytest.raises(ScenarioError):
        register_scenario(build_scenario("phone-diurnal"))
    with pytest.raises(ScenarioError):
        register_scenario(_tiny_spec("bad-device", device="toaster"))
    with pytest.raises(ScenarioError):
        register_scenario(_tiny_spec("bad-detector", detector="ssd"))
    with pytest.raises(ScenarioError):
        register_scenario(_tiny_spec("bad-dataset", dataset="coco"))
    with pytest.raises(ScenarioError):
        register_scenario(_tiny_spec("bad-method", method="magic"))
    with pytest.raises(ScenarioError):
        register_scenario("not a scenario")


def test_register_overwrite_and_custom_names(tmp_path):
    spec = _tiny_spec("tmp-custom-scenario")
    register_scenario(spec)
    try:
        with pytest.raises(ScenarioError):
            register_scenario(spec)
        register_scenario(spec.with_overrides(seed=5), overwrite=True)
        assert build_scenario("tmp-custom-scenario").seed == 5
    finally:
        from repro.scenarios import registry

        registry._REGISTRY.pop("tmp-custom-scenario", None)


# ---------------------------------------------------------------------------
# Grouped execution: ordering and re-interleaving
# ---------------------------------------------------------------------------


def test_grouped_run_preserves_global_session_order():
    fleet = FleetScenario(
        name="order",
        members=(
            FleetMember(_tiny_spec("a", device="mi11-lite", dataset="kitti")),
            FleetMember(_tiny_spec("b", dataset="visdrone2019", seed=7)),
            # Same device/detector as member "a": lands in the same group,
            # so re-interleaving has to undo a real permutation.
            FleetMember(
                _tiny_spec("c", device="mi11-lite", dataset="visdrone2019", seed=3)
            ),
        ),
    )
    result = run_fleet_scenario(fleet, num_sessions=6, num_frames=10)
    assert result.num_sessions == 6
    groups = _session_groups(result.assignments, 10)
    # Groups partition the global indices exactly.
    covered = sorted(index for group in groups for index in group.session_indices)
    assert covered == list(range(6))
    # Global session order equals assignment order: member a, b, then c —
    # even though a and c share one batched group.
    expected_datasets = [a.spec.dataset for a in result.assignments]
    for i, expected in enumerate(expected_datasets):
        records = result.sessions[i].trace.records
        assert records[0].dataset == expected
        column = result.fleet_trace.session_trace(i)
        assert column.records[0].dataset == expected
    assert [a.spec.name for a in result.assignments] == [
        "a", "a", "b", "b", "c", "c",
    ][: len(result.assignments)]
    # The mi11 group interleaves members a and c.
    mi11 = next(g for g in groups if g.environment.device.name == "mi11-lite")
    assert {result.assignments[i].spec.name for i in mi11.session_indices} == {
        "a", "c",
    }


def test_sub_fleet_policies_validate_their_partition():
    policies = [BatchedPerformancePolicy(), BatchedPerformancePolicy()]
    with pytest.raises(ConfigurationError):
        SubFleetPolicies(policies, [[0, 1]])
    with pytest.raises(ConfigurationError):
        SubFleetPolicies(policies, [[0, 1], [1, 2]])
    with pytest.raises(ConfigurationError):
        SubFleetPolicies(policies, [[0, 1], []])
    with pytest.raises(ConfigurationError):
        SubFleetPolicies([], [])
    combined = SubFleetPolicies(policies, [[2, 0], [1, 3]])
    assert combined.num_sessions == 4
    assert len(combined.session_policy_names()) == 4


# ---------------------------------------------------------------------------
# Engine integration and caching
# ---------------------------------------------------------------------------


def test_scenario_ambient_profiles_give_cacheable_job_keys():
    """The cells of a scenario session are cacheable for all four ambient
    profiles: each fingerprints, and each seed gets its own key."""
    ambients = (
        ConstantAmbient(28.0),
        warm_cold_warm(10),
        DiurnalAmbient(period_frames=40),
        LinearRampAmbient(ramp_frames=20),
    )
    for ambient in ambients:
        spec = _tiny_spec("jobs", seed=30, ambient=ambient)
        keys = [
            ExperimentJob(
                setting=spec.setting().with_overrides(seed=spec.seed + i),
                method=spec.method,
                ambient=spec.ambient,
            ).cache_key()
            for i in range(3)
        ]
        assert all(keys), type(ambient).__name__
        assert len(set(keys)) == 3


# ---------------------------------------------------------------------------
# Reporting and CLI
# ---------------------------------------------------------------------------


def test_scenario_group_table_has_one_row_per_group():
    from repro.analysis.tables import scenario_group_table

    result = run_fleet_scenario("mixed-edge-fleet", num_sessions=5, num_frames=8)
    table = scenario_group_table(result, title="mixed")
    lines = table.splitlines()
    assert lines[0] == "mixed"
    # Title, header and separator, then one row per group.
    assert len(lines) == 3 + len(_session_groups(result.assignments, 8))
    assert any("mi11-lite/yolo_v5" in line for line in lines)


def test_cli_scenario_list_show_run(capsys):
    assert main(["scenario", "list", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "mixed-edge-fleet" in out and "phone-diurnal" in out

    assert main(["scenario", "show", "drone-climb"]) == 0
    out = capsys.readouterr().out
    assert '"kind": "scenario"' in out and '"linear_ramp"' in out

    # Scenarios run through `fleet run NAME`; `scenario` only lists and shows.
    with pytest.raises(SystemExit) as excinfo:
        main(["scenario", "run", "shared-device-mixed-load"])
    assert excinfo.value.code == 2
    capsys.readouterr()

    assert main(["scenario", "show", "no-such-scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
