"""Smoke tests for the ``python -m repro`` command-line interface.

Fast paths call :func:`repro.runtime.cli.main` in-process; one test drives
the real ``python -m repro`` module entry point in a subprocess to prove the
packaging (``repro/__main__.py``) works end to end.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime.cli import main

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def module_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def test_python_m_repro_sweep_help_subprocess():
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "--help"],
        capture_output=True,
        text=True,
        env=module_env(),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    for flag in ("--devices", "--methods", "--workers", "--cache-dir", "--steady"):
        assert flag in completed.stdout


def test_cli_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code != 0


def test_cli_version_prints_package_version(capsys):
    import repro

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == repro.__version__


def test_cli_unknown_subcommand_exits_cleanly(capsys):
    assert main(["frobnicate"]) == 2
    err = capsys.readouterr().err
    assert "unknown command 'frobnicate'" in err
    assert "available commands:" in err and "policy" in err
    assert "usage:" not in err  # no bare argparse dump


def test_cli_cache_list_and_prune(tmp_path, capsys):
    cell_args = [
        "--datasets", "kitti", "--methods", "default,fixed,powersave",
        "--frames", "10", "--cache-dir", str(tmp_path), "--workers", "1",
        "--quiet",
    ]
    assert main(["sweep", *cell_args]) == 0
    capsys.readouterr()

    assert main(["cache", "list", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "3 entries" in out and "kB" in out and "d old" in out

    # prune without a criterion is a clean error, not a traceback
    assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
    assert "keep-latest" in capsys.readouterr().err

    assert main([
        "cache", "prune", "--keep-latest", "1", "--cache-dir", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "pruned 2 cached results" in out and "1 entries remain" in out

    assert main([
        "cache", "prune", "--max-age-days", "0", "--cache-dir", str(tmp_path),
    ]) == 0
    assert "pruned 1 cached results" in capsys.readouterr().out
    assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
    assert "entries         : 0" in capsys.readouterr().out


def test_cli_reports_library_errors_without_traceback(tmp_path, capsys):
    code = main([
        "run", "--method", "nonsense", "--frames", "5", "--cache-dir", str(tmp_path),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: unknown method 'nonsense'" in captured.err
    code = main(["run", "--device", "toaster", "--frames", "5", "--no-cache"])
    assert code == 2
    assert "unknown device 'toaster'" in capsys.readouterr().err


def test_cli_run_uses_cache_on_second_invocation(tmp_path, capsys):
    args = [
        "run", "--method", "default", "--frames", "20",
        "--cache-dir", str(tmp_path),
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "[fresh run]" in first
    assert "whole episode" in first and "steady state" in first

    assert main(args) == 0
    second = capsys.readouterr().out
    assert "[cache]" in second


def test_cli_sweep_report_and_cache_flow(tmp_path, capsys):
    cell_args = [
        "--datasets", "kitti",
        "--methods", "default,fixed",
        "--frames", "15",
        "--cache-dir", str(tmp_path),
    ]
    assert main(["sweep", *cell_args, "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "sweep: 2 jobs" in out
    assert "0 cache hits, 2 executed" in out
    assert "| Detector" in out and "faster_rcnn" in out

    # report: everything cached, exit 0.
    assert main(["report", *cell_args]) == 0
    out = capsys.readouterr().out
    assert "report: 2/2 cells cached" in out

    # report on a larger grid: missing cells listed, exit 1.
    missing_args = list(cell_args)
    missing_args[missing_args.index("default,fixed")] = "default,fixed,ztt"
    assert main(["report", *missing_args]) == 1
    out = capsys.readouterr().out
    assert "missing cells (1)" in out and "ztt" in out

    # cache info / path / clear.
    assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
    assert "entries         : 2" in capsys.readouterr().out
    assert main(["cache", "path", "--cache-dir", str(tmp_path)]) == 0
    assert str(tmp_path) in capsys.readouterr().out
    assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
    assert "removed 2" in capsys.readouterr().out


def test_cli_sweep_no_cache(tmp_path, capsys):
    assert main([
        "sweep", "--datasets", "kitti", "--methods", "fixed", "--frames", "10",
        "--workers", "1", "--no-cache", "--quiet", "--cache-dir", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "0 cache hits, 1 executed" in out
    assert not any(tmp_path.iterdir())


def test_cli_fleet_runs_and_prints_aggregate(capsys):
    assert main([
        "fleet", "--method", "default", "--sessions", "4", "--frames", "15",
        "--per-session",
    ]) == 0
    out = capsys.readouterr().out
    assert "fleet: 4 sessions x 15 frames" in out
    assert "session 3 (seed 3)" in out
    assert "aggregate:" in out and "frames/s" in out


def test_cli_fleet_cell_runs_faulted_under_the_supervisor(tmp_path, capsys):
    """Cell mode honours --faults, --supervised, --checkpoint-every and
    --report exactly like scenario mode."""
    import json

    from repro.faults import FaultPlan, SensorDropout, WorkerCrash

    plan = tmp_path / "plan.json"
    plan.write_text(
        FaultPlan(
            events=(
                SensorDropout(start_frame=5, num_frames=6, probability=0.7),
                WorkerCrash(frame=10, shard=1),
            ),
            seed=7,
            name="cell-crash",
        ).to_json()
    )
    report = tmp_path / "report.json"
    assert main([
        "fleet", "run", "--method", "default", "--sessions", "4", "--frames", "24",
        "--shards", "2", "--supervised", "--faults", str(plan),
        "--checkpoint-every", "6", "--report", str(report),
    ]) == 0
    out = capsys.readouterr().out
    assert "fleet: 4 sessions x 24 frames" in out
    assert "1 crash(es) detected" in out
    assert json.loads(report.read_text())["degraded_cells"] > 0


def test_cli_fleet_run_scenario_prints_groups_and_writes_report(tmp_path, capsys):
    """`fleet run NAME` is the one CLI door for a scenario: per-group table,
    aggregate, and the resilience JSON of a faulted run."""
    import json

    from repro.faults import FaultPlan, SensorDropout

    plan = tmp_path / "plan.json"
    plan.write_text(
        FaultPlan(
            events=(SensorDropout(start_frame=5, num_frames=6, probability=0.7),),
            seed=7,
            name="burst-dropout",
        ).to_json()
    )
    report = tmp_path / "out.json"
    assert main([
        "fleet", "run", "cctv-burst", "--faults", str(plan), "--report",
        str(report), "--sessions", "4", "--frames", "24",
    ]) == 0
    out = capsys.readouterr().out
    assert "fleet: scenario cctv-burst — 4 sessions x 24 frames" in out
    assert "| Group" in out and "raspberry-pi-5/yolo_v5" in out
    assert "aggregate:" in out
    payload = json.loads(report.read_text())
    assert payload["num_sessions"] == 4 and payload["degraded_cells"] > 0


def _group_rows(out: str) -> list:
    return [line for line in out.splitlines() if line.startswith("| ") and "/" in line]


def test_cli_fleet_run_scenario_group_rows_match_across_shards(capsys):
    rows = {}
    for shards in ("1", "2"):
        assert main([
            "fleet", "run", "mixed-edge-fleet", "--shards", shards,
            "--sessions", "6", "--frames", "12",
        ]) == 0
        rows[shards] = _group_rows(capsys.readouterr().out)
    assert len(rows["1"]) == 4
    assert rows["2"] == rows["1"]


def test_cli_malformed_worker_count_is_a_one_line_error(monkeypatch, capsys):
    """A bad REPRO_WORKERS only fails the commands that use it."""
    monkeypatch.setenv("REPRO_WORKERS", "two")
    assert main(["devices"]) == 0
    capsys.readouterr()
    assert main([
        "sweep", "--methods", "fixed", "--frames", "5", "--no-cache", "--quiet",
    ]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: REPRO_WORKERS")
    assert len(captured.err.strip().splitlines()) == 1


def test_cli_fleet_reports_library_errors(capsys):
    assert main(["fleet", "--method", "nonsense", "--frames", "5"]) == 2
    assert "unknown method" in capsys.readouterr().err


def test_cli_fleet_rejects_training_frames(capsys):
    assert main([
        "fleet", "--method", "lotus", "--frames", "5", "--training-frames", "10",
    ]) == 2
    err = capsys.readouterr().err
    assert "no pre-evaluation warm-up" in err
    assert "drop --training-frames" in err


def test_cli_fleet_refuses_a_lotus_fleet_cell_over_several_shards(capsys):
    """The library runs such a cell as one shard; the CLI refuses the
    request outright, since the user asked for a split it cannot make."""
    assert main([
        "fleet", "run", "--method", "lotus-fleet", "--sessions", "6",
        "--frames", "5", "--shards", "2",
    ]) == 2
    assert capsys.readouterr().err == (
        "error: lotus-fleet trains one shared network across the whole fleet "
        "and cannot be split across shards; run with --shards 1, or shard a "
        "scenario whose lotus-fleet members are smaller than the fleet\n"
    )


def test_cli_devices_lists_registered_devices(capsys):
    assert main(["devices"]) == 0
    out = capsys.readouterr().out
    for name in ("jetson-orin-nano", "mi11-lite", "raspberry-pi-5"):
        assert name in out
    assert "levels" in out and "trip" in out


def test_cli_detectors_lists_registered_detectors(capsys):
    assert main(["detectors"]) == 0
    out = capsys.readouterr().out
    assert "faster_rcnn" in out and "two-stage" in out
    assert "yolo_v5" in out and "one-stage" in out
