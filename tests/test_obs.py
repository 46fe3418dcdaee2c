"""Contract tests of the :mod:`repro.obs` observability layer.

The two promises that make obs safe to wire through every hot layer:

* **Byte-identical traces.**  Collection never touches RNG state or
  simulated values, so a sharded scenario — including a supervised
  faulted run with a worker crash mid-episode — produces a
  :class:`~repro.env.fleet.FleetTrace` bitwise equal with observation on
  or off.
* **Exact numbers.**  Histogram percentiles match ``np.percentile`` to
  float precision (including across chunk flushes and worker-snapshot
  merges), and the pool counters agree with known warm/rebuild sequences.

Plus the surface: snapshot/merge round-trips, the JSONL/summary sink, the
``obs report`` CLI and the ``--obs`` flag.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import ObsError
from repro.faults import WorkerCrash
from repro.obs import bus
from repro.obs.report import render_summary
from repro.obs.sink import iter_events, latest_run, list_runs, load_summary, write_run
from repro.runtime.fleet import run_fleet_scenario
from repro.runtime.pool import shutdown_shared_pool
from repro.runtime.shards import run_sharded_scenario, run_supervised_scenario
from repro.scenarios import build_scenario

from tests.test_fleet_sharding import assert_traces_identical

FRAMES = 10
SESSIONS = 4
SHARDS = 2


@pytest.fixture(autouse=True)
def _obs_isolation(monkeypatch):
    """Every test starts with observation off and no shared pool."""
    monkeypatch.delenv(bus.OBS_ENV, raising=False)
    bus.disable()
    shutdown_shared_pool()
    yield
    bus.disable()
    shutdown_shared_pool()


# ---------------------------------------------------------------------------
# Registry unit behaviour
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counters_sum_and_label(self):
        registry = bus.enable(fresh=True)
        bus.inc("hits")
        bus.inc("hits", 2.0)
        bus.inc("hits", 1.0, kind="warm")
        assert registry.counters[("hits", ())] == 3.0
        assert registry.counters[("hits", (("kind", "warm"),))] == 1.0

    def test_gauges_last_value_wins(self):
        registry = bus.enable(fresh=True)
        bus.gauge("workers", 2)
        bus.gauge("workers", 4)
        assert registry.gauges[("workers", ())] == 4.0

    def test_histogram_percentiles_are_exact(self):
        registry = bus.enable(fresh=True)
        rng = np.random.default_rng(7)
        values = rng.normal(size=1777)  # > 3 chunks, plus a partial buffer
        for v in values:
            bus.observe("latency", v)
        histogram = registry.histograms[("latency", ())]
        for q in (50.0, 90.0, 99.0):
            assert histogram.percentile(q) == pytest.approx(
                np.percentile(values, q), abs=1e-12
            )
        assert histogram.moments.count == values.size
        assert histogram.moments.mean == pytest.approx(values.mean())
        assert histogram.moments.std == pytest.approx(values.std())

    def test_percentiles_stay_exact_across_merge(self):
        left = bus.enable(fresh=True)
        rng = np.random.default_rng(11)
        a = rng.normal(size=700)
        for v in a:
            bus.observe("latency", v)
        snapshot_a = left.snapshot()

        right = bus.enable(fresh=True)
        b = rng.normal(size=900)
        for v in b:
            bus.observe("latency", v)
        right.merge(snapshot_a, origin="worker-0")
        merged = np.concatenate([b, a])
        histogram = right.histograms[("latency", ())]
        assert histogram.percentile(99.0) == pytest.approx(
            np.percentile(merged, 99.0), abs=1e-12
        )

    def test_merge_sums_counters_and_tags_origin(self):
        worker = bus.enable(fresh=True)
        bus.inc("tasks", 3)
        bus.event("worker.did", thing="x")
        snapshot = worker.snapshot()

        parent = bus.enable(fresh=True)
        bus.inc("tasks", 1)
        parent.merge(snapshot, origin="worker-2")
        assert parent.counters[("tasks", ())] == 4.0
        merged_events = [e for e in parent.events if e.get("origin") == "worker-2"]
        assert merged_events and merged_events[0]["name"] == "worker.did"

    def test_merge_rejects_unknown_schema(self):
        registry = bus.enable(fresh=True)
        with pytest.raises(ObsError):
            registry.merge({"schema": "bogus/v9"})

    def test_span_nesting_records_parent_ids(self):
        registry = bus.enable(fresh=True)
        with bus.span("outer"):
            with bus.span("inner"):
                bus.event("tick")
        starts = {
            e["name"]: e
            for e in registry.events
            if e["type"] == "span" and e["phase"] == "start"
        }
        assert starts["outer"]["parent"] == 0
        assert starts["inner"]["parent"] == starts["outer"]["span"]
        tick = next(e for e in registry.events if e["type"] == "event")
        assert tick["span"] == starts["inner"]["span"]
        assert registry.histograms[("span.outer", ())].moments.count == 1

    def test_disabled_helpers_are_noops(self):
        assert not bus.active()
        bus.inc("nope")
        bus.observe("nope", 1.0)
        bus.event("nope")
        assert bus.span("nope") is bus.span("other"), "shared null span"
        with bus.span("nope"):
            pass
        with pytest.raises(ObsError):
            bus.registry()

    def test_obs_enabled_reads_environment(self, monkeypatch):
        assert not bus.obs_enabled()
        monkeypatch.setenv(bus.OBS_ENV, "1")
        assert bus.obs_enabled()

    def test_record_report_gauges_dataclass_fields(self):
        @dataclasses.dataclass
        class Report:
            hits: int = 5
            rate: float = 0.5
            ok: bool = True
            shards: tuple = (0, 1)
            label: str = "ignored"

        registry = bus.enable(fresh=True)
        bus.record_report("r", Report())
        assert registry.gauges[("r.hits", ())] == 5.0
        assert registry.gauges[("r.rate", ())] == 0.5
        assert registry.gauges[("r.ok", ())] == 1.0
        assert registry.gauges[("r.shards", ())] == 2.0
        assert ("r.label", ()) not in registry.gauges
        with pytest.raises(ObsError):
            bus.record_report("r", object())


# ---------------------------------------------------------------------------
# Byte-identical traces, observation on or off
# ---------------------------------------------------------------------------


class TestTraceIdentity:
    def test_sharded_scenario_trace_is_byte_identical(self):
        plain = run_sharded_scenario(
            "cctv-burst", SHARDS, num_sessions=SESSIONS, num_frames=FRAMES
        )
        bus.enable(fresh=True)
        try:
            observed = run_sharded_scenario(
                "cctv-burst", SHARDS, num_sessions=SESSIONS, num_frames=FRAMES
            )
            registry = bus.registry()
            assert registry.histograms[("span.shard.run", ())].moments.count == SHARDS
            assert any(e.get("origin") for e in registry.events), (
                "worker events must merge back with an origin tag"
            )
        finally:
            bus.disable()
        assert_traces_identical(observed.fleet_trace, plain.fleet_trace)

    def test_supervised_crash_run_is_byte_identical_and_counted(self):
        scenario = build_scenario("cctv-burst")
        reference = run_fleet_scenario(
            scenario, num_frames=FRAMES, num_sessions=SESSIONS
        )
        bus.enable(fresh=True)
        try:
            result = run_supervised_scenario(
                scenario,
                SHARDS,
                num_sessions=SESSIONS,
                num_frames=FRAMES,
                checkpoint_every=4,
                crashes=(WorkerCrash(frame=6, shard=0),),
            )
            registry = bus.registry()
            counters = {name: v for (name, _), v in registry.counters.items()}
            assert counters.get("pool.crashes_detected", 0) >= 1
            assert counters.get("checkpoint.writes", 0) >= 1
            assert counters.get("checkpoint.restores", 0) >= 1
            restore_events = [
                e for e in registry.events if e["name"] == "checkpoint.restore"
            ]
            assert restore_events and restore_events[0]["fields"]["shard"] == 0
            assert registry.gauges[("recovery.report.crashes_detected", ())] >= 1.0
        finally:
            bus.disable()
        assert result.recovery.crashes_detected >= 1
        assert_traces_identical(result.fleet_trace, reference.fleet_trace)


# ---------------------------------------------------------------------------
# Pool counters against known sequences
# ---------------------------------------------------------------------------


class TestPoolCounters:
    def test_first_run_rebuilds_then_rerun_hits_warm(self):
        bus.enable(fresh=True)
        try:
            run_sharded_scenario(
                "cctv-burst", SHARDS, num_sessions=SESSIONS, num_frames=FRAMES
            )
            registry = bus.registry()
            rebuilds = sum(
                v for (name, _), v in registry.counters.items()
                if name == "pool.rebuilds"
            )
            warm = sum(
                v for (name, _), v in registry.counters.items()
                if name == "pool.warm_hits"
            )
            assert rebuilds == SHARDS
            assert warm == 0
        finally:
            bus.disable()

        bus.enable(fresh=True)
        try:
            run_sharded_scenario(
                "cctv-burst", SHARDS, num_sessions=SESSIONS, num_frames=FRAMES
            )
            registry = bus.registry()
            rebuilds = sum(
                v for (name, _), v in registry.counters.items()
                if name == "pool.rebuilds"
            )
            warm = sum(
                v for (name, _), v in registry.counters.items()
                if name == "pool.warm_hits"
            )
            assert rebuilds == 0
            assert warm == SHARDS
            assert registry.gauges[("pool.report.warm_hits", ())] == SHARDS
        finally:
            bus.disable()

    def test_rebuild_counter_counts_unkeyed_supervised_builds(self):
        """Supervised shards run unpinned (no fingerprint), yet each task's
        build is counted: the crashed shard's rebuild on its respawned
        worker included (the dead attempt never reports)."""
        bus.enable(fresh=True)
        try:
            run_supervised_scenario(
                "cctv-burst",
                SHARDS,
                num_sessions=SESSIONS,
                num_frames=FRAMES,
                checkpoint_every=4,
                crashes=(WorkerCrash(frame=6, shard=0),),
            )
            registry = bus.registry()
            rebuilds = sum(
                v for (name, _), v in registry.counters.items()
                if name == "pool.rebuilds"
            )
            assert rebuilds == registry.gauges[("pool.report.rebuilds", ())]
            assert rebuilds == SHARDS
        finally:
            bus.disable()


# ---------------------------------------------------------------------------
# Sink and CLI surface
# ---------------------------------------------------------------------------


class TestSinkAndCli:
    def _collect_something(self):
        bus.enable(fresh=True)
        with bus.span("demo.step", shard=0):
            bus.inc("demo.counter", 2)
            for v in range(20):
                bus.observe("demo.value", float(v))
        bus.event("demo.done", ok=True)
        return bus.registry()

    def test_write_run_emits_parseable_jsonl_and_summary(self, tmp_path):
        registry = self._collect_something()
        run_dir, summary = write_run(registry, obs_dir=tmp_path, label="unit")
        events = list(iter_events(run_dir.name, tmp_path))
        assert events and all("name" in e for e in events)
        assert (run_dir / "summary.json").is_file()
        loaded = load_summary(run_dir.name, tmp_path)
        assert loaded == json.loads(json.dumps(summary))
        assert loaded["label"] == "unit"
        assert loaded["counters"]["demo.counter"] == 2.0
        assert loaded["histograms"]["demo.value"]["p50"] == pytest.approx(
            np.percentile(np.arange(20.0), 50.0)
        )
        rendered = render_summary(loaded)
        assert "demo.step" in rendered and "demo.counter" in rendered

    def test_run_listing_and_latest(self, tmp_path):
        assert list_runs(tmp_path) == []
        with pytest.raises(ObsError):
            latest_run(tmp_path)
        registry = self._collect_something()
        write_run(registry, obs_dir=tmp_path, run_id="a-run")
        write_run(registry, obs_dir=tmp_path, run_id="b-run")
        assert list_runs(tmp_path) == ["a-run", "b-run"]
        assert latest_run(tmp_path) == "b-run"
        with pytest.raises(ObsError):
            load_summary("missing", tmp_path)

    def test_cli_obs_flag_writes_and_reports_a_run(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.runtime.cli import main

        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        code = main(
            [
                "run", "--frames", "6", "--method", "default",
                "--cache-dir", str(tmp_path / "cache"), "--obs",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "obs: wrote" in out and "runtime.run_jobs" in out
        assert not bus.active(), "the CLI must disable collection afterwards"

        assert main(["obs", "list"]) == 0
        assert "1 run(s)" in capsys.readouterr().out
        assert main(["obs", "report"]) == 0
        assert "obs run" in capsys.readouterr().out

    def test_cli_obs_report_fails_cleanly_when_empty(self, tmp_path, capsys):
        from repro.runtime.cli import main

        code = main(["obs", "report", "--obs-dir", str(tmp_path / "none")])
        assert code == 2
        assert "no obs runs" in capsys.readouterr().err
