"""Command-line interface of the experiment runtime (``python -m repro``).

Ten subcommands drive the engine without writing any code:

* ``run`` — execute one experiment cell and print its summary metrics.
* ``sweep`` — expand a (devices × detectors × datasets × methods × seeds)
  grid, run it on the worker pool with result caching, and print one
  paper-style comparison table per device.
* ``fleet`` — run one cell as N vectorized lock-step sessions (the fleet
  engine), or ``fleet run SCENARIO`` a registered (possibly heterogeneous)
  scenario with a per-group summary table, in one process or sharded
  across worker processes (``--shards K``); prints aggregate and optional
  per-session metrics.
* ``scenario`` — the declarative library: ``scenario list`` names the
  registered scenarios and ``scenario show`` prints a scenario's JSON
  spec.
* ``report`` — render the same tables purely from the cache, listing any
  missing cells instead of running them (useful on machines that only hold
  the cache, e.g. when collecting results produced elsewhere).
* ``policy`` — the policy lifecycle: ``policy train`` trains a scenario's
  learning method and files the checkpoint in the content-addressed policy
  zoo, ``policy list``/``show`` inspect the zoo (metadata, lineage),
  ``policy export``/``import`` move checkpoints between machines, and
  ``policy eval-matrix`` runs M frozen policies × N registry scenarios
  through the cached runtime and renders the transfer table.
* ``devices`` / ``detectors`` — list the registered device and detector
  models with their key parameters.
* ``cache`` — inspect (``info``/``list``), clear or ``prune`` the result
  cache (``--keep-latest`` / ``--max-age-days``; add ``--dry-run`` to see
  what prune would remove without deleting anything).
* ``obs`` — inspect recorded observability runs: ``obs list`` names the
  runs under the obs directory, ``obs report`` renders one run's spans,
  counters and exact percentiles (default: the latest run).

Fault injection: ``fleet run`` accepts ``--faults PLAN.json`` (a
serialised :class:`~repro.faults.FaultPlan`) to run the scenario or cell
under injected faults; ``--supervised`` additionally runs the
crash-recovering supervisor (``--checkpoint-every`` frames between spooled
checkpoints) and ``--report PATH`` writes the degraded-operation metrics
as JSON.

Observability: ``run`` and ``fleet`` accept ``--obs``
(equivalently ``REPRO_OBS=1``) to collect spans, counters and histograms
while the command runs — traces stay byte-identical — then write the run
under the obs directory (``REPRO_OBS_DIR`` or ``<cache>/obs``) and print
its summary table.

``python -m repro --version`` prints the package version; an unknown
subcommand exits non-zero with a one-line message.  Every library error
derives from :class:`~repro.errors.ReproError` and is reported as a clean
one-line message with a non-zero exit code.

Examples::

    python -m repro run --method lotus --frames 500
    python -m repro sweep --detectors faster_rcnn,mask_rcnn \
        --datasets kitti,visdrone2019 --workers 4
    python -m repro fleet --method default --sessions 64 --frames 500
    python -m repro fleet run --shards 4 --sessions 64 --frames 500
    python -m repro fleet run cctv-burst --shards 2 --per-session
    python -m repro scenario list
    python -m repro fleet run mixed-edge-fleet --frames 300
    python -m repro policy train --scenario jetson-kitti-baseline --frames 400
    python -m repro policy eval-matrix --policies 3f2a,9c1d \
        --scenarios jetson-kitti-baseline,drone-climb --frames 300
    python -m repro run --method policy:3f2a --frames 300
    python -m repro report --detectors faster_rcnn,mask_rcnn \
        --datasets kitti,visdrone2019
    python -m repro devices
    python -m repro cache info
    python -m repro cache prune --keep-latest 200 --dry-run
    python -m repro fleet run cctv-burst --faults plan.json
    python -m repro fleet run cctv-burst --shards 2 --supervised \
        --faults plan.json --report resilience.json
    python -m repro fleet run cctv-burst --shards 2 --obs
    python -m repro obs report
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.errors import LotusError, ReproError, ShardError
from repro.runtime.cache import ResultCache, default_cache_dir
from repro.runtime.engine import ExperimentRuntime
from repro.runtime.job import ExperimentJob
from repro.runtime.sweep import SweepSpec, sweep_metrics_map


def _split(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _split_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in _split(raw))


def _cache_from(args: argparse.Namespace) -> Optional[ResultCache]:
    if getattr(args, "no_cache", False):
        return None
    return ResultCache(args.cache_dir)


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"result cache directory (default: {default_cache_dir()})",
    )


def _add_cell_arguments(parser: argparse.ArgumentParser, plural: bool) -> None:
    if plural:
        parser.add_argument(
            "--devices", type=_split, default=("jetson-orin-nano",),
            help="comma-separated device names",
        )
        parser.add_argument(
            "--detectors", type=_split, default=("faster_rcnn",),
            help="comma-separated detector names",
        )
        parser.add_argument(
            "--datasets", type=_split, default=("kitti",),
            help="comma-separated dataset names",
        )
        parser.add_argument(
            "--methods", type=_split, default=("default", "ztt", "lotus"),
            help="comma-separated method names",
        )
        parser.add_argument(
            "--seeds", type=_split_ints, default=(0,),
            help="comma-separated random seeds",
        )
    else:
        parser.add_argument("--device", default="jetson-orin-nano", help="device name")
        parser.add_argument("--detector", default="faster_rcnn", help="detector name")
        parser.add_argument("--dataset", default="kitti", help="dataset name")
        parser.add_argument("--method", default="lotus", help="method name")
        parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--frames", type=int, default=1000, help="evaluation frames")
    parser.add_argument(
        "--training-frames", type=int, default=0,
        help="online-training frames before evaluation (learning methods)",
    )
    parser.add_argument(
        "--constraint-ms", type=float, default=None,
        help="latency constraint in ms (default: derived from the cost model)",
    )
    parser.add_argument(
        "--ambient-c", type=float, default=25.0, help="ambient temperature in deg C"
    )


def _summary_line(label: str, metrics) -> str:
    return (
        f"{label:<24s} l={metrics.mean_latency_ms:8.1f} ms  "
        f"sigma={metrics.latency_std_ms:7.1f} ms  "
        f"R_L={metrics.satisfaction_rate * 100:5.1f} %  "
        f"T_mean={metrics.mean_temperature_c:5.1f} C  "
        f"T_max={metrics.max_temperature_c:5.1f} C  "
        f"throttled={metrics.throttled_fraction * 100:4.1f} %"
    )


def _sweep_spec(args: argparse.Namespace) -> SweepSpec:
    return SweepSpec(
        devices=args.devices,
        detectors=args.detectors,
        datasets=args.datasets,
        methods=args.methods,
        seeds=args.seeds,
        num_frames=args.frames,
        training_frames=args.training_frames,
        ambient_temperature_c=args.ambient_c,
        latency_constraint_ms=args.constraint_ms,
    )


def _print_sweep_tables(spec: SweepSpec, jobs, results, use_steady: bool) -> None:
    from repro.analysis.tables import comparison_table

    for device in spec.devices:
        table = sweep_metrics_map(jobs, results, device=device, use_steady=use_steady)
        if not table:
            continue
        print()
        print(
            comparison_table(
                table,
                datasets=list(spec.datasets),
                title=f"[{device}] frames={spec.num_frames} "
                f"training={spec.training_frames} seeds={list(spec.seeds)}",
            )
        )


def _obs_begin(args: argparse.Namespace) -> bool:
    """Start metric collection when ``--obs`` or ``REPRO_OBS=1`` asks for it.

    Returns whether collection is active (the caller pairs this with
    :func:`_obs_finish`).  A fresh registry is installed so one CLI
    invocation maps to exactly one obs run.
    """
    from repro.obs import bus

    if not getattr(args, "obs", False) and not bus.obs_enabled():
        return False
    bus.enable(fresh=True)
    return True


def _obs_finish(active: bool, label: str) -> None:
    """Persist the collected run, print its summary, and stop collecting."""
    if not active:
        return
    from repro.obs import bus
    from repro.obs.report import render_summary
    from repro.obs.sink import write_run

    run_dir, summary = write_run(bus.registry(), label=label)
    bus.disable()
    print()
    print(render_summary(summary))
    print(f"obs: wrote {run_dir}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import ExperimentSetting

    setting = ExperimentSetting(
        device=args.device,
        detector=args.detector,
        dataset=args.dataset,
        num_frames=args.frames,
        training_frames=args.training_frames,
        latency_constraint_ms=args.constraint_ms,
        ambient_temperature_c=args.ambient_c,
        seed=args.seed,
    )
    job = ExperimentJob(setting=setting, method=args.method)
    runtime = ExperimentRuntime(max_workers=1, cache=_cache_from(args))
    observing = _obs_begin(args)
    result = runtime.run(job)
    report = runtime.last_report
    source = "cache" if report.cache_hits else "fresh run"
    print(
        f"{args.method} on {args.dataset}/{args.detector} ({args.device}), "
        f"{args.frames} frames [{source}]"
    )
    print(_summary_line("whole episode", result.metrics))
    print(_summary_line("steady state", result.steady_metrics))
    _obs_finish(observing, label=f"run:{args.method}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _sweep_spec(args)
    jobs = spec.expand()
    runtime = ExperimentRuntime(
        max_workers=args.workers, cache=_cache_from(args)
    )
    print(
        f"sweep: {spec.size} jobs "
        f"({len(spec.devices)} devices x {len(spec.detectors)} detectors x "
        f"{len(spec.datasets)} datasets x {len(spec.seeds)} seeds x "
        f"{len(spec.methods)} methods), workers={runtime.max_workers}"
    )

    def progress(done: int, total: int, job: ExperimentJob, hit: bool) -> None:
        status = "cached" if hit else "ran"
        print(
            f"  [{done}/{total}] {status:>6s}  {job.setting.device} "
            f"{job.setting.detector} {job.setting.dataset} "
            f"seed={job.setting.seed} {job.method}",
            flush=True,
        )

    results = runtime.run_jobs(jobs, progress=progress if not args.quiet else None)
    report = runtime.last_report
    print(
        f"done: {report.cache_hits} cache hits, {report.executed} executed"
        + (f", {report.uncacheable} uncacheable" if report.uncacheable else "")
    )
    _print_sweep_tables(spec, jobs, results, args.steady)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    spec = _sweep_spec(args)
    jobs = spec.expand()
    found_jobs, results, missing = [], [], []
    for job in jobs:
        key = job.cache_key()
        cached = cache.load(key) if key else None
        if cached is None:
            missing.append(job)
        else:
            found_jobs.append(job)
            results.append(cached)
    print(f"report: {len(results)}/{len(jobs)} cells cached under {cache.root}")
    _print_sweep_tables(spec, found_jobs, results, args.steady)
    if missing:
        print(f"\nmissing cells ({len(missing)}):")
        for job in missing:
            print(
                f"  {job.setting.device} {job.setting.detector} "
                f"{job.setting.dataset} seed={job.setting.seed} {job.method}"
            )
        print("run `python -m repro sweep` with the same arguments to fill them")
        return 1
    return 0


def _print_fleet_aggregate(result) -> None:
    latencies = result.fleet_trace.latencies_ms()
    met = result.fleet_trace.constraint_met()
    print(
        f"aggregate: l={latencies.mean():8.1f} ms  "
        f"R_L={met.mean() * 100:5.1f} %  "
        f"{result.fleet_trace.total_frames} frames in {result.elapsed_s:.2f} s "
        f"({result.aggregate_frames_per_second:,.0f} frames/s)"
    )


def _load_fault_plan(path: str | None):
    """Read a serialised fault plan, or ``None`` when no path was given."""
    if path is None:
        return None
    from pathlib import Path

    from repro.errors import FaultError
    from repro.faults.plan import fault_plan_from_json

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FaultError(f"cannot read fault plan {path!r}: {exc}") from exc
    return fault_plan_from_json(text)


def _print_resilience(result, report_path: str | None) -> None:
    """Print the degraded-operation summary; optionally write it as JSON."""
    import json

    from repro.analysis.resilience import resilience_report, resilience_table

    report = resilience_report(result)
    print()
    print(resilience_table(report))
    if report_path is not None:
        from pathlib import Path

        Path(report_path).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {report_path}")


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import ExperimentSetting
    from repro.runtime.fleet import cell_scenario
    from repro.runtime.shards import run_sharded_scenario, run_supervised_scenario

    if args.training_frames:
        raise LotusError(
            "fleet mode has no pre-evaluation warm-up phase (learning methods "
            "train within the episode itself); drop --training-frames or use "
            "`python -m repro run`"
        )
    observing = _obs_begin(args)
    if args.scenario is not None:
        # `fleet run SCENARIO --shards N`: a registered scenario's fleet,
        # split across worker processes (trace byte-identical for every
        # shard count).
        from repro.scenarios import build_scenario

        scenario = build_scenario(args.scenario)
        label = args.scenario
        session_label = "{a.index}: {a.spec.name} (seed {a.seed})"
    else:
        # A cell is the one-member scenario of its setting, so it shares
        # the scenario path: shards, faults, supervisor and report.
        setting = ExperimentSetting(
            device=args.device,
            detector=args.detector,
            dataset=args.dataset,
            num_frames=args.frames if args.frames is not None else 1000,
            latency_constraint_ms=args.constraint_ms,
            ambient_temperature_c=args.ambient_c,
            seed=args.seed,
        )
        if args.method == "lotus-fleet" and args.shards > 1:
            raise ShardError(
                "lotus-fleet trains one shared network across the whole fleet and "
                "cannot be split across shards; run with --shards 1, or shard a "
                "scenario whose lotus-fleet members are smaller than the fleet"
            )
        sessions = args.sessions if args.sessions is not None else 64
        scenario = cell_scenario(setting, args.method, sessions)
        label = args.method
        session_label = "session {a.index} (seed {a.seed})"
    plan = _load_fault_plan(args.faults)
    if plan is not None:
        scenario = scenario.with_faults(plan)
    if args.supervised:
        result = run_supervised_scenario(
            scenario,
            args.shards,
            num_sessions=args.sessions,
            num_frames=args.frames,
            checkpoint_every=args.checkpoint_every,
        )
    else:
        result = run_sharded_scenario(
            scenario,
            args.shards,
            num_sessions=args.sessions,
            num_frames=args.frames,
        )
    if args.scenario is not None:
        print(
            f"fleet: scenario {args.scenario} — {result.num_sessions} sessions "
            f"x {result.scenario.num_frames} frames across "
            f"{result.num_shards} shard(s)"
        )
    else:
        shard_note = f" ({args.shards} shards)" if args.shards > 1 else ""
        print(
            f"fleet: {result.num_sessions} sessions x {setting.num_frames} "
            f"frames, {result.sessions[0].policy_name} on "
            f"{args.dataset}/{args.detector} ({args.device}){shard_note}"
        )
    if args.per_session:
        for assignment in result.assignments:
            session = result.sessions[assignment.index]
            print(_summary_line(session_label.format(a=assignment), session.metrics))
    if args.scenario is not None:
        from repro.analysis.tables import scenario_group_table

        print()
        print(scenario_group_table(result))
        print()
    _print_fleet_aggregate(result)
    if args.supervised:
        recovery = result.recovery
        print(
            f"supervisor: {recovery.crashes_detected} crash(es) detected, "
            f"{recovery.restarts} restart(s), recovered shards "
            f"{list(recovery.recovered_shards)}, "
            f"recovery {recovery.recovery_s:.2f} s"
        )
    if args.supervised or plan is not None:
        _print_resilience(result, args.report)
    _obs_finish(observing, label=f"fleet:{label}")
    return 0


def _cmd_scenario_list(args: argparse.Namespace) -> int:
    from repro.scenarios import FleetScenario, available_scenarios, build_scenario

    for name in available_scenarios():
        scenario = build_scenario(name)
        if isinstance(scenario, FleetScenario):
            devices = sorted({m.spec.device for m in scenario.members})
            summary = (
                f"fleet     {len(scenario.members)} members, "
                f"{scenario.total_sessions()} sessions x {scenario.num_frames} "
                f"frames, devices: {', '.join(devices)}"
            )
        else:
            summary = (
                f"scenario  {scenario.device}/{scenario.detector}/"
                f"{scenario.dataset}, {scenario.method}, "
                f"{scenario.num_sessions} sessions x {scenario.num_frames} frames"
            )
        print(f"{name:<26s} {summary}")
        description = getattr(scenario, "description", "")
        if description and args.verbose:
            print(f"{'':<26s} {description}")
    return 0


def _cmd_scenario_show(args: argparse.Namespace) -> int:
    from repro.scenarios import build_scenario

    print(build_scenario(args.name).to_json(indent=2))
    return 0


def _cmd_devices(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import _trip_temperature_c
    from repro.hardware.devices.registry import available_devices, build_device

    for name in available_devices():
        device = build_device(name)
        print(
            f"{name:<18s} cpu: {device.cpu.name} ({device.cpu.num_levels} levels, "
            f"max {device.cpu.frequency_table.max_frequency_khz / 1e3:.0f} MHz)  "
            f"gpu: {device.gpu.name} ({device.gpu.num_levels} levels, "
            f"max {device.gpu.frequency_table.max_frequency_khz / 1e3:.0f} MHz)  "
            f"trip {_trip_temperature_c(device):.0f} C"
        )
    return 0


def _cmd_detectors(args: argparse.Namespace) -> int:
    from repro.detection.registry import available_detectors, build_detector

    for name in available_detectors():
        detector = build_detector(name)
        kind = "two-stage" if detector.is_two_stage else "one-stage"
        cap = (
            f", <= {detector.proposal_model.max_proposals} proposals"
            if detector.is_two_stage
            else ""
        )
        print(
            f"{name:<14s} {kind}, stages: {', '.join(detector.stage_names)}{cap}"
        )
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.report import render_summary
    from repro.obs.sink import default_obs_dir, latest_run, list_runs, load_summary

    obs_dir = Path(args.obs_dir).expanduser() if args.obs_dir else default_obs_dir()
    if args.action == "list":
        runs = list_runs(obs_dir)
        for run_id in runs:
            summary = load_summary(run_id, obs_dir)
            label = summary.get("label") or "-"
            print(
                f"{run_id:<22s} {label:<28s} "
                f"{summary.get('num_events', 0):5d} events  "
                f"{len(summary.get('histograms', {})):3d} histograms"
            )
        print(f"{len(runs)} run(s) under {obs_dir}")
        return 0
    run_id = args.run if args.run else latest_run(obs_dir)
    print(render_summary(load_summary(run_id, obs_dir)))
    print(f"\nrun directory: {obs_dir / run_id}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import time

    from repro.errors import ExperimentError

    cache = ResultCache(args.cache_dir)
    if args.action == "path":
        print(cache.root)
        return 0
    if args.action == "info":
        stats = cache.stats()
        print(f"cache directory : {cache.root}")
        print(f"entries         : {stats.entries}")
        print(f"size            : {stats.total_bytes / 1e6:.2f} MB")
        return 0
    if args.action == "list":
        entries = cache.entries()
        now = time.time()
        for entry in entries:
            age_days = max(0.0, now - entry.modified) / 86_400.0
            print(
                f"{entry.key[:16]}  {entry.size_bytes / 1e3:9.1f} kB  "
                f"{age_days:7.1f} d old"
            )
        total = sum(entry.size_bytes for entry in entries)
        print(f"{len(entries)} entries, {total / 1e6:.2f} MB under {cache.root}")
        return 0
    if args.action == "prune":
        if args.keep_latest is None and args.max_age_days is None:
            raise ExperimentError(
                "cache prune needs --keep-latest and/or --max-age-days"
            )
        before = cache.stats()
        removed = cache.prune(
            keep_latest=args.keep_latest,
            max_age_days=args.max_age_days,
            dry_run=args.dry_run,
        )
        if args.dry_run:
            print(
                f"dry run: would prune {removed} of {before.entries} cached "
                f"results from {cache.root}"
            )
            return 0
        after = cache.stats()
        freed = before.total_bytes - after.total_bytes
        print(
            f"pruned {removed} cached results ({freed / 1e6:.2f} MB) from "
            f"{cache.root}; {after.entries} entries remain"
        )
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
        return 0
    raise AssertionError(f"unhandled cache action {args.action!r}")


# ---------------------------------------------------------------------------
# Policy lifecycle subcommands
# ---------------------------------------------------------------------------


def _policy_store(args: argparse.Namespace):
    from repro.policies import PolicyStore

    return PolicyStore(args.policy_dir)


def _cmd_policy_train(args: argparse.Namespace) -> int:
    from repro.policies import train_policy

    store = _policy_store(args)
    policy_id, result = train_policy(
        args.scenario,
        store=store,
        num_frames=args.frames,
        seed=args.seed,
        method=args.method,
        resume=args.resume,
    )
    if args.quiet:
        print(policy_id)
        return 0
    print(
        f"trained {result.policy_name} on scenario {args.scenario!r}"
        + (f" (resumed from {store.resolve(args.resume)[:12]})" if args.resume else "")
    )
    print(_summary_line("training episode", result.metrics))
    print(f"policy id: {policy_id}")
    print(f"stored in: {store.root}")
    return 0


def _cmd_policy_list(args: argparse.Namespace) -> int:
    store = _policy_store(args)
    records = store.list()
    for record in records:
        lineage = f" <- {record.parent[:12]}" if record.parent else ""
        scenario = record.train_scenario or "-"
        print(
            f"{record.policy_id[:16]}  {record.method:<22s} "
            f"{scenario:<26s} {record.size_bytes / 1e3:8.1f} kB{lineage}"
        )
    print(f"{len(records)} policies under {store.root}")
    return 0


def _cmd_policy_show(args: argparse.Namespace) -> int:
    import json

    store = _policy_store(args)
    record = store.record(args.id)
    print(json.dumps(record.metadata, indent=2, sort_keys=True))
    lineage = store.lineage(record.policy_id)
    if len(lineage) > 1:
        print("lineage: " + " <- ".join(pid[:12] for pid in lineage))
    return 0


def _cmd_policy_export(args: argparse.Namespace) -> int:
    store = _policy_store(args)
    destination = store.export(args.id, args.path)
    print(f"exported {store.resolve(args.id)[:16]} to {destination}")
    return 0


def _cmd_policy_import(args: argparse.Namespace) -> int:
    store = _policy_store(args)
    policy_id = store.import_checkpoint(args.path)
    print(f"imported {args.path} as {policy_id}")
    return 0


def _cmd_policy_eval_matrix(args: argparse.Namespace) -> int:
    from repro.analysis.tables import generalization_matrix_table
    from repro.policies import run_generalization_matrix

    store = _policy_store(args)
    runtime = ExperimentRuntime(max_workers=args.workers, cache=_cache_from(args))

    def progress(done: int, total: int, job, hit: bool) -> None:
        status = "cached" if hit else "ran"
        print(
            f"  [{done}/{total}] {status:>6s}  {job.method[:22]} on "
            f"{job.setting.device}/{job.setting.dataset}",
            flush=True,
        )

    matrix = run_generalization_matrix(
        args.policies,
        scenarios=list(args.scenarios) if args.scenarios else None,
        num_frames=args.frames,
        runtime=runtime,
        store=store,
        progress=progress if not args.quiet else None,
    )
    print(
        f"eval-matrix: {len(matrix.policies)} policies x "
        f"{len(matrix.scenarios)} scenarios — "
        f"{matrix.cache_hits} cache hits, {matrix.executed} executed"
    )
    print()
    print(generalization_matrix_table(matrix))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run Lotus reproduction experiments through the cached runtime.",
    )
    parser.add_argument(
        "--version", action="version", version=__version__,
        help="print the repro package version and exit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    # Recorded for main()'s unknown-command pre-scan (avoids poking at
    # argparse internals there).
    parser.repro_commands = subparsers.choices  # type: ignore[attr-defined]

    run = subparsers.add_parser(
        "run", help="run one experiment cell", description=_cmd_run.__doc__
    )
    _add_cell_arguments(run, plural=False)
    _add_cache_arguments(run)
    run.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    run.add_argument(
        "--obs", action="store_true",
        help="collect obs metrics/spans for this run (same as REPRO_OBS=1) "
        "and print the summary",
    )
    run.set_defaults(func=_cmd_run)

    sweep = subparsers.add_parser(
        "sweep", help="run a grid of cells concurrently with caching"
    )
    _add_cell_arguments(sweep, plural=True)
    _add_cache_arguments(sweep)
    sweep.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    sweep.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: REPRO_WORKERS or the CPU count)",
    )
    sweep.add_argument(
        "--steady", action="store_true",
        help="report steady-state (second-half) metrics instead of whole-episode",
    )
    sweep.add_argument("--quiet", action="store_true", help="suppress per-job progress")
    sweep.set_defaults(func=_cmd_sweep)

    fleet = subparsers.add_parser(
        "fleet",
        help="run one cell (or a scenario) as N vectorized lock-step "
        "sessions, optionally sharded over worker processes",
    )
    fleet.add_argument(
        "action", nargs="?", choices=("run",), default=None,
        help="optional action: `fleet run [SCENARIO] --shards N` (bare "
        "`fleet` with cell flags is equivalent to `fleet run`)",
    )
    fleet.add_argument(
        "scenario", nargs="?", default=None,
        help="registered scenario name to run, printing a per-group table "
        "(cell flags other than --sessions/--frames/--shards are ignored)",
    )
    _add_cell_arguments(fleet, plural=False)
    fleet.add_argument(
        "--sessions", type=int, default=None,
        help="fleet size N (one session per seed, seeds seed..seed+N-1; "
        "default: 64 for cells, the scenario's own total for scenarios)",
    )
    fleet.add_argument(
        "--shards", type=int, default=1,
        help="split the fleet across this many worker processes; the "
        "re-interleaved trace is byte-identical to --shards 1",
    )
    fleet.add_argument(
        "--per-session", action="store_true",
        help="print one summary line per session in addition to the aggregate",
    )
    fleet.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="inject the faults of this serialised FaultPlan",
    )
    fleet.add_argument(
        "--supervised", action="store_true",
        help="run shards under the crash-recovering "
        "supervisor (workers checkpoint periodically and restart from "
        "their latest checkpoint on death, bit-identically)",
    )
    fleet.add_argument(
        "--checkpoint-every", type=int, default=25, metavar="N",
        help="supervised mode: frames between spooled checkpoints (default 25)",
    )
    fleet.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the degraded-operation metrics as JSON (supervised or "
        "faulted runs)",
    )
    fleet.add_argument(
        "--obs", action="store_true",
        help="collect obs metrics/spans for this run (same as REPRO_OBS=1) "
        "and print the summary",
    )
    fleet.set_defaults(func=_cmd_fleet, frames=None)

    scenario = subparsers.add_parser(
        "scenario",
        help="list and inspect declarative scenarios (incl. heterogeneous "
        "fleets; run them with `fleet run NAME`)",
    )
    scenario_actions = scenario.add_subparsers(dest="action", required=True)
    scenario_list = scenario_actions.add_parser(
        "list", help="list the registered scenario library"
    )
    scenario_list.add_argument(
        "--verbose", action="store_true", help="include scenario descriptions"
    )
    scenario_list.set_defaults(func=_cmd_scenario_list)
    scenario_show = scenario_actions.add_parser(
        "show", help="print a scenario's JSON spec"
    )
    scenario_show.add_argument("name", help="registered scenario name")
    scenario_show.set_defaults(func=_cmd_scenario_show)

    report = subparsers.add_parser(
        "report", help="render tables from cached results only (no execution)"
    )
    _add_cell_arguments(report, plural=True)
    _add_cache_arguments(report)
    report.add_argument(
        "--steady", action="store_true",
        help="report steady-state (second-half) metrics instead of whole-episode",
    )
    report.set_defaults(func=_cmd_report)

    devices = subparsers.add_parser(
        "devices", help="list the registered device models"
    )
    devices.set_defaults(func=_cmd_devices)

    detectors = subparsers.add_parser(
        "detectors", help="list the registered detector cost models"
    )
    detectors.set_defaults(func=_cmd_detectors)

    cache = subparsers.add_parser(
        "cache", help="inspect, list, prune or clear the result cache"
    )
    cache.add_argument(
        "action", choices=("info", "list", "prune", "clear", "path"),
        help="info: totals; list: per-entry sizes/ages; prune: delete old "
        "entries; clear: delete everything; path: print the directory",
    )
    cache.add_argument(
        "--keep-latest", type=int, default=None,
        help="prune: keep only the N most recently written entries",
    )
    cache.add_argument(
        "--max-age-days", type=float, default=None,
        help="prune: delete entries older than D days",
    )
    cache.add_argument(
        "--dry-run", action="store_true",
        help="prune: report what would be removed without deleting anything",
    )
    _add_cache_arguments(cache)
    cache.set_defaults(func=_cmd_cache)

    policy = subparsers.add_parser(
        "policy",
        help="policy lifecycle: train into the zoo, inspect it, deploy "
        "frozen checkpoints, run the generalization eval-matrix",
    )
    policy_actions = policy.add_subparsers(dest="action", required=True)

    def _add_policy_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--policy-dir", default=None,
            help="policy store directory (default: REPRO_POLICY_DIR or "
            "~/.cache/repro-lotus/policies)",
        )

    policy_train = policy_actions.add_parser(
        "train", help="train a scenario's learning method and store the checkpoint"
    )
    policy_train.add_argument("--scenario", required=True, help="registered scenario name")
    policy_train.add_argument(
        "--frames", type=int, default=None,
        help="training episode length override (default: the scenario's)",
    )
    policy_train.add_argument(
        "--seed", type=int, default=None, help="base seed override"
    )
    policy_train.add_argument(
        "--method", default=None,
        help="method override (must be a learning method: lotus variants, "
        "ztt); cannot be combined with --resume",
    )
    policy_train.add_argument(
        "--resume", default=None, metavar="ID",
        help="continue training from a stored checkpoint (records lineage; "
        "the checkpoint fixes the method and device geometry)",
    )
    policy_train.add_argument(
        "--quiet", action="store_true",
        help="print only the resulting policy id (for scripting)",
    )
    _add_policy_dir(policy_train)
    policy_train.set_defaults(func=_cmd_policy_train)

    policy_list = policy_actions.add_parser("list", help="list the policy zoo")
    _add_policy_dir(policy_list)
    policy_list.set_defaults(func=_cmd_policy_list)

    policy_show = policy_actions.add_parser(
        "show", help="print a stored policy's metadata and lineage"
    )
    policy_show.add_argument("id", help="policy id (full or unique prefix)")
    _add_policy_dir(policy_show)
    policy_show.set_defaults(func=_cmd_policy_show)

    policy_export = policy_actions.add_parser(
        "export", help="copy a checkpoint file out of the store"
    )
    policy_export.add_argument("id", help="policy id (full or unique prefix)")
    policy_export.add_argument("path", help="destination file or directory")
    _add_policy_dir(policy_export)
    policy_export.set_defaults(func=_cmd_policy_export)

    policy_import = policy_actions.add_parser(
        "import", help="verify an external checkpoint file and add it to the store"
    )
    policy_import.add_argument("path", help="checkpoint file to import")
    _add_policy_dir(policy_import)
    policy_import.set_defaults(func=_cmd_policy_import)

    policy_matrix = policy_actions.add_parser(
        "eval-matrix",
        help="evaluate M frozen policies x N scenarios on the cached runtime",
    )
    policy_matrix.add_argument(
        "--policies", type=_split, required=True,
        help="comma-separated policy ids (full or unique prefixes)",
    )
    policy_matrix.add_argument(
        "--scenarios", type=_split, default=None,
        help="comma-separated scenario names (default: every scalar "
        "scenario in the registry)",
    )
    policy_matrix.add_argument(
        "--frames", type=int, default=None,
        help="evaluation episode length override applied to every cell",
    )
    policy_matrix.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for uncached cells (default: 1)",
    )
    policy_matrix.add_argument("--quiet", action="store_true", help="suppress per-cell progress")
    policy_matrix.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    _add_cache_arguments(policy_matrix)
    _add_policy_dir(policy_matrix)
    policy_matrix.set_defaults(func=_cmd_policy_eval_matrix)

    obs = subparsers.add_parser(
        "obs",
        help="inspect recorded observability runs (written by --obs / "
        "REPRO_OBS=1)",
    )
    obs_actions = obs.add_subparsers(dest="action", required=True)
    obs_list = obs_actions.add_parser(
        "list", help="list recorded obs runs, oldest first"
    )
    obs_list.add_argument(
        "--obs-dir", default=None,
        help="obs run directory (default: REPRO_OBS_DIR or <cache>/obs)",
    )
    obs_list.set_defaults(func=_cmd_obs)
    obs_report = obs_actions.add_parser(
        "report", help="render one run's spans, counters and exact percentiles"
    )
    obs_report.add_argument(
        "--run", default=None, metavar="ID",
        help="run id to render (default: the latest run)",
    )
    obs_report.add_argument(
        "--obs-dir", default=None,
        help="obs run directory (default: REPRO_OBS_DIR or <cache>/obs)",
    )
    obs_report.set_defaults(func=_cmd_obs)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Library errors (unknown device/method/dataset, invalid frame counts,
    ...) and unknown top-level subcommands are reported as a one-line
    message instead of a traceback or a bare argparse usage dump (nested
    actions, e.g. ``policy <action>``, keep argparse's usage output, which
    lists the valid choices).
    """
    arguments = list(argv) if argv is not None else sys.argv[1:]
    parser = build_parser()
    commands = tuple(getattr(parser, "repro_commands", ()))
    first = next((a for a in arguments if not a.startswith("-")), None)
    if first is not None and first not in commands:
        print(
            f"error: unknown command {first!r}; available commands: "
            f"{', '.join(commands)}",
            file=sys.stderr,
        )
        return 2
    args = parser.parse_args(arguments)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
