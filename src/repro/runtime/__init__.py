"""Experiment execution runtime: jobs, caching, worker pool, sweeps, CLI.

This layer sits between :mod:`repro.core` (which can run a single online
session) and :mod:`repro.analysis` (which decides *what* to run for each
paper table and figure).  It contributes the *how*: a sweep is expanded into
independent, fully-described jobs; jobs are answered from a content-
addressed disk cache when their inputs are unchanged; the remainder fans
out over a process pool (or runs serially for ``max_workers=1``) and is
stored back for next time.  See :mod:`repro.runtime.cli` for the
``python -m repro`` command-line front end.
"""

from repro.runtime.cache import CacheEntry, CacheStats, ResultCache, default_cache_dir
from repro.runtime.engine import (
    ExperimentRuntime,
    RuntimeReport,
    default_worker_count,
    execute_job,
)
from repro.runtime.fleet import (
    FleetRunResult,
    FleetScenarioResult,
    ShardPlan,
    collect_degraded,
    make_fleet_environment,
    make_fleet_policy,
    make_group_environment,
    make_member_policy,
    run_fleet,
    run_fleet_scenario,
    scalar_reference_session,
)
from repro.runtime.job import ExperimentJob, config_fingerprint, job_key
from repro.runtime.pool import (
    FleetWorkerPool,
    PoolRunReport,
    PoolTask,
    acquire_pool,
    pool_enabled,
    shared_pool,
    shutdown_shared_pool,
)
from repro.runtime.shards import (
    RecoveryReport,
    SupervisedScenarioResult,
    plan_shards,
    run_sharded_fleet,
    run_sharded_scenario,
    run_supervised_scenario,
)
from repro.runtime.sweep import SweepSpec, sweep_metrics_map

__all__ = [
    "CacheEntry",
    "CacheStats",
    "ExperimentJob",
    "ExperimentRuntime",
    "FleetRunResult",
    "FleetScenarioResult",
    "FleetWorkerPool",
    "PoolRunReport",
    "PoolTask",
    "RecoveryReport",
    "ResultCache",
    "RuntimeReport",
    "ShardPlan",
    "SupervisedScenarioResult",
    "SweepSpec",
    "acquire_pool",
    "collect_degraded",
    "config_fingerprint",
    "default_cache_dir",
    "default_worker_count",
    "execute_job",
    "job_key",
    "make_fleet_environment",
    "make_fleet_policy",
    "make_group_environment",
    "make_member_policy",
    "plan_shards",
    "pool_enabled",
    "run_fleet",
    "run_fleet_scenario",
    "run_sharded_fleet",
    "run_sharded_scenario",
    "run_supervised_scenario",
    "scalar_reference_session",
    "shared_pool",
    "shutdown_shared_pool",
    "sweep_metrics_map",
]
