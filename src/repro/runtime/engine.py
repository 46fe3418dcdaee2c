"""The experiment execution engine.

:class:`ExperimentRuntime` turns a list of :class:`~repro.runtime.job.ExperimentJob`
objects into :class:`~repro.core.training.SessionResult` objects, using:

* an optional :class:`~repro.runtime.cache.ResultCache` consulted before any
  work is scheduled (and updated after every completed job), and
* the shared persistent worker pool (:mod:`repro.runtime.pool`) for
  ``max_workers > 1`` — workers are spawned once per process and reused
  across ``run()`` calls instead of rebuilt per call — with a
  deterministic in-process serial path for ``max_workers = 1``.

Every job is fully self-describing and freshly seeded, so the parallel and
serial paths produce identical results; the engine preserves the input
order of the jobs in its output regardless of completion order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.core.training import SessionResult
from repro.errors import ConfigurationError, ExperimentError
from repro.runtime.cache import ResultCache
from repro.runtime.job import ExperimentJob
from repro.obs import bus as _obs
from repro.runtime.pool import PoolTask, shared_pool

#: Environment variable consulted by :func:`default_worker_count`.
WORKERS_ENV = "REPRO_WORKERS"

ProgressCallback = Callable[[int, int, ExperimentJob, bool], None]


def default_worker_count() -> int:
    """Worker count used when none is given: ``REPRO_WORKERS`` or the CPU count.

    Raises:
        ConfigurationError: ``REPRO_WORKERS`` is set but is not an integer.
    """
    override = os.environ.get(WORKERS_ENV, "").strip()
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            raise ConfigurationError(
                f"{WORKERS_ENV} must be an integer worker count, got {override!r}"
            ) from None
    return max(1, os.cpu_count() or 1)


def execute_job(job: ExperimentJob) -> SessionResult:
    """Run one job to completion in the current process.

    This is the module-level entry point the process pool pickles and calls
    in worker processes; it delegates to the experiment layer's single-cell
    primitive (imported lazily to keep the runtime importable below
    :mod:`repro.analysis` in the layer stack).
    """
    from repro.analysis.experiments import execute_setting

    return execute_setting(
        job.setting,
        job.method,
        ambient=job.ambient,
        domain_datasets=job.domain_datasets,
        policy_dir=job.policy_dir,
    )


@dataclass
class RuntimeReport:
    """Bookkeeping of one :meth:`ExperimentRuntime.run_jobs` call.

    Attributes:
        total: Number of jobs requested.
        cache_hits: Jobs answered from the cache without executing.
        executed: Jobs actually run (serially or on the pool).
        uncacheable: Jobs that could not be keyed (always executed).
    """

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    uncacheable: int = 0


class ExperimentRuntime:
    """Concurrent, cached executor for experiment jobs.

    Args:
        max_workers: Size of the worker pool.  ``1`` (the default) runs
            every job serially in-process — useful for debugging, for exact
            step-through determinism, and as the fallback on constrained
            machines.  ``None`` uses :func:`default_worker_count`.
        cache: Optional result cache.  ``None`` disables caching entirely.

    The report of the most recent :meth:`run_jobs` call is available as
    :attr:`last_report`.
    """

    def __init__(
        self,
        max_workers: int | None = 1,
        cache: ResultCache | None = None,
    ):
        if max_workers is None:
            max_workers = default_worker_count()
        if max_workers < 1:
            raise ExperimentError("max_workers must be at least 1")
        self.max_workers = max_workers
        self.cache = cache
        self.last_report = RuntimeReport()

    # -- single job ----------------------------------------------------------

    def run(self, job: ExperimentJob) -> SessionResult:
        """Run one job (through the cache, in-process)."""
        return self.run_jobs([job])[0]

    # -- sweeps --------------------------------------------------------------

    def run_jobs(
        self,
        jobs: Sequence[ExperimentJob],
        progress: ProgressCallback | None = None,
    ) -> List[SessionResult]:
        """Run ``jobs``, returning results in the same order as the input.

        Cached jobs are answered immediately; the remainder is executed on
        the worker pool (or serially for ``max_workers=1``) and stored back
        into the cache.  ``progress`` is invoked once per completed job with
        ``(done_count, total, job, was_cache_hit)``.
        """
        report = RuntimeReport(total=len(jobs))
        self.last_report = report
        results: List[Optional[SessionResult]] = [None] * len(jobs)
        keys: List[Optional[str]] = [None] * len(jobs)
        pending: List[int] = []
        done = 0

        with _obs.span("runtime.run_jobs", jobs=len(jobs)):
            for index, job in enumerate(jobs):
                key = job.cache_key() if self.cache is not None else None
                if self.cache is not None and key is None:
                    report.uncacheable += 1
                    _obs.inc("cache.uncacheable")
                keys[index] = key
                cached = (
                    self.cache.load(key) if (self.cache is not None and key) else None
                )
                if cached is not None:
                    results[index] = cached
                    report.cache_hits += 1
                    _obs.inc("cache.hits")
                    done += 1
                    if progress is not None:
                        progress(done, len(jobs), job, True)
                else:
                    if self.cache is not None and key:
                        _obs.inc("cache.misses")
                    pending.append(index)

            def finish(index: int, result: SessionResult) -> None:
                nonlocal done
                results[index] = result
                if self.cache is not None and keys[index]:
                    self.cache.store(keys[index], result)
                report.executed += 1
                done += 1
                if progress is not None:
                    progress(done, len(jobs), jobs[index], False)

            if self.max_workers == 1 or len(pending) <= 1:
                for index in pending:
                    finish(index, execute_job(jobs[index]))
            else:
                # The shared persistent pool (spawned once per process, reused
                # across run() calls), clamped to the CPU count; it schedules
                # pending jobs in waves when they exceed workers.
                tasks = [
                    PoolTask(kind="job", args=(jobs[index],)) for index in pending
                ]
                shared_pool().run_tasks(
                    tasks,
                    on_result=lambda position, result: finish(
                        pending[position], result
                    ),
                )

        if any(result is None for result in results):
            raise ExperimentError("internal error: not every job produced a result")
        return list(results)  # type: ignore[arg-type]
