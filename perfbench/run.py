"""The simulator's benchmark: one workload per run, every metric by name.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-default --seed 0 --seconds 10 --trace 0

``--trace 0`` measures end to end with nothing wrapped and prints the
``end_to_end`` metrics of ``BENCHMARK.json``, its host times scaled to a
reference host speed measured between the timed items (``hostspeed.py``);
``--trace 1`` runs untraced,
obs-on and traced episodes and prints the ``per_layer`` metrics, including
the tracing and obs overheads.  Every episode's trace is hashed and checked
(pinned digest for the default seed, self-consistency otherwise); a
mismatch or an exception counts as a failed operation.  The last line of
standard output is the JSON result; the lines before it record the host.

The benchmark never sets a thread-count variable (that would measure a
different program), and refuses the untimed modes ``REPRO_OBS=1``,
``REPRO_FUSED=0`` and ``REPRO_POOL=0``.  ``perfbench/README.md`` maps each
metric to its layer and workload.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# Metric names and units, as BENCHMARK.json declares them.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in _SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in _SPEC["per_layer"]}

# Tracer layer key -> (busy metric, calls metric).  Keys ending in "." are
# prefixes (the policy protocol layers carry the method name).
_LAYERS = (
    ("workload", "workload.busy_s", "workload.calls"),
    ("detection.cost", "detection.cost_s", "detection.cost_calls"),
    ("detection.propose", "detection.propose_s", "detection.propose_calls"),
    ("hardware", "hardware.busy_s", "hardware.calls"),
    ("governors.", "governors.busy_s", "governors.calls"),
    ("policy.", "policy.busy_s", "policy.calls"),
    ("rl.train_batch", "rl.train_batch_s", "rl.train_batch_calls"),
    ("rl.select_action", "rl.select_action_s", "rl.select_action_calls"),
    ("env", "env.self_s", "env.calls"),
    ("trace.append", "trace.append_s", "trace.append_calls"),
    ("store", "store.busy_s", "store.calls"),
    ("faults.", "faults.busy_s", "faults.calls"),
    ("core.results", "core.results_s", "core.results_calls"),
    ("runtime.run_tasks", "runtime.run_tasks_s", "runtime.run_tasks_calls"),
    ("runtime.merge", "runtime.merge_s", "runtime.merge_calls"),
    ("runtime.checkpoint", "runtime.checkpoint_s", "runtime.checkpoint_calls"),
)

#: Busy metrics that partition host time (with loop.other_s/worker.other_s).
LAYER_BUSY_METRICS = tuple(busy for _, busy, _ in _LAYERS)

#: Environment values that select a mode the benchmark must not time.
UNTIMED_MODES = {"REPRO_OBS": "1", "REPRO_FUSED": "0", "REPRO_POOL": "0"}

#: Episodes each timed phase runs at least, whatever ``--seconds`` says.
MIN_EPISODES = 2

#: Fresh-interpreter set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 7

#: Host-speed reference block steps per input size (``hostspeed.py``); a
#: full block takes about 0.2 s on a quiet host.
REF_STEPS = {"full": 3000, "tiny": 100}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, untimed mode)."""


# ---------------------------------------------------------------------------
# Environment and host record
# ---------------------------------------------------------------------------


def prepare_environment(workdir: Path) -> None:
    """Point caches and temporary files into ``workdir``; import the program.

    Raises :class:`BenchError` when the program's sources are missing or an
    untimed mode is selected.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {ROOT / 'src'}")
    for name, value in UNTIMED_MODES.items():
        if os.environ.get(name, "").strip() == value:
            raise BenchError(f"{name}={value} selects an untimed mode; unset it")
    (workdir / "cache").mkdir(parents=True, exist_ok=True)
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(workdir / "cache")
    tempfile.tempdir = str(workdir / "tmp")
    for path in (str(ROOT / "src"), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)


def host_record() -> dict:
    """What the numbers depend on: cores, BLAS, thread variables, switches."""
    import numpy as np

    from repro.rl import fused

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - informational only
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "numpy": np.__version__,
        "blas": blas_build,
        "threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "switches": {name: os.environ.get(name) for name in UNTIMED_MODES},
        "fused_kernels": fused.kernel_status(),
    }


def own_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def worker_peak_mb() -> float:
    """Largest peak RSS among the live pool workers (0 without a pool).

    Read from ``/proc`` after each episode: the peak over reaped children
    (``RUSAGE_CHILDREN``) would take in the set-up interpreters too.
    """
    peak = 0.0
    for process in multiprocessing.active_children():
        try:
            with open(f"/proc/{process.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024.0)
        except OSError:
            continue
    return peak


# ---------------------------------------------------------------------------
# Checked episodes
# ---------------------------------------------------------------------------


class Runner:
    """Runs checked episodes of one workload and counts the outcomes."""

    def __init__(self, workload, pinned):
        from workloads import trace_digest

        self.workload = workload
        self.expected = dict(enumerate(pinned)) if pinned else {}
        self.first_traces = {}
        self.attempted = 0
        self.failed = 0
        self._digest = trace_digest

    def episode(self, variant=None, around=contextlib.nullcontext):
        """One prepared, timed, checked episode; wall seconds or ``None``.

        ``around()`` is entered just before the timed call and left just
        after it, outside the untimed build.
        """
        self.attempted += 1
        try:
            variant = self.workload.prepare(variant)
            # Collect the previous episode's garbage outside the timed call.
            gc.collect()
            with around():
                start = time.perf_counter()
                output = self.workload.episode()
                wall = time.perf_counter() - start
            traces = self.workload.traces(output)
            digest = self._digest(traces)
        except Exception:  # noqa: BLE001 - an exception is a failed operation
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        if not self.check(variant, digest):
            return None
        self.first_traces.setdefault(variant, traces)
        return wall

    def check(self, variant, digest) -> bool:
        """Hold ``digest`` to the pinned or first-seen digest of ``variant``."""
        expected = self.expected.setdefault(variant, digest)
        if digest == expected:
            return True
        self.failed += 1
        print(
            f"digest mismatch: variant {variant} got {digest}, expected {expected}",
            file=sys.stderr,
        )
        return False

    def outcome_traces(self):
        """One trace set per variant, every variant exactly once.

        Variants no timed episode reached run here, untimed, so the outcomes
        never depend on how many episodes fitted in the run.
        """
        for variant in range(self.workload.variants):
            if variant not in self.first_traces:
                self.episode(variant)
        return [trace for variant in sorted(self.first_traces) for trace in self.first_traces[variant]]


def _repeat(step, seconds: float) -> list:
    """Results of ``step()`` run back to back for ``seconds`` (``None`` = failed).

    Runs at least :data:`MIN_EPISODES` successful steps, giving up once
    failures run past twice the budget.
    """
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < MIN_EPISODES or time.perf_counter() < deadline:
        result = step()
        if result is not None:
            results.append(result)
        elif time.perf_counter() > deadline + seconds:
            break
    return results


# ---------------------------------------------------------------------------
# Traced-run accounting
# ---------------------------------------------------------------------------


def _counter(counters, name) -> float:
    return sum(value for (key, _), value in counters.items() if key == name)


def _histogram(snapshot, name):
    import numpy as np

    state = snapshot["histograms"].get((name, ()))
    if not state or not state["chunks"]:
        return np.zeros(0)
    return np.concatenate(state["chunks"])


def _layer_metric(key: str):
    for prefix, busy, calls in _LAYERS:
        if key == prefix or (prefix.endswith(".") and key.startswith(prefix)):
            return busy, calls
    raise KeyError(f"tracer layer {key!r} has no metric")


def episode_layers(client, wall, snapshot) -> dict:
    """Per-layer values of one traced episode (seconds, counts).

    ``client`` is the parent tracer's ``(busy_ns, calls, outer_ns)``.  The
    remainders ``loop.other_s`` and ``worker.other_s`` are taken from the
    outermost shims' inclusive time, not from the sum of self times, so the
    self-test's check that the layers add up to the wall time is a real one.
    """
    client_busy_ns, client_calls, client_outer_ns = client
    counters = snapshot["counters"]
    values = {busy: 0.0 for _, busy, _ in _LAYERS}
    values.update({calls: 0 for _, _, calls in _LAYERS})
    values.update({f"policy.{method}_s": 0.0 for method in ("begin_frame", "mid_frame", "end_frame")})
    for key, ns in client_busy_ns.items():
        busy, calls = _layer_metric(key)
        values[busy] += ns / 1e9
        values[calls] += client_calls[key]
        if key.startswith("policy."):
            values[f"policy.{key.split('.', 1)[1]}_s"] += ns / 1e9
    for (name, labels), value in counters.items():
        if name not in ("perfbench.layer_s", "perfbench.layer_calls"):
            continue
        key = dict(labels)["layer"]
        busy, calls = _layer_metric(key)
        if name == "perfbench.layer_calls":
            values[calls] += value
            continue
        values[busy] += value
        if key.startswith("policy."):
            values[f"policy.{key.split('.', 1)[1]}_s"] += value
    tasks = _histogram(snapshot, "perfbench.task_s")
    shard_runs = _histogram(snapshot, "span.shard.run") / 1000.0
    values["trace.wall_s"] = wall
    values["loop.other_s"] = wall - client_outer_ns / 1e9
    values["runtime.worker_busy_s"] = float(tasks.sum())
    values["worker.other_s"] = float(tasks.sum()) - _counter(counters, "perfbench.outer_s")
    values["runtime.shard_run_s"] = float(shard_runs.sum())
    values["runtime.shard_run_max_s"] = float(shard_runs.max()) if shard_runs.size else 0.0
    values["runtime.shard_imbalance"] = (
        float(shard_runs.max() / shard_runs.mean()) if shard_runs.size else 0.0
    )
    values["runtime.dispatch_wait_s"] = (
        values["runtime.run_tasks_s"] - float(tasks.max()) if tasks.size else 0.0
    )
    values["runtime.shard_build_s"] = float(_histogram(snapshot, "span.shard.build").sum() / 1000.0)
    values["runtime.warm_hits"] = _counter(counters, "pool.warm_hits")
    values["runtime.rebuilds"] = _counter(counters, "pool.rebuilds")
    values["runtime.shm_bytes"] = _counter(counters, "pool.shm_bytes")
    values["runtime.shm_blocks"] = _counter(counters, "pool.shm_blocks")
    values["runtime.respawns"] = _counter(counters, "pool.respawns")
    values["checkpoint.writes"] = _counter(counters, "checkpoint.writes")
    values["checkpoint.restores"] = _counter(counters, "checkpoint.restores")
    values["faults.injections"] = sum(
        _counter(counters, f"faults.{kind}_cells") for kind in ("dropout", "spike", "storm")
    )
    values["fused.kernel_calls"] = _counter(counters, "fused.kernel_calls")
    values["runtime.recovery_s"] = snapshot["gauges"].get(("recovery.report.recovery_s", ()), 0.0)
    return values


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def setup_once(name: str, seed: int, size: str, started: float) -> dict:
    """One set-up in this fresh interpreter, timed from ``started``.

    Import, build, pool spawn and the first episode are timed; the digest
    of that episode is computed afterwards, for :func:`cold_setup` to check.
    The interpreter measures its own host speed with a reference block
    before importing the program (not timed) and one after the timed part.
    """
    from hostspeed import reference_factor  # imports NumPy, timed

    paused = time.perf_counter()
    factor_before = reference_factor(REF_STEPS[size])
    paused = time.perf_counter() - paused
    import workloads

    workload = workloads.build_workload(name, seed, size)
    try:
        variant = workload.prepare(0)
        output = workload.episode()
        setup_s = time.perf_counter() - started - paused
        factor = (factor_before + reference_factor(REF_STEPS[size])) / 2.0
        digest = workloads.trace_digest(workload.traces(output))
    finally:
        workload.close()
    return {"setup_s": setup_s, "factor": factor, "variant": variant, "digest": digest}


def cold_setup(runner, name: str, seed: int, size: str):
    """``(seconds, host factor)`` of one fresh interpreter's set-up, or
    ``None`` if it failed.

    The child's first episode is checked like any other, so a failed or
    mismatching set-up counts as a failed operation.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-once"]
    command += ["--workload", name, "--seed", str(seed), "--size", size]
    runner.attempted += 1
    try:
        completed = subprocess.run(command, capture_output=True, text=True, timeout=120)
        completed.check_returncode()
        result = json.loads(completed.stdout.splitlines()[-1])
    except (subprocess.SubprocessError, IndexError, ValueError) as exc:
        runner.failed += 1
        print(f"set-up child failed: {exc}\n{getattr(exc, 'stderr', '')}", file=sys.stderr)
        return None
    if not runner.check(result["variant"], result["digest"]):
        return None
    return result["setup_s"], result["factor"]


def _measure(runner, seconds: float, setup, setup_reps: int, ref_steps: int):
    """Timed episodes for ``seconds``, with ``setup_reps`` calls of ``setup()``
    spread evenly between them.

    Each episode gets the mean factor of host-speed reference blocks run
    just before and just after it (see ``hostspeed.py``); ``setup()``
    returns its own ``(wall, factor)`` or ``None``.  Returns ``(episodes,
    setups, worker_mb)``: successful ``(wall, factor)`` pairs of each kind
    and the largest pool worker's peak RSS.  Past the budget, keeps going
    until :data:`MIN_EPISODES` episodes have succeeded or as many more have
    failed.
    """
    from hostspeed import reference_factor

    episodes, setups, worker_mb = [], [], 0.0
    setups_run = late_failures = 0
    before = reference_factor(ref_steps)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if setups_run < setup_reps and elapsed >= setups_run * seconds / setup_reps:
            setups_run += 1
            sample = setup()
            if sample is not None:
                setups.append(sample)
            before = reference_factor(ref_steps)
        elif elapsed < seconds or (len(episodes) < MIN_EPISODES and late_failures < MIN_EPISODES):
            wall = runner.episode()
            worker_mb = max(worker_mb, worker_peak_mb())
            after = reference_factor(ref_steps)
            if wall is not None:
                episodes.append((wall, (before + after) / 2.0))
            elif elapsed >= seconds:
                late_failures += 1
            before = after
        else:
            break
    return episodes, setups, worker_mb


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    setup_reps: int = SETUP_REPS,
) -> dict:
    """Run one workload; returns the result object.

    ``details`` (untraced runs) carries the simulated outcomes at full
    precision, for the self-test's repeatability check, and the wall-clock
    figures before host-speed normalisation.
    """
    import workloads
    from repro.obs import bus as obs

    pinned = None
    if seed == workloads.DEFAULT_SEED:
        pinned = json.loads((BENCH_DIR / "digests.json").read_text()).get(size, {}).get(name)
        if pinned is None:
            raise BenchError(f"no pinned digest for {name} at size {size!r}")
    workload = workloads.build_workload(name, seed, size)
    runner = Runner(workload, pinned)
    metrics = {}
    details = {}
    try:
        # Warm-up, checked but untimed: the first episode builds, spawns the
        # pool and fills the program's caches.
        runner.episode()
        if not trace:
            episodes, setups, worker_mb = _measure(
                runner,
                seconds,
                lambda: cold_setup(runner, name, seed, size),
                setup_reps,
                REF_STEPS[size],
            )
            if not episodes or not setups:
                raise BenchError(f"{name}: every timed episode or every set-up failed")
            outcome = workloads.sim_outcomes(runner.outcome_traces())
            # Host times at the reference host speed (hostspeed.py), median
            # over the run: the host can change speed within one item, which
            # throws single ratios off in either direction.
            power = workload.host_sensitivity
            values = {
                "frames_per_s": workload.session_frames
                / statistics.median(w / f**power for w, f in episodes),
                "setup_s": statistics.median(w / f**power for w, f in setups),
                "peak_rss_mb": own_peak_mb() + worker_mb,
                **outcome,
            }
            metrics = {key: _metric(values[key], unit) for key, unit in END_TO_END.items()}
            details = {
                "sim": outcome,
                "raw": {
                    "episodes": len(episodes),
                    "frames_per_s_wall": workload.session_frames
                    * len(episodes)
                    / sum(w for w, _ in episodes),
                    "episode_factor_median": statistics.median(f for _, f in episodes),
                    "setup_s_wall": [w for w, _ in setups],
                    "episode_wall_factor": episodes,
                    "setup_wall_factor": setups,
                },
            }
        else:
            metrics = _traced(workload, runner, seconds, obs)
    finally:
        workload.close()
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "details": details,
    }


def _traced(workload, runner, seconds, obs):
    """Untraced/obs-on pairs, then traced episodes; per-layer metrics."""
    import workloads
    from layers import Tracer

    snapshots = []

    @contextlib.contextmanager
    def observed():
        obs.enable(fresh=True)
        try:
            yield
        finally:
            snapshots.append(obs.registry().snapshot())
            obs.disable()

    # Phase A: an untraced and an obs-on episode of one variant per pair,
    # alternating which runs first.
    order = itertools.count()

    def run_pair():
        k = next(order)
        walls = {}
        for obs_on in ((False, True) if k % 2 == 0 else (True, False)):
            walls[obs_on] = runner.episode(
                k % workload.variants, observed if obs_on else contextlib.nullcontext
            )
        return None if None in walls.values() else walls

    pairs = _repeat(run_pair, 0.4 * seconds)

    # Phase B: traced episodes.  Pool workers are re-forked after the shims
    # are in, so they inherit them; the pool is torn down before removal.
    tracer = Tracer()
    client = []

    @contextlib.contextmanager
    def traced():
        with observed(), tracer.recording():
            try:
                yield
            finally:
                client.append(tracer.totals())

    def traced_episode():
        wall = runner.episode(around=traced)
        return None if wall is None else episode_layers(client[-1], wall, snapshots[-1])

    if workload.uses_pool:
        workload.cold_reset()
    tracer.install()
    installed = tracer.snapshot()
    try:
        if workload.uses_pool:
            runner.episode()
        episodes = _repeat(traced_episode, 0.6 * seconds)
    finally:
        if workload.uses_pool:
            workload.cold_reset()
        tracer.restore()
    leaks = tracer.leaked(installed)
    if leaks:
        raise BenchError(f"tracer shims leaked: {leaks}")
    if not pairs or not episodes:
        raise BenchError("no complete traced or paired episodes")

    values = {
        name: statistics.fmean(episode[name] for episode in episodes) for name in episodes[0]
    }
    hits = sum(episode["runtime.warm_hits"] for episode in episodes)
    rebuilds = sum(episode["runtime.rebuilds"] for episode in episodes)
    values["runtime.warm_hit_ratio"] = hits / (hits + rebuilds) if hits + rebuilds else 0.0
    untraced_s = statistics.median(walls[False] for walls in pairs)
    traced_s = statistics.median(episode["trace.wall_s"] for episode in episodes)
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    values["obs.overhead_frac"] = (
        statistics.median(walls[True] / walls[False] for walls in pairs) - 1.0
    )
    values["detection.proposals_per_frame"] = workloads.proposals_per_frame(
        runner.outcome_traces()
    )
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _stop_resource_tracker() -> None:
    """Stop and reap the tracker process the pool's shared memory started.

    ``multiprocessing`` leaves it to exit after this process does; the
    benchmark waits for every process it started instead.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Input sizes (the self-test runs "tiny"), and the set-up child mode.
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-once", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        prepare_environment(ROOT / ".perfbench")
        if args.setup_once:
            print(json.dumps(setup_once(args.workload, args.seed, args.size, started)))
            return 0
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(
                f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}"
            )
        # Build step, untimed: compile (once per checkout) and self-test the
        # fused C kernels before any set-up is measured.
        from repro.rl import fused

        fused.fused_adam()
        print("host " + json.dumps(host_record(), sort_keys=True))
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _stop_resource_tracker()
    details = result.pop("details")
    if "raw" in details:
        print("wall-clock " + json.dumps(details["raw"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
