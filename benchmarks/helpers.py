"""Utilities shared by the paper suite.

Each test regenerates one table or figure of the paper in a single
deterministic run (``benchmark.pedantic(..., rounds=1, iterations=1)``):
the quantity of interest is the regenerated text, not the simulator's
speed, which ``perfbench/`` measures.  :func:`emit` prints each result and
writes it to ``benchmarks/results/<name>.txt``.  At the default scale those
files are committed, so :func:`emit` also pins them: a regenerated text
that differs from the committed one is written (``git diff`` shows the
change) and fails the test with the diff.  Any other ``LOTUS_BENCH_*``
scale writes to a subdirectory named after the scale and never touches the
committed files.
"""

from __future__ import annotations

import difflib
import os
from pathlib import Path
from typing import Mapping

from repro.analysis.experiments import ComparisonResult
from repro.analysis.stats import reduction_percent
from repro.env.metrics import EpisodeMetrics
from repro.runtime import ExperimentRuntime, ResultCache

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Evaluation episode length (frames) per method.  The paper uses 3000
#: iterations on the Jetson and 1000 on the phone; the default here keeps
#: the full suite within a few minutes.
EVAL_FRAMES = int(os.environ.get("LOTUS_BENCH_FRAMES", "1000"))

#: Online-training frames run before each evaluation episode for the
#: learning-based methods (the paper trains for 10,000 iterations).
TRAINING_FRAMES = int(os.environ.get("LOTUS_BENCH_TRAINING_FRAMES", "1800"))

#: Frames used by the fixed-frequency profiling experiments (Fig. 1/2, §4.2).
PROFILE_FRAMES = int(os.environ.get("LOTUS_BENCH_PROFILE_FRAMES", "300"))

#: The ``(EVAL_FRAMES, TRAINING_FRAMES, PROFILE_FRAMES)`` the committed
#: ``benchmarks/results/*.txt`` were generated at.
DEFAULT_SCALE = (1000, 1800, 300)

#: Worker processes used by the multi-cell sweeps (default 1, serial).
#: Results are byte-identical at any worker count; export e.g.
#: ``LOTUS_BENCH_WORKERS=8`` to regenerate a paper-scale table across cores.
BENCH_WORKERS = int(os.environ.get("LOTUS_BENCH_WORKERS", "1"))

#: Result-cache directory for the sweeps.  Empty (the default) disables
#: caching, so every run executes its cells; point it at a directory (e.g.
#: ``~/.cache/repro-lotus``) to re-render unchanged tables instantly.
BENCH_CACHE_DIR = os.environ.get("LOTUS_BENCH_CACHE", "")


def bench_runtime() -> ExperimentRuntime:
    """The experiment runtime the paper suite's sweeps route through.

    Configured by ``LOTUS_BENCH_WORKERS`` and ``LOTUS_BENCH_CACHE``; the
    default is a serial, uncached engine.
    """
    cache = ResultCache(BENCH_CACHE_DIR) if BENCH_CACHE_DIR else None
    return ExperimentRuntime(max_workers=BENCH_WORKERS, cache=cache)


def phone_frames(frames: int) -> int:
    """Episode length used for the Mi 11 Lite experiments.

    The paper runs 1,000 iterations on the phone versus 3,000 on the Jetson.
    The benchmarks keep the same length on both devices so that the phone's
    slower thermal transient (larger heat capacity, frames ~3x longer) is
    fully visible within the evaluation window.
    """
    return frames


def results_dir() -> Path:
    """``benchmarks/results`` at the default scale, else its subdirectory
    named after the scale (``frames3000-training10000-profile300``)."""
    scale = (EVAL_FRAMES, TRAINING_FRAMES, PROFILE_FRAMES)
    if scale == DEFAULT_SCALE:
        return RESULTS_DIR
    return RESULTS_DIR / "frames{}-training{}-profile{}".format(*scale)


def save_result(name: str, text: str) -> Path:
    """Write a result's text to ``<name>.txt`` in :func:`results_dir`."""
    path = results_dir() / f"{name}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")
    return path


def emit(name: str, text: str) -> None:
    """Print a result and save it; at the default scale, fail with a diff
    if it differs from the committed ``benchmarks/results/<name>.txt``."""
    print(f"\n===== {name} =====\n" + text)
    committed = RESULTS_DIR / f"{name}.txt"
    pinned = results_dir() == RESULTS_DIR
    before = committed.read_text(encoding="utf-8") if pinned and committed.exists() else ""
    save_result(name, text)
    after = text + "\n"
    if pinned and after != before:
        diff = difflib.unified_diff(
            before.splitlines(keepends=True), after.splitlines(keepends=True),
            f"committed/{name}.txt", f"regenerated/{name}.txt",
        )
        raise AssertionError(
            f"{name}: the regenerated result differs from the committed "
            f"{committed} (now rewritten; see git diff):\n" + "".join(diff)
        )


def method_summary_line(method: str, metrics: EpisodeMetrics) -> str:
    """One formatted row of a comparison: mean / std / satisfaction / thermal."""
    return (
        f"{method:<22s} l={metrics.mean_latency_ms:8.1f} ms  "
        f"sigma={metrics.latency_std_ms:7.1f} ms  "
        f"R_L={metrics.satisfaction_rate * 100:5.1f} %  "
        f"T_mean={metrics.mean_temperature_c:5.1f} C  "
        f"T_max={metrics.max_temperature_c:5.1f} C  "
        f"throttled={metrics.throttled_fraction * 100:4.1f} %"
    )


def comparison_block(title: str, comparison: ComparisonResult) -> str:
    """Format a whole method comparison as text."""
    lines = [title]
    for method in comparison.methods():
        lines.append(method_summary_line(method, comparison.metrics(method)))
    return "\n".join(lines)


def assert_paper_ordering(
    metrics: Mapping[str, EpisodeMetrics],
    latency_tolerance: float = 1.02,
    std_tolerance: float = 1.0,
) -> None:
    """Assert the qualitative ordering the paper reports.

    The robust claims checked on every table/figure reproduction:

    * the learning-based controllers (zTT, Lotus) do not throttle more than
      the default governors (and usually not at all);
    * Lotus achieves a mean latency and a latency standard deviation no
      worse than the default governor (within a small tolerance — the
      learning agents are trained online for a few thousand frames only, so
      individual runs carry some residual variance);
    * Lotus does not exceed the default governor's peak temperature.

    Absolute values are not asserted — the substrate is a simulator, not the
    authors' hardware — only the direction of the comparisons.  The
    quantitative margins are reported in the pinned result files.
    """
    default = metrics["default"]
    lotus = metrics["lotus"]
    assert lotus.throttled_fraction <= max(0.08, default.throttled_fraction), (
        "Lotus should not throttle more than the default governor: "
        f"lotus={lotus.throttled_fraction:.3f}, default={default.throttled_fraction:.3f}"
    )
    assert lotus.mean_latency_ms <= default.mean_latency_ms * latency_tolerance, (
        "Lotus should not be slower than the default governor: "
        f"lotus={lotus.mean_latency_ms:.1f}, default={default.mean_latency_ms:.1f}"
    )
    assert lotus.latency_std_ms <= default.latency_std_ms * std_tolerance, (
        "Lotus should not increase the latency variation relative to the default governor: "
        f"lotus={lotus.latency_std_ms:.1f}, default={default.latency_std_ms:.1f}"
    )
    assert lotus.max_temperature_c <= default.max_temperature_c + 3.0, (
        "Lotus should not run hotter than the default governor: "
        f"lotus={lotus.max_temperature_c:.1f}, default={default.max_temperature_c:.1f}"
    )
    if "ztt" in metrics:
        ztt = metrics["ztt"]
        assert ztt.throttled_fraction <= max(0.08, default.throttled_fraction), (
            "zTT should not throttle more than the default governor"
        )


def improvement_summary(metrics: Mapping[str, EpisodeMetrics]) -> str:
    """Paper-style improvement percentages of Lotus over the baselines."""
    lotus = metrics["lotus"]
    lines = []
    for baseline_name in ("default", "ztt"):
        if baseline_name not in metrics:
            continue
        baseline = metrics[baseline_name]
        lines.append(
            f"lotus vs {baseline_name:<8s}: "
            f"latency {reduction_percent(baseline.mean_latency_ms, lotus.mean_latency_ms):+6.1f} % lower, "
            f"variation {reduction_percent(baseline.latency_std_ms, lotus.latency_std_ms):+6.1f} % lower, "
            f"satisfaction {100 * (lotus.satisfaction_rate - baseline.satisfaction_rate):+6.1f} points"
        )
    return "\n".join(lines)


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
