"""Ablation of the Lotus design choices.

DESIGN.md calls out four design decisions of the Lotus agent; this bench
compares the full agent against ablated variants on the Jetson + FasterRCNN
+ VisDrone2019 setting:

* ``lotus-single-action``   — only one frequency decision per frame
  (removes the paper's "when" contribution);
* ``lotus-shared-buffer``   — a single replay buffer for both decision
  points instead of the dual-buffer design;
* ``lotus-always-cooldown`` — zTT-style unconditional cool-down instead of
  the epsilon_t-greedy rule;
* ``lotus-no-slim``         — a full-width Q-network for both decisions
  instead of the slimmable [0.75x, 1x] design.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import ExperimentSetting, run_ablation
from repro.analysis.tables import format_table

from benchmarks.helpers import bench_runtime, EVAL_FRAMES, TRAINING_FRAMES, emit, run_once

VARIANTS = (
    "lotus",
    "lotus-single-action",
    "lotus-shared-buffer",
    "lotus-always-cooldown",
    "lotus-no-slim",
)


@pytest.mark.paper
def test_ablation_lotus_design_choices(benchmark):
    setting = ExperimentSetting(
        device="jetson-orin-nano",
        detector="faster_rcnn",
        dataset="visdrone2019",
        num_frames=EVAL_FRAMES,
        training_frames=TRAINING_FRAMES,
        seed=0,
    )
    comparison = run_once(benchmark, lambda: run_ablation(setting, variants=VARIANTS, runtime=bench_runtime()))

    rows = []
    for method in comparison.methods():
        metrics = comparison.metrics(method)
        rows.append(
            [
                method,
                f"{metrics.mean_latency_ms:.1f}",
                f"{metrics.latency_std_ms:.1f}",
                f"{metrics.satisfaction_rate * 100:.1f}%",
                f"{metrics.mean_temperature_c:.1f}",
                f"{metrics.throttled_fraction * 100:.1f}%",
            ]
        )
    table = format_table(
        ["variant", "l (ms)", "sigma (ms)", "R_L", "T_mean (C)", "throttled"], rows
    )
    emit("ablation_design_choices", table)

    metrics = {m: comparison.metrics(m) for m in comparison.methods()}
    full = metrics["lotus"]
    # Sanity of the full agent: it never collapses — a reasonable
    # satisfaction rate, no sustained hardware throttling, and a latency in
    # the same range as every ablated variant.  The quantitative differences
    # between variants are reported (the table above, which emit pins to
    # benchmarks/results/ablation_design_choices.txt) rather than asserted:
    # with online learning over a few thousand frames the per-variant
    # results carry noticeable seed-to-seed variance.
    assert full.satisfaction_rate >= 0.5
    assert full.throttled_fraction <= 0.1
    for name, variant in metrics.items():
        assert variant.mean_latency_ms <= 2.0 * full.mean_latency_ms, name
        assert full.mean_latency_ms <= 2.0 * variant.mean_latency_ms, name
