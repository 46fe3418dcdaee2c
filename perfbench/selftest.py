"""Tiny-size self-test of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload, at tiny sizes, it checks that:

* every metric ``BENCHMARK.json`` names is emitted, with its unit;
* untraced runs pass the pinned digest of the default seed, and the
  simulated outcomes repeat exactly across two runs of the default seed and
  of a held-out second seed;
* the traced run's untraced, obs-on and traced episodes all pass the same
  digest, and every shim it installed is gone afterwards;
* the layer times add up: the named layers plus ``loop.other_s`` (and, for
  pool workloads, ``worker.other_s``) equal the traced wall time (plus the
  workers' task time) within 1 %, and neither remainder is negative.  The
  remainders come from the outermost shims' inclusive time, measured apart
  from the self times, so this checks that no layer time is lost or counted
  twice.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

HELD_OUT_SEED = 1
TOLERANCE = 0.01


def _values(result):
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def check_names(result, declared, failures, label):
    for entry in declared:
        metric = result["metrics"].get(entry["name"])
        if metric is None:
            failures.append(f"{label}: metric {entry['name']} not emitted")
        elif metric["unit"] != entry["unit"]:
            failures.append(f"{label}: {entry['name']} unit {metric['unit']} != {entry['unit']}")


def check_layer_sum(values, failures, label):
    named = sum(values[name] for name in run.LAYER_BUSY_METRICS)
    total = named + values["loop.other_s"] + values["worker.other_s"]
    expected = values["trace.wall_s"] + values["runtime.worker_busy_s"]
    if abs(total - expected) > TOLERANCE * expected:
        failures.append(f"{label}: layers sum to {total:.6f} s, traced wall {expected:.6f} s")
    if values["loop.other_s"] < -TOLERANCE * values["trace.wall_s"]:
        failures.append(f"{label}: loop.other_s {values['loop.other_s']:.6f} s is negative")
    if values["worker.other_s"] < -TOLERANCE * values["runtime.worker_busy_s"]:
        failures.append(f"{label}: worker.other_s {values['worker.other_s']:.6f} s is negative")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.prepare_environment(run.ROOT / ".perfbench")
    import workloads
    from layers import Tracer

    # Every patch site and its original, to prove the traced run restores them.
    probe = Tracer()
    probe.install()
    sites = probe.snapshot()
    probe.restore()

    failures = []
    for name in workloads.WORKLOADS:
        for seed in (workloads.DEFAULT_SEED, HELD_OUT_SEED):
            results = [
                run.run(name, seed, 0.2, trace=False, size="tiny", setup_reps=1)
                for _ in range(2)
            ]
            label = f"{name} seed {seed}"
            for result in results:
                if not result["correct"] or result["failed"]:
                    failures.append(f"{label}: {result['failed']} failed episodes")
                check_names(result, spec["end_to_end"], failures, label)
            if results[0]["details"]["sim"] != results[1]["details"]["sim"]:
                failures.append(f"{label}: simulated outcomes differ between runs")
        traced = run.run(name, workloads.DEFAULT_SEED, 0.2, trace=True, size="tiny")
        label = f"{name} traced"
        if not traced["correct"] or traced["failed"]:
            failures.append(f"{label}: {traced['failed']} failed episodes")
        check_names(traced, spec["per_layer"], failures, label)
        leaks = probe.leaked(sites)
        if leaks:
            failures.append(f"{label}: shims left installed: {leaks}")
        check_layer_sum(_values(traced), failures, label)
        print(f"{name}: checked", flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
