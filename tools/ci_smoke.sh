#!/usr/bin/env bash
# End-to-end smoke checks, one named entry per CI matrix job.
#
#   tools/ci_smoke.sh examples|policy|fault|fused-kill-switch|obs
#
# Run from the repository root.  Each entry writes its artefacts under
# smoke-out/<name>/ (CI uploads that directory) and exits non-zero on the
# first failing step.
set -euo pipefail

export PYTHONPATH=src
name="${1:-}"
out="smoke-out/$name"

smoke_examples() {
    python examples/quickstart.py --frames 60 --workers 1 --no-cache
    python examples/custom_device.py --frames 60
    python examples/autonomous_driving.py --frames 60 --training-frames 0 --workers 1 --no-cache
    python examples/drone_surveillance.py --frames 60 --training-frames 0 --workers 1 --no-cache
    python -m repro fleet run mixed-edge-fleet --sessions 8 --frames 40
    python -m repro fleet run mixed-edge-fleet --sessions 8 --frames 40 --shards 2
}

smoke_policy() {
    # Lifecycle: tiny train -> checkpoint -> resume (lineage) -> frozen
    # evaluation on a second scenario -> 2x2 eval-matrix, then re-render it
    # from the cache.
    local zoo="$out/policy-zoo" id1 id2
    id1=$(python -m repro policy train --scenario jetson-kitti-baseline \
        --frames 120 --quiet --policy-dir "$zoo")
    id2=$(python -m repro policy train --scenario drone-climb \
        --frames 120 --quiet --policy-dir "$zoo")
    python -m repro policy list --policy-dir "$zoo"
    python -m repro policy train --scenario jetson-kitti-baseline --frames 60 \
        --resume "$id1" --policy-dir "$zoo"
    REPRO_POLICY_DIR="$zoo" python -m repro run --method "policy:$id1" \
        --detector mask_rcnn --dataset visdrone2019 --frames 80 --no-cache
    local matrix=(policy eval-matrix --policies "$id1,$id2"
        --scenarios jetson-kitti-baseline,drone-climb --frames 80
        --policy-dir "$zoo" --cache-dir "$out/policy-cache")
    python -m repro "${matrix[@]}" | tee "$out/eval-matrix.txt"
    python -m repro "${matrix[@]}" --quiet | grep "4 cache hits, 0 executed"
    python -m repro policy export "$id1" "$out/lotus-policy.ckpt" --policy-dir "$zoo"
}

smoke_fault() {
    # Channel loss plus one worker crash, on a scenario and on a cell.  The
    # dropout, spike and storm give each per-frame flag of the fault
    # wrapper a frame, after the crashed shard's resume (frame 6).
    cat > "$out/fault-plan.json" <<'EOF'
{"kind": "fault-plan", "name": "ci-smoke", "seed": 7, "events": [
  {"kind": "sensor_dropout", "start_frame": 5, "num_frames": 6, "probability": 0.7},
  {"kind": "sensor_spike", "frame": 14, "delta_c": 8.0},
  {"kind": "throttling_storm", "start_frame": 16, "num_frames": 3},
  {"kind": "channel_faults", "drop_rate": 0.15, "duplicate_rate": 0.05},
  {"kind": "worker_crash", "frame": 10, "shard": 1}
]}
EOF
    python -m repro fleet run cctv-burst --shards 2 --supervised \
        --faults "$out/fault-plan.json" --frames 24 --sessions 4 \
        --checkpoint-every 6 --report "$out/resilience.json" | tee "$out/fault-smoke.txt"
    grep -q "crash(es) detected" "$out/fault-smoke.txt"
    local cell=(fleet run --method default --sessions 4 --frames 24
        --shards 2 --supervised --faults "$out/fault-plan.json" --per-session)
    python -m repro "${cell[@]}" --checkpoint-every 6 \
        --report "$out/cell-resilience.json" | tee "$out/cell-fault-smoke.txt"
    grep -q "crash(es) detected" "$out/cell-fault-smoke.txt"
    # Recovery from a checkpoint must equal a restart from frame zero,
    # session by session, through the CLI's metrics.
    python -m repro "${cell[@]}" --checkpoint-every 0 | tee "$out/cell-restart-smoke.txt"
    grep -q "crash(es) detected" "$out/cell-restart-smoke.txt"
    test "$(grep -c '^session' "$out/cell-fault-smoke.txt")" -eq 4
    cmp <(grep '^session' "$out/cell-fault-smoke.txt") \
        <(grep '^session' "$out/cell-restart-smoke.txt")
}

smoke_fused_kill_switch() {
    # Two runs must hash identically with and without the fused kernels: a
    # lotus-fleet cell, the governor-only members of mixed-edge-fleet
    # (several devices and detectors, per-session innovation std), and
    # scalar lotus, ztt and lotus-shared-buffer sessions (the last mixes next
    # widths in its batches, so it trains on the NumPy learner on both
    # sides and only its greedy actions use the dqn kernels).  The
    # digest covers each trace's column bits and datasets, the cell's
    # session metrics, and every session's loss and reward histories.
    # The fused side must show, through repro.obs, that every kernel family
    # ran, each of the kernels a fused fleet frame calls included (no
    # silent fallback), and the other side that none did.  In the governed
    # run, each frame phase kernel must run once per frame in every group,
    # one-stage and two-stage ones alike.  That run must throttle at least
    # once (its thermal-soak member does), so the throttle branch is under
    # the digest comparison.  Each scalar session runs on the one-session
    # fleet engine: each frame phase kernel once per frame.  A hot-ambient
    # (45 C) lotus-fleet cell and scalar lotus session must each fire the
    # cool-down, so both regimes' cool-down selection is under the digest.
    local fused
    for fused in 0 1; do
        REPRO_FUSED=$fused python - "$out/trace-fused-$fused.sha256" <<'PY'
import dataclasses, hashlib, os, sys

import numpy as np

from repro import ExperimentSetting, execute_setting, obs, run_fleet
from repro.analysis.experiments import make_environment, make_policy
from repro.core.training import OnlineSession
from repro.detection.registry import build_detector
from repro.env.fleet import _FRAME_RESULT_ARRAY_FIELDS, run_fleet_episode
from repro.env.trace import COLUMN_DTYPES
from repro.kernels import FAMILIES, kernel_status
from repro.runtime.fleet import make_fleet_environment, make_fleet_policy, run_fleet_scenario
from repro.scenarios import FleetScenario, build_scenario

fused = os.environ["REPRO_FUSED"] == "1"
registry = obs.enable()
PHASES = ("fleet_begin_frame", "fleet_first_stage", "fleet_second_stage")


def kernel_calls():
    return {
        dict(labels)["kernel"]: count
        for (name, labels), count in registry.counters.items()
        if name == "fused.kernel_calls"
    }


def trace_digest(trace):
    digest = hashlib.sha256()
    for name in _FRAME_RESULT_ARRAY_FIELDS:
        column = np.ascontiguousarray(trace.column_window(name))
        digest.update(f"{name}:{column.dtype.str}:{column.shape}".encode())
        if column.dtype.itemsize == 8:
            column = column.view(np.int64)
        digest.update(column.tobytes())
    digest.update("\n".join("\t".join(row) for row in trace.datasets_window()).encode())
    return digest


result = run_fleet(ExperimentSetting(num_frames=60, seed=0), "lotus-fleet", 8)
digest = trace_digest(result.fleet_trace)
# Session metrics and histories; timing fields (elapsed_s) are
# legitimately nondeterministic and stay out.
for session in result.sessions:
    digest.update(session.policy_name.encode())
    for metrics in (session.metrics, session.steady_metrics):
        values = [getattr(metrics, f.name) for f in dataclasses.fields(metrics)]
        digest.update(np.array(values, dtype=np.float64).view(np.int64).tobytes())
    for history in (session.losses, session.rewards):
        digest.update(np.array(history, dtype=np.float64).view(np.int64).tobytes())

base = build_scenario("mixed-edge-fleet")
governed = FleetScenario(
    name="mixed-edge-fleet-governed",
    members=tuple(
        member
        for member in base.members
        if member.spec.method in ("default", "performance", "powersave", "fixed")
    ),
)
before = kernel_calls()
mixed = run_fleet_scenario(governed, num_sessions=12, num_frames=48)
after = kernel_calls()
groups = {(a.spec.device, a.spec.detector) for a in mixed.assignments}
assert {build_detector(d).is_two_stage for _, d in groups} == {False, True}, groups
for kernel in PHASES:
    ran = after.get(kernel, 0) - before.get(kernel, 0)
    assert ran == (48 * len(groups) if fused else 0), (kernel, ran, groups)
assert any(
    mixed.fleet_trace.column_window(name).any()
    for name in ("cpu_throttled", "gpu_throttled")
), "the governed mixed-edge-fleet run never throttled"
mixed_digest = trace_digest(mixed.fleet_trace)

# Scalar sessions that train (learning starts after 64 transitions).
scalar_digest = hashlib.sha256()
for method in ("lotus", "ztt", "lotus-shared-buffer"):
    before = kernel_calls()
    session = execute_setting(ExperimentSetting(num_frames=160, seed=0), method)
    after = kernel_calls()
    assert session.losses, method
    for kernel in PHASES:
        ran = after.get(kernel, 0) - before.get(kernel, 0)
        assert ran == (160 if fused else 0), (method, kernel, ran)
    for name in COLUMN_DTYPES:
        column = np.ascontiguousarray(session.trace.column(name))
        if column.dtype.itemsize == 8:
            column = column.view(np.int64)
        scalar_digest.update(name.encode() + column.tobytes())
    scalar_digest.update("\n".join(session.trace.datasets()).encode())
    for history in (session.losses, session.rewards):
        scalar_digest.update(np.array(history, dtype=np.float64).view(np.int64).tobytes())
# Hot-ambient Lotus runs, where the cool-down fires: the two regimes'
# action-selection orders differ exactly there.  Each must cool down at
# least once on both sides.
hot_digest = hashlib.sha256()
hot = ExperimentSetting(num_frames=120, seed=0, ambient_temperature_c=45.0)
environment = make_fleet_environment(hot, 4)
agent = make_fleet_policy("lotus-fleet", environment, 120, seed=0)
hot_digest.update(trace_digest(run_fleet_episode(environment, agent, 120)).digest())
scalar_hot = dataclasses.replace(hot, num_frames=220)
environment = make_environment(scalar_hot)
policy = make_policy("lotus", environment, 220, seed=0)
session = OnlineSession(environment, policy).run(220)
for name in COLUMN_DTYPES:
    column = np.ascontiguousarray(session.trace.column(name))
    if column.dtype.itemsize == 8:
        column = column.view(np.int64)
    hot_digest.update(name.encode() + column.tobytes())
for learner in (agent, policy):
    assert learner.cooldown.trigger_count > 0, f"hot {learner.name} never cooled down"
    for history in (learner.loss_history, learner.reward_history):
        hot_digest.update(np.array(history, dtype=np.float64).view(np.int64).tobytes())

calls = kernel_calls()
obs.disable()
families = {
    "random": ("fleet_normal",),
    "fleet": (*PHASES, "fleet_request_levels", "fleet_select_levels"),
    "dqn": ("dqn_train_step", "dqn_greedy"),
}
assert set(families) == set(FAMILIES) == set(kernel_status()), kernel_status()
for family, kernels in families.items():
    ran = [kernel for kernel in kernels if calls.get(kernel, 0) > 0]
    assert bool(ran) == fused, (family, calls)
for kernel in families["fleet"]:
    assert (calls.get(kernel, 0) > 0) == fused, (kernel, calls)
status = set(kernel_status().values())
assert status == ({"fused"} if fused else {"disabled"}), kernel_status()

with open(sys.argv[1], "w") as handle:
    handle.write(
        "\n".join(
            d.hexdigest() for d in (digest, mixed_digest, scalar_digest, hot_digest)
        ) + "\n"
    )
print("REPRO_FUSED=%d -> lotus-fleet %s, mixed governed %s, scalar sessions %s, "
      "hot lotus %s"
      % (fused, digest.hexdigest(), mixed_digest.hexdigest(), scalar_digest.hexdigest(),
         hot_digest.hexdigest()))
PY
    done
    diff "$out/trace-fused-0.sha256" "$out/trace-fused-1.sha256"
}

smoke_obs() {
    # A supervised faulted scenario (crash + recovery) under --obs, then
    # check the recorded run parses and re-renders.
    local runs="$out/obs-runs"
    cat > "$out/obs-fault-plan.json" <<'EOF'
{"kind": "fault-plan", "name": "obs-smoke", "seed": 7, "events": [
  {"kind": "worker_crash", "frame": 10, "shard": 0}
]}
EOF
    REPRO_OBS_DIR="$runs" python -m repro fleet run cctv-burst --shards 2 \
        --supervised --faults "$out/obs-fault-plan.json" --frames 24 \
        --sessions 4 --checkpoint-every 6 --obs | tee "$out/obs-smoke.txt"
    grep -q "obs: wrote" "$out/obs-smoke.txt"
    grep -q "pool.crashes_detected" "$out/obs-smoke.txt"
    python - "$runs" <<'PY'
import pathlib, sys
from repro.obs.sink import iter_events, latest_run, load_summary
obs_dir = pathlib.Path(sys.argv[1])
run_id = latest_run(obs_dir)
events = list(iter_events(run_id, obs_dir))
assert events, "events.jsonl is empty"
summary = load_summary(run_id, obs_dir)
assert summary["schema"] == "repro-obs-summary/v1"
assert any(n.startswith("span.") for n in summary["histograms"])
print(f"obs run {run_id}: {len(events)} events ok")
PY
    REPRO_OBS_DIR="$runs" python -m repro obs list
    REPRO_OBS_DIR="$runs" python -m repro obs report
}

case "$name" in
    examples | policy | fault | fused-kill-switch | obs)
        mkdir -p "$out"
        "smoke_${name//-/_}"
        ;;
    *)
        echo "usage: $0 examples|policy|fault|fused-kill-switch|obs" >&2
        exit 2
        ;;
esac
