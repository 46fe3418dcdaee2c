"""Lotus reproduction: learning-based online thermal and latency variation
management for two-stage detectors on edge devices (DAC 2024).

The package is organised bottom-up:

* :mod:`repro.kernels` — the optional, self-verified C kernels the layers
  below reach for their hot loops (one family each resolves on its own).
* :mod:`repro.hardware` — simulated edge devices (DVFS, power, RC thermal
  network, throttling, sysfs).
* :mod:`repro.detection` — two-stage detector cost models (FasterRCNN,
  MaskRCNN, YOLOv5).
* :mod:`repro.workload` — dataset profiles and frame streams (KITTI,
  VisDrone2019, domain switches).
* :mod:`repro.env` — the frame-by-frame inference environment with two
  DVFS decision points per frame, the policy interface, traces and metrics,
  plus the vectorized fleet environment advancing N sessions in lock-step.
* :mod:`repro.governors` — the default operating-system governors.
* :mod:`repro.rl` — the NumPy DQN substrate (slimmable MLP, Adam, replay).
* :mod:`repro.core` — the Lotus agent, reward, cool-down and controller.
* :mod:`repro.baselines` — the zTT learning-based baseline.
* :mod:`repro.comms` — the simulated agent/client socket deployment, with
  lossy channels and a retry/dedup delivery protocol.
* :mod:`repro.faults` — seeded declarative fault plans (sensor dropouts,
  spikes, throttling storms, channel loss, worker crashes) and the
  policy-boundary injection wrappers.
* :mod:`repro.scenarios` — declarative, serialisable scenario specs and
  heterogeneous fleet compositions, with a validating registry of named
  scenarios.
* :mod:`repro.policies` — the policy lifecycle: bit-exact training
  checkpoints, the content-addressed policy zoo, frozen inference-only
  deployment (``policy:<id>`` methods) and the cross-scenario
  generalization matrix.
* :mod:`repro.store` — the chunked on-disk columnar trace format
  (atomic spool-rename writer, per-chunk SHA-256) and the zero-copy
  memory-mapped reader serving frames, session slices and column windows.
* :mod:`repro.runtime` — the experiment execution engine: sweep expansion,
  a process-pool worker fleet, disk result caching, the vectorized fleet
  execution mode (homogeneous and grouped-heterogeneous) and the
  ``python -m repro`` CLI.
* :mod:`repro.analysis` — experiment runners, tables and figure series for
  every table and figure of the paper.
* :mod:`repro.obs` — zero-overhead-when-off observability: span-based
  tracing, typed counters/gauges, exact bounded-memory histograms, JSONL
  sinks and the ``obs report`` rendering.  Off by default; ``REPRO_OBS=1``
  or ``--obs`` turns it on without changing a single trace byte.

Quickstart::

    from repro import (
        ExperimentSetting, make_environment, LotusController, summarize_trace,
    )

    setting = ExperimentSetting(device="jetson-orin-nano",
                                detector="faster_rcnn",
                                dataset="kitti",
                                num_frames=500)
    environment = make_environment(setting)
    controller = LotusController(environment)
    trace = controller.run(setting.num_frames)
    print(summarize_trace(trace))
"""

from repro.analysis.experiments import (
    ExperimentSetting,
    default_latency_constraint,
    execute_setting,
    make_environment,
    make_policy,
    run_comparison,
    run_comparison_batch,
)
from repro.baselines import ZttConfig, ZttPolicy
from repro.core import FleetLotusAgent, LotusAgent, LotusConfig, LotusController
from repro.detection import available_detectors, build_detector
from repro.env import (
    BatchedInferenceEnvironment,
    DiurnalAmbient,
    FleetPolicy,
    FleetTrace,
    InferenceEnvironment,
    LinearRampAmbient,
    PerSessionPolicies,
    Policy,
    Trace,
    run_episode,
    run_fleet_episode,
    summarize_trace,
)
from repro.errors import (
    FaultError,
    LotusError,
    ObsError,
    PolicyError,
    ReproError,
    StoreError,
)
from repro.faults import (
    ChannelFaults,
    FaultPlan,
    FaultedFleetPolicy,
    SensorDropout,
    SensorSpike,
    ThrottlingStorm,
    WorkerCrash,
    compile_fault_plan,
    fault_plan_from_dict,
    fault_plan_from_json,
)
from repro.governors import build_batched_default_governor, build_default_governor
from repro.hardware import DeviceFleet, available_devices, build_device
from repro.policies import (
    FrozenLotusPolicy,
    FrozenZttPolicy,
    GeneralizationMatrix,
    PolicyCheckpoint,
    PolicyStore,
    checkpoint_from_policy,
    policy_from_checkpoint,
    run_generalization_matrix,
    train_policy,
)
from repro.analysis import (
    FleetSummary,
    ResilienceReport,
    fleet_summary_table,
    resilience_report,
    resilience_table,
    summarize_fleet,
)
from repro.comms import LossyChannel, RemotePolicy, SimulatedChannel
from repro.obs import ObsRegistry, obs_enabled
from repro.runtime import (
    ExperimentJob,
    ExperimentRuntime,
    FleetScenarioResult,
    FleetWorkerPool,
    PoolRunReport,
    RecoveryReport,
    ResultCache,
    ShardPlan,
    SweepSpec,
    cell_scenario,
    make_fleet_environment,
    make_fleet_policy,
    plan_shards,
    run_fleet,
    run_fleet_scenario,
    run_sharded_scenario,
    run_supervised_scenario,
    shared_pool,
    shutdown_shared_pool,
)
from repro.scenarios import (
    FleetMember,
    FleetScenario,
    ScenarioSpec,
    available_scenarios,
    build_scenario,
    register_scenario,
)
from repro.store import (
    FleetTraceWriter,
    MappedFleetTrace,
    fleet_traces_bitwise_equal,
    write_fleet_trace,
)
from repro.workload import FleetFrameStream, available_datasets, build_dataset

__version__ = "1.10.0"

__all__ = [
    "BatchedInferenceEnvironment",
    "ChannelFaults",
    "DeviceFleet",
    "DiurnalAmbient",
    "ExperimentJob",
    "ExperimentRuntime",
    "ExperimentSetting",
    "FaultError",
    "FaultPlan",
    "FaultedFleetPolicy",
    "FleetFrameStream",
    "FleetLotusAgent",
    "FleetMember",
    "FleetPolicy",
    "FleetScenario",
    "FleetScenarioResult",
    "FleetSummary",
    "FleetTrace",
    "FleetTraceWriter",
    "FleetWorkerPool",
    "FrozenLotusPolicy",
    "FrozenZttPolicy",
    "GeneralizationMatrix",
    "LinearRampAmbient",
    "LossyChannel",
    "MappedFleetTrace",
    "ObsError",
    "ObsRegistry",
    "PolicyCheckpoint",
    "PolicyError",
    "PolicyStore",
    "PoolRunReport",
    "RecoveryReport",
    "RemotePolicy",
    "ReproError",
    "ResilienceReport",
    "ResultCache",
    "ScenarioSpec",
    "SensorDropout",
    "SensorSpike",
    "ShardPlan",
    "SimulatedChannel",
    "StoreError",
    "SweepSpec",
    "ThrottlingStorm",
    "WorkerCrash",
    "InferenceEnvironment",
    "LotusAgent",
    "LotusConfig",
    "LotusController",
    "LotusError",
    "PerSessionPolicies",
    "Policy",
    "Trace",
    "ZttConfig",
    "ZttPolicy",
    "available_datasets",
    "available_detectors",
    "available_devices",
    "available_scenarios",
    "build_dataset",
    "build_batched_default_governor",
    "build_default_governor",
    "build_detector",
    "build_device",
    "build_scenario",
    "cell_scenario",
    "checkpoint_from_policy",
    "compile_fault_plan",
    "default_latency_constraint",
    "execute_setting",
    "fault_plan_from_dict",
    "fault_plan_from_json",
    "fleet_summary_table",
    "fleet_traces_bitwise_equal",
    "make_environment",
    "make_fleet_environment",
    "make_fleet_policy",
    "make_policy",
    "obs_enabled",
    "plan_shards",
    "policy_from_checkpoint",
    "register_scenario",
    "resilience_report",
    "resilience_table",
    "run_comparison",
    "run_comparison_batch",
    "run_episode",
    "run_fleet",
    "run_fleet_episode",
    "run_fleet_scenario",
    "run_generalization_matrix",
    "run_sharded_scenario",
    "run_supervised_scenario",
    "shared_pool",
    "shutdown_shared_pool",
    "summarize_trace",
    "summarize_fleet",
    "train_policy",
    "write_fleet_trace",
    "__version__",
]
