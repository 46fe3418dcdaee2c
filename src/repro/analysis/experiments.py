"""Experiment runners: one function per paper experiment.

These runners are the single source of truth for how the evaluation is set
up (devices, detectors, datasets, latency constraints, methods); the
benchmark harness and the examples both call into them so that the numbers
printed by ``pytest benchmarks/`` are produced by exactly the same code path
a library user would run.

Execution is delegated to :mod:`repro.runtime`: every multi-cell runner
expands its work into :class:`~repro.runtime.job.ExperimentJob` objects and
hands them to an :class:`~repro.runtime.engine.ExperimentRuntime`, so any
runner can be parallelised and cached simply by passing a configured
runtime.  The default (no ``runtime`` argument) is a serial, uncached
engine, which reproduces the historical behaviour exactly.  The single-cell
primitive behind all of them is :func:`execute_setting`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.errors import ExperimentError
from repro.baselines.ztt import ZttConfig, ZttPolicy
from repro.core.agent import LotusAgent
from repro.core.config import LotusConfig
from repro.core.reward import RewardConfig
from repro.detection.accuracy import AccuracyModel
from repro.detection.detector import DetectorModel
from repro.detection.fleet import proposal_scale
from repro.detection.latency import ExecutionModel, compute_profile_for
from repro.detection.registry import build_detector
from repro.env.ambient import AmbientProfile, ConstantAmbient, warm_cold_warm
from repro.env.environment import InferenceEnvironment
from repro.env.metrics import EpisodeMetrics, summarize_trace
from repro.env.policy import Policy
from repro.env.trace import Trace
from repro.governors.registry import build_default_governor
from repro.governors.static import PerformancePolicy, PowersavePolicy, UserspacePolicy
from repro.hardware.devices.registry import build_device
from repro.core.training import OnlineSession, SessionResult
from repro.runtime.engine import ExperimentRuntime
from repro.runtime.job import ExperimentJob
from repro.workload.dataset import build_dataset
from repro.workload.generator import DomainSegment, DomainSwitchStream, FrameStream

#: Methods compared in the paper's Tables 1 and 2.
PAPER_METHODS = ("default", "ztt", "lotus")

#: Every method name :func:`make_policy` understands, in presentation
#: order: the OS baselines, the static policies, the learning methods and
#: the Lotus ablations.  The scenario registry validates specs against this
#: list (plus the fleet-only ``lotus-fleet`` mode).
SCALAR_METHODS = (
    "default",
    "performance",
    "powersave",
    "fixed",
    "ztt",
    "lotus",
    "lotus-single-action",
    "lotus-shared-buffer",
    "lotus-always-cooldown",
    "lotus-no-slim",
)


def available_methods() -> tuple[str, ...]:
    """Names of every method the scalar policy factory can build."""
    return SCALAR_METHODS

#: Fraction of the device's thermal envelope (trip point minus the
#: :data:`REFERENCE_AMBIENT_C` room) kept as a safety margin below the
#: hardware trip point: the controller is told to stay below
#: ``trip - CONTROL_MARGIN_FRACTION * envelope``.  Acting exactly at the
#: trip point would leave no room to react before the kernel caps the
#: frequency; a fixed absolute margin would be far too conservative for a
#: phone whose skin-temperature envelope is only ~18 °C wide.  The resulting
#: margin is clipped into :data:`CONTROL_MARGIN_RANGE_C`.
CONTROL_MARGIN_FRACTION = 0.08

#: Clip range (°C) for the derived control margin, so extreme trip points
#: still yield a margin a real controller could respect.
CONTROL_MARGIN_RANGE_C = (1.5, 5.0)

#: Fraction of the thermal envelope used for the graded ("soft") zone of
#: the temperature reward just below the control threshold (it becomes
#: ``RewardConfig.temperature_soft_margin_c``).  Inside the zone the reward
#: degrades smoothly instead of stepping, making the thermal cost of
#: approaching the threshold visible to one-step credit assignment.  The
#: resulting width is clipped into :data:`SOFT_MARGIN_RANGE_C`.
SOFT_MARGIN_FRACTION = 0.06

#: Clip range (°C) for the derived soft-margin width.
SOFT_MARGIN_RANGE_C = (1.0, 4.0)

#: Reference room temperature (°C) used to size the thermal envelope that
#: both margin derivations are fractions of.
REFERENCE_AMBIENT_C = 25.0


def _control_margin_c(trip_temperature_c: float) -> float:
    """Safety margin below the hardware trip point for a given device."""
    envelope = max(trip_temperature_c - REFERENCE_AMBIENT_C, 1.0)
    low, high = CONTROL_MARGIN_RANGE_C
    return float(np.clip(CONTROL_MARGIN_FRACTION * envelope, low, high))


def _soft_margin_c(trip_temperature_c: float) -> float:
    """Graded-reward zone width below the control threshold for a device."""
    envelope = max(trip_temperature_c - REFERENCE_AMBIENT_C, 1.0)
    low, high = SOFT_MARGIN_RANGE_C
    return float(np.clip(SOFT_MARGIN_FRACTION * envelope, low, high))


def _trip_temperature_c(device) -> float:
    """The lower of the device's CPU and GPU trip points."""
    return min(
        device.cpu_throttle.trip_temperature_c, device.gpu_throttle.trip_temperature_c
    )


def lotus_reward_config(device) -> RewardConfig:
    """The reward every Lotus agent learns from on ``device``, scalar or
    fleet: its graded zone is :func:`_soft_margin_c` of the trip point."""
    return RewardConfig(temperature_soft_margin_c=_soft_margin_c(_trip_temperature_c(device)))


def control_threshold_c(device) -> float:
    """The temperature every environment on ``device`` controls against,
    scalar or fleet: :func:`_control_margin_c` below the trip point."""
    trip = _trip_temperature_c(device)
    return trip - _control_margin_c(trip)


#: Headroom factor applied on top of the full-speed latency estimate when a
#: latency constraint is derived automatically (the paper sets per-model,
#: per-dataset constraints; deriving them from the cost model keeps the
#: reproduction self-consistent across devices).
CONSTRAINT_HEADROOM = 1.35


# ---------------------------------------------------------------------------
# Settings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSetting:
    """Full description of one experiment run.

    A setting is the *complete*, self-contained recipe for one experiment
    cell: two settings with equal fields produce bit-identical results, and
    the runtime's cache keys (:func:`repro.runtime.job.job_key`) are derived
    from exactly these fields (plus the method and configuration
    fingerprint).  The dataclass is frozen and hashable so it can be used as
    a dictionary key and shipped to worker processes unchanged.

    Attributes:
        device: Device name as registered in
            :mod:`repro.hardware.devices.registry` (``"jetson-orin-nano"``
            or ``"mi11-lite"``).
        detector: Detector cost-model name as registered in
            :mod:`repro.detection.registry` (``"faster_rcnn"``,
            ``"mask_rcnn"``, ``"yolo_v5"``).
        dataset: Workload dataset profile name (``"kitti"`` or
            ``"visdrone2019"``).
        num_frames: Evaluation episode length in frames.  The paper uses
            3,000 iterations on the Jetson and 1,000 on the phone.
        training_frames: Number of online-training frames run *before* the
            evaluation episode for learning-based policies (the paper trains
            the Q-network for 10,000 iterations before/alongside the
            3,000-iteration evaluations).  The warm-up runs on a separate
            environment seeded with ``seed + 10_000`` so the evaluation does
            not replay the training workload, and the device is reset to a
            cold state between training and evaluation; non-learning
            policies (the default governors, static policies) skip the
            warm-up entirely.
        latency_constraint_ms: Latency constraint L in milliseconds;
            ``None`` derives it from the cost model via
            :func:`default_latency_constraint` (full-speed latency of an
            average frame times :data:`CONSTRAINT_HEADROOM`).
        ambient_temperature_c: Ambient temperature of the static
            environment, in °C.  Runners that schedule ambient *changes*
            (Fig. 7a) pass an explicit ambient profile instead, which takes
            precedence over this field.
        seed: Base random seed.  Everything stochastic derives from it with
            fixed offsets — the frame stream (``seed``), the environment's
            proposal noise (``seed + 1``), the Lotus agent (``seed + 100``),
            the zTT agent (``seed + 200``) and the warm-up environment
            (``seed + 10_000``) — so one integer pins down the entire run.
    """

    device: str = "jetson-orin-nano"
    detector: str = "faster_rcnn"
    dataset: str = "kitti"
    num_frames: int = 1000
    training_frames: int = 0
    latency_constraint_ms: float | None = None
    ambient_temperature_c: float = 25.0
    seed: int = 0

    def with_overrides(self, **kwargs) -> "ExperimentSetting":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def default_latency_constraint(device: str, detector_name: str, dataset_name: str) -> float:
    """Derive the latency constraint L for a (device, detector, dataset) triple.

    The constraint is the full-speed (maximum operating points) latency of an
    average frame of the dataset, multiplied by a fixed headroom factor.
    A well-behaved controller can therefore meet it at slightly reduced
    frequency, while thermal-throttling excursions violate it — matching the
    role the constraint plays in the paper's satisfaction-rate metric.
    """
    hardware = build_device(device)
    detector = build_detector(detector_name)
    dataset = build_dataset(dataset_name)
    execution = ExecutionModel(compute_profile_for(device))
    expected_proposals = detector.expected_proposals(dataset.complexity_mean)
    cost = detector.total_cost(expected_proposals, dataset.image_scale)
    full_speed_ms = execution.latency_ms(
        cost,
        hardware.cpu.frequency_table.max_frequency_khz,
        hardware.gpu.frequency_table.max_frequency_khz,
    )
    return CONSTRAINT_HEADROOM * full_speed_ms


# ---------------------------------------------------------------------------
# Environment / policy factories
# ---------------------------------------------------------------------------


def make_environment(
    setting: ExperimentSetting,
    ambient: AmbientProfile | None = None,
    stream=None,
) -> InferenceEnvironment:
    """Build the :class:`InferenceEnvironment` described by ``setting``."""
    return InferenceEnvironment(**_environment_arguments(setting, ambient, stream))


def _environment_arguments(
    setting: ExperimentSetting, ambient: AmbientProfile | None, stream
) -> dict:
    """The constructor arguments of the environment ``setting`` describes,
    shared with the scalar reference environment
    (:func:`repro.runtime.fleet.scalar_reference_session`)."""
    device = build_device(setting.device, setting.ambient_temperature_c)
    detector = build_detector(setting.detector)
    rng = np.random.default_rng(setting.seed)
    if stream is None:
        stream = FrameStream(build_dataset(setting.dataset), rng)
    constraint = (
        setting.latency_constraint_ms
        if setting.latency_constraint_ms is not None
        else default_latency_constraint(setting.device, setting.detector, setting.dataset)
    )
    return dict(
        device=device,
        detector=detector,
        stream=stream,
        latency_constraint_ms=constraint,
        ambient=ambient if ambient is not None else ConstantAmbient(setting.ambient_temperature_c),
        rng=np.random.default_rng(setting.seed + 1),
        throttle_threshold_c=control_threshold_c(device),
    )


def make_policy(
    method: str,
    environment: InferenceEnvironment,
    num_frames: int,
    seed: int = 0,
    policy_dir: str | None = None,
) -> Policy:
    """Build a policy by method name, sized for the environment and episode.

    Supported methods: ``default``, ``ztt``, ``lotus``, the static policies
    ``performance`` / ``powersave`` / ``fixed`` (the profiling policy — the
    highest thermally sustainable operating point), the Lotus ablations
    ``lotus-single-action``, ``lotus-shared-buffer``,
    ``lotus-always-cooldown``, ``lotus-no-slim``, and ``policy:<id>`` —
    a frozen, inference-only deployment of a trained checkpoint from the
    policy zoo (:mod:`repro.policies`), looked up in the store at
    ``policy_dir`` (default: the default store); the id is a content hash,
    so the method name pins the exact network that runs.
    """
    from repro.policies import (
        PolicyStore,
        frozen_policy_for_environment,
        is_policy_method,
    )

    if is_policy_method(method):
        return frozen_policy_for_environment(
            method, environment, PolicyStore(policy_dir)
        )
    device = environment.device
    detector = environment.detector
    scale = proposal_scale(detector)
    reward_config = lotus_reward_config(device)

    def lotus_with(config: LotusConfig) -> LotusAgent:
        return LotusAgent(
            cpu_levels=device.cpu.num_levels,
            gpu_levels=device.gpu.num_levels,
            temperature_threshold_c=environment.throttle_threshold_c,
            proposal_scale=scale,
            config=config.for_episode_length(num_frames),
            rng=np.random.default_rng(seed + 100),
        )

    if method == "default":
        return build_default_governor(device.name)
    if method == "performance":
        return PerformancePolicy()
    if method == "powersave":
        return PowersavePolicy()
    if method == "fixed":
        return _fixed_frequency_policy(environment)
    if method == "ztt":
        return ZttPolicy(
            cpu_levels=device.cpu.num_levels,
            gpu_levels=device.gpu.num_levels,
            temperature_threshold_c=environment.throttle_threshold_c,
            config=ZttConfig(
                seed=seed + 200,
                temperature_soft_margin_c=reward_config.temperature_soft_margin_c,
            ).for_episode_length(num_frames),
            rng=np.random.default_rng(seed + 200),
        )
    if method == "lotus":
        return lotus_with(LotusConfig(seed=seed + 100, reward=reward_config))
    if method == "lotus-single-action":
        policy = lotus_with(
            LotusConfig(seed=seed + 100, reward=reward_config, single_decision=True)
        )
        policy.name = "lotus-single-action"
        return policy
    if method == "lotus-shared-buffer":
        policy = lotus_with(
            LotusConfig(seed=seed + 100, reward=reward_config, shared_buffer=True)
        )
        policy.name = "lotus-shared-buffer"
        return policy
    if method == "lotus-always-cooldown":
        policy = lotus_with(
            LotusConfig(seed=seed + 100, reward=reward_config, always_cooldown=True)
        )
        policy.name = "lotus-always-cooldown"
        return policy
    if method == "lotus-no-slim":
        policy = lotus_with(
            LotusConfig(seed=seed + 100, reward=reward_config, reduced_width=1.0)
        )
        policy.name = "lotus-no-slim"
        return policy
    raise ExperimentError(
        f"unknown method {method!r}; available: {SCALAR_METHODS} "
        f"(or policy:<id> for a stored frozen policy)"
    )


# ---------------------------------------------------------------------------
# Method comparison (Figs. 4-6, Tables 1-2)
# ---------------------------------------------------------------------------


@dataclass
class ComparisonResult:
    """Results of running several methods on the same experiment setting.

    Attributes:
        setting: The experiment setting.
        sessions: Mapping from method name to its :class:`SessionResult`.
    """

    setting: ExperimentSetting
    sessions: Dict[str, SessionResult] = field(default_factory=dict)

    def metrics(self, method: str) -> EpisodeMetrics:
        """Whole-episode metrics of one method."""
        return self.sessions[method].metrics

    def steady_metrics(self, method: str) -> EpisodeMetrics:
        """Second-half (post-learning-transient) metrics of one method."""
        return self.sessions[method].steady_metrics

    def trace(self, method: str) -> Trace:
        """Trace of one method."""
        return self.sessions[method].trace

    def methods(self) -> List[str]:
        """Evaluated method names in insertion order."""
        return list(self.sessions)


def _warm_up_policy(
    setting: ExperimentSetting,
    policy: Policy,
    ambient: AmbientProfile | None,
) -> None:
    """Run the pre-evaluation online-training phase for learning policies.

    Non-learning policies (governors, static policies) have nothing to warm
    up and are skipped.  The warm-up uses an environment with the same
    configuration but a different seed so that the evaluation episode does
    not replay the exact workload seen during training.
    """
    if setting.training_frames <= 0 or not hasattr(policy, "set_training"):
        return
    warmup_setting = setting.with_overrides(seed=setting.seed + 10_000)
    environment = make_environment(warmup_setting, ambient=ambient)
    OnlineSession(environment, policy).run(setting.training_frames)


def execute_setting(
    setting: ExperimentSetting,
    method: str,
    ambient: AmbientProfile | None = None,
    domain_datasets: Sequence[str] | None = None,
    policy_dir: str | None = None,
) -> SessionResult:
    """Run one fully-described experiment cell to completion.

    This is the single-cell primitive every runner (and the runtime's worker
    processes) executes: build the environment described by ``setting``
    (optionally with an ambient schedule or a mid-run domain switch), build
    the ``method`` policy sized for the episode, run the online-training
    warm-up if the setting requests one, then run the evaluation episode.

    Args:
        setting: The experiment cell description.
        method: Method name understood by :func:`make_policy`.
        ambient: Optional ambient profile overriding the setting's constant
            ambient temperature.
        domain_datasets: When given (at least two dataset names), the
            workload becomes the paper's Fig. 7b domain-switch stream:
            ``setting.num_frames`` is split evenly across the datasets and
            the latency constraint switches with the domain.
        policy_dir: Policy store root a ``policy:<id>`` method resolves in
            (default: the default store).

    Returns:
        The completed :class:`~repro.core.training.SessionResult`.
    """
    total_frames = setting.num_frames + setting.training_frames
    if domain_datasets:
        if len(domain_datasets) < 2:
            raise ExperimentError("a domain switch needs at least two datasets")
        frames_per_domain = max(1, setting.num_frames // len(domain_datasets))
        segments = [
            DomainSegment(
                dataset=build_dataset(name),
                num_frames=frames_per_domain,
                latency_constraint_ms=default_latency_constraint(
                    setting.device, setting.detector, name
                ),
            )
            for name in domain_datasets
        ]
        stream = DomainSwitchStream(segments, np.random.default_rng(setting.seed))
        environment = make_environment(setting, ambient=ambient, stream=stream)
    else:
        environment = make_environment(setting, ambient=ambient)
    policy = make_policy(
        method, environment, total_frames, seed=setting.seed, policy_dir=policy_dir
    )
    _warm_up_policy(setting, policy, ambient)
    return OnlineSession(environment, policy).run(setting.num_frames)


def run_comparison_batch(
    settings: Sequence[ExperimentSetting],
    methods: Sequence[str] = PAPER_METHODS,
    ambient: AmbientProfile | None = None,
    runtime: ExperimentRuntime | None = None,
) -> List[ComparisonResult]:
    """Run (setting × method) cells through the runtime in one sweep.

    All cells are independent, so handing them to a parallel, cached
    runtime in a single call lets a whole table regenerate concurrently
    (and re-regenerate from cache).  The default runtime is serial and
    uncached, which preserves the historical sequential behaviour.
    """
    if runtime is None:
        runtime = ExperimentRuntime(max_workers=1)
    jobs = [
        ExperimentJob(setting=setting, method=method, ambient=ambient)
        for setting in settings
        for method in methods
    ]
    sessions = runtime.run_jobs(jobs)
    comparisons: List[ComparisonResult] = []
    cursor = 0
    for setting in settings:
        comparison = ComparisonResult(setting=setting)
        for method in methods:
            comparison.sessions[method] = sessions[cursor]
            cursor += 1
        comparisons.append(comparison)
    return comparisons


def run_comparison(
    setting: ExperimentSetting,
    methods: Sequence[str] = PAPER_METHODS,
    ambient: AmbientProfile | None = None,
    runtime: ExperimentRuntime | None = None,
) -> ComparisonResult:
    """Run several methods on identical environments (Figs. 4-6, Tables 1-2)."""
    return run_comparison_batch([setting], methods, ambient=ambient, runtime=runtime)[0]


def comparison_metrics_map(
    results: Mapping[str, ComparisonResult], use_steady: bool = False
) -> Dict[str, Dict[str, Dict[str, EpisodeMetrics]]]:
    """Reshape ``{dataset: ComparisonResult}`` into the table-renderer layout.

    Returns a nested mapping ``detector -> method -> dataset -> metrics``.
    """
    table: Dict[str, Dict[str, Dict[str, EpisodeMetrics]]] = {}
    for dataset, comparison in results.items():
        detector = comparison.setting.detector
        for method, session in comparison.sessions.items():
            metrics = session.steady_metrics if use_steady else session.metrics
            table.setdefault(detector, {}).setdefault(method, {})[dataset] = metrics
    return table


def _fixed_frequency_policy(environment: InferenceEnvironment) -> UserspacePolicy:
    """Fixed-frequency policy used by the profiling experiments.

    The paper profiles the detectors "by setting the CPU and GPU frequency
    at a fixed level".  The level chosen here is the highest thermally
    sustainable one (one GPU operating point below the maximum), so that a
    several-hundred-frame profiling run is not contaminated by hardware
    thermal throttling events.
    """
    return UserspacePolicy(
        cpu_level=environment.device.cpu.max_level,
        gpu_level=max(0, environment.device.gpu.max_level - 1),
    )


# ---------------------------------------------------------------------------
# Fig. 1: detector latency variation and accuracy at fixed frequency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectorVariationRow:
    """One bar of Fig. 1: a detector's latency statistics and mAP on a dataset."""

    detector: str
    dataset: str
    mean_latency_ms: float
    latency_std_ms: float
    map50: float


def run_detector_variation_study(
    device: str = "jetson-orin-nano",
    detectors: Sequence[str] = ("faster_rcnn", "mask_rcnn", "yolo_v5"),
    datasets: Sequence[str] = ("kitti", "visdrone2019"),
    num_frames: int = 300,
    seed: int = 0,
    runtime: ExperimentRuntime | None = None,
) -> List[DetectorVariationRow]:
    """Fig. 1: latency mean/variation and mAP at fixed maximum frequency."""
    if runtime is None:
        runtime = ExperimentRuntime(max_workers=1)
    accuracy = AccuracyModel()
    cells = [(dataset, detector) for dataset in datasets for detector in detectors]
    jobs = [
        ExperimentJob(
            setting=ExperimentSetting(
                device=device,
                detector=detector,
                dataset=dataset,
                num_frames=num_frames,
                seed=seed,
            ),
            method="fixed",
        )
        for dataset, detector in cells
    ]
    sessions = runtime.run_jobs(jobs)
    return [
        DetectorVariationRow(
            detector=detector,
            dataset=dataset,
            mean_latency_ms=session.metrics.mean_latency_ms,
            latency_std_ms=session.metrics.latency_std_ms,
            map50=accuracy.map50(detector, dataset),
        )
        for (dataset, detector), session in zip(cells, sessions)
    ]


# ---------------------------------------------------------------------------
# Fig. 2: second-stage latency vs. proposal count
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProposalLatencyPoint:
    """One point of Fig. 2: second-stage latency at a given proposal count."""

    detector: str
    num_proposals: int
    stage2_latency_ms: float


def run_proposal_latency_sweep(
    device: str = "jetson-orin-nano",
    detector_name: str = "faster_rcnn",
    proposal_counts: Sequence[int] | None = None,
    image_scale: float = 1.0,
) -> List[ProposalLatencyPoint]:
    """Fig. 2: second-stage latency as a function of the proposal count."""
    hardware = build_device(device)
    detector = build_detector(detector_name)
    if not detector.is_two_stage:
        raise ExperimentError("the proposal sweep requires a two-stage detector")
    if proposal_counts is None:
        cap = detector.proposal_model.max_proposals
        proposal_counts = [int(p) for p in np.linspace(0, cap, 13)]
    execution = ExecutionModel(compute_profile_for(device))
    points = []
    for count in proposal_counts:
        cost = detector.stage2_cost(int(count), image_scale)
        latency = execution.latency_ms(
            cost,
            hardware.cpu.frequency_table.max_frequency_khz,
            hardware.gpu.frequency_table.max_frequency_khz,
        )
        points.append(
            ProposalLatencyPoint(
                detector=detector_name, num_proposals=int(count), stage2_latency_ms=latency
            )
        )
    return points


# ---------------------------------------------------------------------------
# §4.2 profiling: stage share and stage-2 variation at fixed frequency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageProfile:
    """Profiling summary of a detector at fixed frequency (paper §4.2)."""

    detector: str
    dataset: str
    stage1_share: float
    mean_latency_ms: float
    stage1_latency_std_ms: float
    stage2_latency_std_ms: float
    stage2_latency_range_ms: float


def run_stage_profiling(
    device: str = "jetson-orin-nano",
    detector: str = "faster_rcnn",
    dataset: str = "kitti",
    num_frames: int = 300,
    seed: int = 0,
    runtime: ExperimentRuntime | None = None,
) -> StageProfile:
    """Reproduce the §4.2 profiling observation (80/20 split, stage-2 variation)."""
    setting = ExperimentSetting(
        device=device, detector=detector, dataset=dataset, num_frames=num_frames, seed=seed
    )
    if runtime is None:
        runtime = ExperimentRuntime(max_workers=1)
    session = runtime.run(ExperimentJob(setting=setting, method="fixed"))
    trace = session.trace
    stage2 = trace.stage2_latencies_ms()
    return StageProfile(
        detector=detector,
        dataset=dataset,
        stage1_share=session.metrics.stage1_latency_share,
        mean_latency_ms=session.metrics.mean_latency_ms,
        stage1_latency_std_ms=float(np.std(trace.stage1_latencies_ms())),
        stage2_latency_std_ms=float(np.std(stage2)),
        stage2_latency_range_ms=float(np.max(stage2) - np.min(stage2)) if stage2.size else 0.0,
    )


# ---------------------------------------------------------------------------
# Fig. 7a: ambient temperature changes
# ---------------------------------------------------------------------------


def run_dynamic_ambient(
    setting: ExperimentSetting,
    methods: Sequence[str] = PAPER_METHODS,
    warm_temperature_c: float = 25.0,
    cold_temperature_c: float = 0.0,
    runtime: ExperimentRuntime | None = None,
) -> ComparisonResult:
    """Fig. 7a: warm zone → cold zone → warm zone during inference."""
    frames_per_zone = max(1, setting.num_frames // 3)
    ambient = warm_cold_warm(frames_per_zone, warm_temperature_c, cold_temperature_c)
    return run_comparison(setting, methods, ambient=ambient, runtime=runtime)


# ---------------------------------------------------------------------------
# Fig. 7b: domain changes (KITTI → VisDrone2019)
# ---------------------------------------------------------------------------


def run_domain_switch(
    device: str = "jetson-orin-nano",
    detector: str = "mask_rcnn",
    datasets: Sequence[str] = ("kitti", "visdrone2019"),
    num_frames: int = 1000,
    training_frames: int = 0,
    methods: Sequence[str] = PAPER_METHODS,
    seed: int = 0,
    runtime: ExperimentRuntime | None = None,
) -> ComparisonResult:
    """Fig. 7b: switch dataset (and latency constraint) mid-run.

    The warm-up (if any) runs on the first domain only: the switch itself
    must remain unseen so the experiment measures adaptation, not
    memorisation.
    """
    if len(datasets) < 2:
        raise ExperimentError("a domain switch needs at least two datasets")
    frames_per_domain = max(1, num_frames // len(datasets))
    setting = ExperimentSetting(
        device=device,
        detector=detector,
        dataset=datasets[0],
        num_frames=frames_per_domain * len(datasets),
        training_frames=training_frames,
        seed=seed,
    )
    if runtime is None:
        runtime = ExperimentRuntime(max_workers=1)
    jobs = [
        ExperimentJob(setting=setting, method=method, domain_datasets=tuple(datasets))
        for method in methods
    ]
    sessions = runtime.run_jobs(jobs)
    result = ComparisonResult(setting=setting)
    for method, session in zip(methods, sessions):
        result.sessions[method] = session
    return result


# ---------------------------------------------------------------------------
# Ablations of the Lotus design choices
# ---------------------------------------------------------------------------


def run_ablation(
    setting: ExperimentSetting,
    variants: Sequence[str] = (
        "lotus",
        "lotus-single-action",
        "lotus-shared-buffer",
        "lotus-always-cooldown",
        "lotus-no-slim",
    ),
    runtime: ExperimentRuntime | None = None,
) -> ComparisonResult:
    """Compare Lotus against ablated variants of its design choices."""
    return run_comparison(setting, methods=variants, runtime=runtime)
