"""Batched detection kernels: cost, latency/utilisation and proposals.

Array counterparts of :class:`~repro.detection.latency.ExecutionModel` and
:class:`~repro.detection.proposals.ProposalModel`, evaluated across a fleet
of sessions at once.  Each session may present a different image scale,
proposal count and frequency pair; the detector *model* (stage structure,
cost constants, proposal statistics) is shared.

Bit-exactness: every kernel accumulates in the same order as its scalar
counterpart (stage costs sum left-to-right, utilisations divide before the
``min`` clamp), and proposal noise draws one normal from each session's own
generator so the per-session random streams are consumed exactly as the
scalar environment consumes them.  With the ``random`` kernels, those draws
run in one C loop (:class:`~repro.kernels.SessionGenerators`: NumPy's own
``random_normal``, bit-identical to ``rng.normal``) that does not take
``bit_generator.lock``, so the generators must be used from one thread at
a time.  With the ``fleet`` kernels (:mod:`repro.kernels`), the
proposal-count tail runs in C too (its reference is :func:`proposal_tail`),
and the fleet environment runs a whole stage -- the costs of
:func:`stage_cost_tables`, the segment model and the device segment -- as
one ``fleet_stage`` call; :func:`stage1_cost_arrays`,
:func:`stage2_cost_arrays` and :meth:`BatchedExecutionModel.execute` are
that kernel's ``REPRO_FUSED=0`` reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import DetectorError
from repro.detection.detector import DetectorModel
from repro.kernels import SessionGenerators, fused_fleet
from repro.detection.latency import DeviceComputeProfile


@dataclass(frozen=True)
class FleetSegment:
    """Vectorized :class:`~repro.detection.latency.SegmentExecution`.

    Every attribute is a length-N array indexed by session.
    """

    latency_ms: np.ndarray
    cpu_busy_ms: np.ndarray
    gpu_busy_ms: np.ndarray
    cpu_utilisation: np.ndarray
    gpu_utilisation: np.ndarray


def stage1_cost_arrays(
    detector: DetectorModel, image_scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-session stage-1 ``(cpu, gpu)`` kilocycles for an image-scale array."""
    cpu = np.zeros_like(image_scale, dtype=float)
    gpu = np.zeros_like(image_scale, dtype=float)
    for stage in detector.stage1:
        if stage.scales_with_image:
            cpu = cpu + stage.fixed.cpu_kilocycles * image_scale
            gpu = gpu + stage.fixed.gpu_kilocycles * image_scale
        else:
            cpu = cpu + stage.fixed.cpu_kilocycles
            gpu = gpu + stage.fixed.gpu_kilocycles
    return cpu, gpu


def stage2_cost_arrays(
    detector: DetectorModel, num_proposals: np.ndarray, image_scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-session stage-2 kilocycles for proposal-count and scale arrays."""
    cpu = np.zeros_like(image_scale, dtype=float)
    gpu = np.zeros_like(image_scale, dtype=float)
    if not detector.is_two_stage:
        return cpu, gpu
    proposals = num_proposals.astype(float)
    for stage in detector.stage2:
        if stage.scales_with_image:
            fixed_cpu = stage.fixed.cpu_kilocycles * image_scale
            fixed_gpu = stage.fixed.gpu_kilocycles * image_scale
        else:
            fixed_cpu = stage.fixed.cpu_kilocycles
            fixed_gpu = stage.fixed.gpu_kilocycles
        cpu = cpu + (fixed_cpu + stage.per_proposal.cpu_kilocycles * proposals)
        gpu = gpu + (fixed_gpu + stage.per_proposal.gpu_kilocycles * proposals)
    return cpu, gpu


def stage_cost_tables(detector: DetectorModel, second: bool) -> dict:
    """One stage's cost constants as the ``fleet_stage`` kernel reads them.

    The kernel sums ``stages`` entries in list order, as
    :func:`stage1_cost_arrays` (``second`` false) and
    :func:`stage2_cost_arrays` do; ``per_proposal`` adds each entry's
    per-proposal cost times the proposal count.
    """
    stages = detector.stage2 if second else detector.stage1
    return {
        "stages": len(stages),
        "per_proposal": int(second),
        "scales": np.array([stage.scales_with_image for stage in stages], dtype=np.int64),
        "fixed_cpu": np.array([stage.fixed.cpu_kilocycles for stage in stages], dtype=float),
        "fixed_gpu": np.array([stage.fixed.gpu_kilocycles for stage in stages], dtype=float),
        "proposal_cpu": np.array(
            [stage.per_proposal.cpu_kilocycles for stage in stages], dtype=float
        ),
        "proposal_gpu": np.array(
            [stage.per_proposal.gpu_kilocycles for stage in stages], dtype=float
        ),
    }


def proposal_scale(detector: DetectorModel) -> float:
    """Observation-normalisation scale for a detector's proposal counts.

    Two-stage detectors expose their proposal cap; one-stage detectors have
    no RPN, so learning agents normalise against a nominal 100.  This is the
    single definition shared by the scalar policy factory, the fleet policy
    factory and the scenario runner (each detector group of a heterogeneous
    fleet sizes its agents with its own scale).
    """
    return float(detector.proposal_model.max_proposals if detector.is_two_stage else 100)


def proposal_tail_table(kernel, detector: DetectorModel, num_sessions: int):
    """A ``fleet_proposal_tail`` table of one two-stage detector at one
    fleet size, with its own scene, noise-factor and count buffers."""
    model = detector.proposal_model
    n = num_sessions
    return kernel.proposal_table(
        np.zeros(n), float(model.keep_ratio),
        np.zeros(n) if model.noise_std > 0 else None,
        float(model.min_proposals), float(model.max_proposals),
        np.zeros(n, dtype=np.int64),
    )


def propose_batch(
    detector: DetectorModel,
    scene_candidates: np.ndarray,
    rngs: Sequence[np.random.Generator],
    table=None,
) -> np.ndarray:
    """Per-session RPN proposal counts, one noise draw per session stream.

    Mirrors :meth:`~repro.detection.proposals.ProposalModel.sample`: the
    normal draw comes from each session's own generator (keeping the
    per-session random stream identical to a scalar run); the exp/clip/round
    tail is evaluated as array operations.  Pass the generators as one
    long-lived :class:`~repro.kernels.SessionGenerators` (as the fleet
    environment does) so the fused draw's table is built once; any other
    sequence is wrapped for this call.  Likewise ``table``, the fused
    tail's :func:`proposal_tail_table` for this detector and fleet size,
    which a caller drawing every frame keeps; without it the call builds
    its own.
    """
    if len(rngs) != len(scene_candidates):
        raise DetectorError(
            f"got {len(rngs)} generators for {len(scene_candidates)} sessions"
        )
    if np.any(scene_candidates < 0):
        raise DetectorError("scene_candidates must be non-negative")
    if not detector.is_two_stage:
        return np.zeros(len(scene_candidates), dtype=np.int64)
    model = detector.proposal_model
    factor = None
    if model.noise_std > 0:
        if not isinstance(rngs, SessionGenerators):
            rngs = SessionGenerators(rngs)
        # np.exp, as the scalar ProposalModel.sample uses.
        factor = np.exp(rngs.normal(model.noise_std))
    kernel = fused_fleet()
    if kernel is None:
        counts = np.empty(len(scene_candidates), dtype=np.int64)
        proposal_tail(
            np.ascontiguousarray(scene_candidates, dtype=float),
            float(model.keep_ratio), factor,
            float(model.min_proposals), float(model.max_proposals), counts,
        )
        return counts
    if table is None:
        table = proposal_tail_table(kernel, detector, len(scene_candidates))
    buffers = table.buffers
    buffers["scene"][:] = scene_candidates
    if factor is not None:
        buffers["factor"][:] = factor
    kernel.fleet_proposal_tail(table)
    return buffers["counts"].copy()


def proposal_tail(scene_candidates, keep_ratio, factor, min_proposals, max_proposals, out):
    """``clip(rint(scene * keep_ratio [* factor]))`` into the int64 ``out``.

    The NumPy form of the ``fleet_proposal_tail`` kernel.
    """
    expected = scene_candidates * keep_ratio
    if factor is not None:
        expected = expected * factor
    out[...] = np.clip(np.rint(expected), min_proposals, max_proposals)


class BatchedExecutionModel:
    """Vectorized :class:`~repro.detection.latency.ExecutionModel`.

    The fleet environment runs this model inside its ``fleet_stage``
    kernel; :meth:`execute` is the NumPy form of that kernel's segment
    model and its ``REPRO_FUSED=0`` reference.
    """

    def __init__(self, profile: DeviceComputeProfile):
        self.profile = profile

    def execute(
        self,
        cpu_kilocycles: np.ndarray,
        gpu_kilocycles: np.ndarray,
        cpu_frequency_khz: np.ndarray,
        gpu_frequency_khz: np.ndarray,
    ) -> FleetSegment:
        """Latency and utilisation of running per-session costs.

        All four arguments are length-N arrays (the frequencies may also be
        scalars shared by every session).
        """
        if np.any(cpu_frequency_khz <= 0) or np.any(gpu_frequency_khz <= 0):
            raise DetectorError("frequencies must be positive")
        cpu_ms = cpu_kilocycles / (cpu_frequency_khz * self.profile.cpu_efficiency)
        gpu_ms = gpu_kilocycles / (gpu_frequency_khz * self.profile.gpu_efficiency)
        latency_ms = cpu_ms + gpu_ms + self.profile.launch_overhead_ms
        # Degenerate zero-work segments (possible only with a zero launch
        # overhead) report an idle instant, as the scalar model does.
        safe_latency = np.where(latency_ms > 0, latency_ms, 1.0)
        cpu_busy = cpu_ms + self.profile.host_activity * gpu_ms
        cpu_utilisation = np.where(
            latency_ms > 0, np.minimum(1.0, cpu_busy / safe_latency), 0.0
        )
        gpu_utilisation = np.where(
            latency_ms > 0, np.minimum(1.0, gpu_ms / safe_latency), 0.0
        )
        return FleetSegment(
            latency_ms=np.where(latency_ms > 0, latency_ms, 0.0),
            cpu_busy_ms=np.where(latency_ms > 0, cpu_ms, 0.0),
            gpu_busy_ms=np.where(latency_ms > 0, gpu_ms, 0.0),
            cpu_utilisation=cpu_utilisation,
            gpu_utilisation=gpu_utilisation,
        )

    def kernel_constants(self) -> dict:
        """The profile as the ``fleet_stage`` kernel's segment constants."""
        profile = self.profile
        return {
            "cpu_efficiency": profile.cpu_efficiency,
            "gpu_efficiency": profile.gpu_efficiency,
            "launch_overhead": profile.launch_overhead_ms,
            "host_activity": profile.host_activity,
        }
