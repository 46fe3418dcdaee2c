"""Faster R-CNN cost model.

Calibrated so that, at the Jetson Orin Nano's maximum operating points and
KITTI-scale images, stage 1 (pre-processing + ResNet-50 backbone + RPN)
takes ≈225 ms — about 80 % of a typical frame — and the second stage adds a
fixed ≈30 ms plus ≈0.14 ms per proposal, matching the shape of the paper's
Fig. 2 (second-stage latency up to ≈100 ms at 600 proposals).
"""

from __future__ import annotations

from repro.detection.detector import DetectorModel
from repro.detection.proposals import ProposalModel
from repro.detection.stages import StageCost, reference_cost


def faster_rcnn() -> DetectorModel:
    """Build the Faster R-CNN detector cost model."""
    stage1 = (
        StageCost(name="preprocess", fixed=reference_cost(cpu_ms=15.0, gpu_ms=0.0)),
        StageCost(name="backbone", fixed=reference_cost(cpu_ms=10.0, gpu_ms=150.0)),
        StageCost(name="rpn", fixed=reference_cost(cpu_ms=10.0, gpu_ms=40.0)),
    )
    stage2 = (
        StageCost(
            name="roi_pooling",
            fixed=reference_cost(cpu_ms=2.0, gpu_ms=8.0),
            per_proposal=reference_cost(cpu_ms=0.004, gpu_ms=0.016),
            scales_with_image=False,
        ),
        StageCost(
            name="classifier",
            fixed=reference_cost(cpu_ms=1.0, gpu_ms=14.0),
            per_proposal=reference_cost(cpu_ms=0.01, gpu_ms=0.09),
            scales_with_image=False,
        ),
        StageCost(
            name="postprocess",
            fixed=reference_cost(cpu_ms=5.0, gpu_ms=0.0),
            per_proposal=reference_cost(cpu_ms=0.02, gpu_ms=0.0),
            scales_with_image=False,
        ),
    )
    return DetectorModel(
        name="faster_rcnn",
        stage1=stage1,
        stage2=stage2,
        proposal_model=ProposalModel(
            keep_ratio=1.0,
            max_proposals=600,
            min_proposals=10,
            noise_std=0.08,
        ),
        description=(
            "Faster R-CNN with a ResNet-50 backbone: RPN region proposals "
            "followed by an RoI-pooled classification/regression head."
        ),
    )
