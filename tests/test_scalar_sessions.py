"""Scalar sessions run on the one-session fleet engine.

``PINNED_SETTING_DIGESTS`` pins the scalar runs that
``tests/test_rl_equivalence.py::PINNED_SESSION_DIGESTS`` leaves out: the
Fig. 7b domain switch, an online-training warm-up, a one-stage detector, a
stepped ambient schedule and an idle gap between frames.  They were
recorded on the Python scalar stepping, before scalar sessions ran on the
one-session fleet kernels, and must not move, with the kernels or on the
NumPy path (``REPRO_FUSED=0``).  The Python stepping is now only the
equivalence oracle: no production scalar path may reach it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import (
    ExperimentSetting,
    execute_setting,
    make_environment,
    make_policy,
)
from repro.core.training import OnlineSession
from repro.detection.detector import DetectorModel
from repro.detection.registry import build_detector
from repro.env.ambient import AmbientSegment, StepAmbient
from repro.env.environment import InferenceEnvironment
from repro.env.reference import ReferenceInferenceEnvironment
from repro.hardware.device import EdgeDevice
from repro.hardware.devices.jetson_orin_nano import jetson_orin_nano
from repro.workload.dataset import build_dataset
from repro.workload.generator import DomainSwitchStream, FrameStream

from tests.test_kernels import _fresh_resolution
from tests.test_rl_equivalence import PINNED_SESSION_DIGESTS, _session_digest


def _domain_switch():
    setting = ExperimentSetting(num_frames=90, seed=3)
    return execute_setting(
        setting, "lotus", domain_datasets=("kitti", "visdrone2019", "kitti")
    )


def _warm_up():
    setting = ExperimentSetting(num_frames=50, training_frames=70, seed=5)
    return execute_setting(setting, "lotus")


def _one_stage():
    return execute_setting(ExperimentSetting(detector="yolo_v5", num_frames=80, seed=2), "ztt")


def _step_ambient():
    ambient = StepAmbient([AmbientSegment(25, 35.0), AmbientSegment(25, 5.0)])
    return execute_setting(ExperimentSetting(num_frames=70, seed=4), "lotus", ambient=ambient)


def _idle_gap():
    environment = InferenceEnvironment(
        device=jetson_orin_nano(),
        detector=build_detector("faster_rcnn"),
        stream=FrameStream(build_dataset("visdrone2019"), np.random.default_rng(6)),
        latency_constraint_ms=450.0,
        rng=np.random.default_rng(7),
        idle_between_frames_ms=12.5,
    )
    policy = make_policy("default", environment, 60, seed=6)
    return OnlineSession(environment, policy).run(60)


SESSIONS = {
    "domain-switch": _domain_switch,
    "warm-up": _warm_up,
    "one-stage": _one_stage,
    "step-ambient": _step_ambient,
    "idle-gap": _idle_gap,
}

#: :func:`_session_digest` of each session above, recorded on the Python
#: scalar stepping.
PINNED_SETTING_DIGESTS = {
    "domain-switch": "f5442d52db4c05124227fcd7c7c51b3f387fb544fd63fe2656eb9f09368fa104",
    "warm-up": "c1e27e9cff7b7e75cda5c38f16ebceb8cd352bfc9de58ab05cfdb167402b5ab2",
    "one-stage": "81f734c898e07e004c4ad0c6657d32c1bc8ada2147e05c21b717d61d038e17f7",
    "step-ambient": "de4d28c6a8c27b532b68b1f32c8a58763e215c13a0d225309e53ed5e57033aaf",
    "idle-gap": "ae65416684339f8b0baee44cadc50c91257ea86661a102dbcb69599349f6bf6c",
}


@pytest.mark.parametrize("fused", (True, False), ids=("fused", "numpy"))
@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_scalar_session_digest_is_pinned(name, fused, monkeypatch):
    with _fresh_resolution(monkeypatch, enabled=fused):
        assert _session_digest(SESSIONS[name]()) == PINNED_SETTING_DIGESTS[name]


def test_no_production_path_reaches_the_python_stepping(monkeypatch):
    """The oracle's environment and the scalar device, proposal and stream
    stepping it calls raise (the scalar execution model stays: the default
    constraint is computed with it); the warm-up, the domain switch and an
    online session over ``make_environment`` still run, to their pinned
    digests."""

    def refuse(*args, **kwargs):
        raise AssertionError("the Python scalar stepping ran")

    for owner, name in (
        (ReferenceInferenceEnvironment, "__init__"),
        (ReferenceInferenceEnvironment, "begin_frame"),
        (ReferenceInferenceEnvironment, "run_first_stage"),
        (ReferenceInferenceEnvironment, "run_second_stage"),
        (EdgeDevice, "execute"),
        (EdgeDevice, "idle"),
        (EdgeDevice, "set_ambient"),
        (EdgeDevice, "request_levels"),
        (DetectorModel, "propose"),
        (FrameStream, "next_frame"),
        (DomainSwitchStream, "next_frame"),
    ):
        monkeypatch.setattr(owner, name, refuse)
    assert _session_digest(_warm_up()) == PINNED_SETTING_DIGESTS["warm-up"]
    assert _session_digest(_domain_switch()) == PINNED_SETTING_DIGESTS["domain-switch"]
    setting = ExperimentSetting(num_frames=220, seed=0)
    environment = make_environment(setting)
    policy = make_policy("lotus", environment, 220, seed=0)
    result = OnlineSession(environment, policy).run(220)
    assert _session_digest(result) == PINNED_SESSION_DIGESTS["lotus"]
