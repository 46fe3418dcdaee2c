"""Per-family resolution of the C kernels (:mod:`repro.kernels`).

Each kernel family (``random``, ``fleet``, ``dqn``) resolves on its own,
when its first owner asks, and a failure turns off only that family.
These tests inject a self-test mismatch into one family at a time and
check that the other two stay on, that the outcome is reported per
family with its reason, and that the traces still equal the
``REPRO_FUSED=0`` ones.  They also check the generic differential helper
the self-tests share.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib

import numpy as np
import pytest

import repro.kernels as kernels
from repro import ExperimentSetting, execute_setting, obs, run_fleet
from repro.env.trace import COLUMN_DTYPES
from repro.kernels import FAMILIES, resolve


@contextlib.contextmanager
def _fresh_resolution(monkeypatch, enabled: bool = True):
    """A new resolution of every family, as a new process gets."""
    with monkeypatch.context() as patch:
        patch.setattr(resolve, "_kernels", {})
        patch.setattr(resolve, "_status", {})
        patch.setenv("REPRO_FUSED", "1" if enabled else "0")
        yield


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).view(np.int64).tobytes()


def _digest() -> str:
    """A scalar session whose batches mix next widths (the NumPy learner),
    a trained fleet (``random``, ``fleet``, ``dqn``) and a governed one
    (the governors' ``fleet_select_levels``): every trace column, loss and
    reward, as bits."""
    digest = hashlib.sha256()
    session = execute_setting(ExperimentSetting(num_frames=80, seed=0), "lotus-shared-buffer")
    for name in COLUMN_DTYPES:
        digest.update(_bits(session.trace.column(name).astype(np.float64)))
    fleet = run_fleet(ExperimentSetting(num_frames=24, seed=0), "lotus-fleet", 4)
    for name in COLUMN_DTYPES:
        digest.update(_bits(fleet.fleet_trace.column_window(name).astype(np.float64)))
    for each in (session, *fleet.sessions):
        digest.update(_bits(each.losses) + _bits(each.rewards))
    governed = run_fleet(ExperimentSetting(num_frames=24, seed=0), "default", 4)
    for name in COLUMN_DTYPES:
        digest.update(_bits(governed.fleet_trace.column_window(name).astype(np.float64)))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def numpy_digest():
    with pytest.MonkeyPatch.context() as monkeypatch:
        with _fresh_resolution(monkeypatch, enabled=False):
            return _digest()


#: The kernels each family runs, as ``fused.kernel_calls`` labels them.
_FAMILY_KERNELS = {
    "random": ("fleet_normal",),
    "fleet": (
        "fleet_begin_frame", "fleet_first_stage", "fleet_second_stage",
        "fleet_request_levels", "fleet_select_levels",
    ),
    "dqn": ("dqn_train_step", "dqn_greedy"),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_a_failed_family_leaves_the_others_on(family, monkeypatch, numpy_digest):
    with _fresh_resolution(monkeypatch):
        if None in [getattr(kernels, f"fused_{name}")() for name in FAMILIES]:
            pytest.skip("a kernel family is unavailable on this host")
        resolve._kernels.clear()
        resolve._status.clear()
        module = importlib.import_module(f"repro.kernels.{family}")
        monkeypatch.setattr(module, "self_test", lambda kernel: False)
        registry = obs.enable()
        try:
            digest = _digest()
        finally:
            obs.disable()
        status = kernels.kernel_status()
    expected = {name: "numpy" if name == family else "fused" for name in FAMILIES}
    assert status == expected
    events = [e["fields"] for e in registry.events if e["name"] == "fused.resolved"]
    assert {"family": family, "status": "numpy", "reason": "mismatch"} in events
    assert sorted(e["family"] for e in events) == sorted(FAMILIES)
    calls = {
        dict(labels)["kernel"]
        for name, labels in registry.counters
        if name == "fused.kernel_calls"
    }
    for name, names in _FAMILY_KERNELS.items():
        if expected[name] == "fused":
            assert set(names) <= calls, name
        else:
            assert not set(names) & calls, name
    assert digest == numpy_digest


def test_resolution_is_lazy_and_once_per_family(monkeypatch):
    with _fresh_resolution(monkeypatch):
        registry = obs.enable()
        try:
            assert kernels.kernel_status() == dict.fromkeys(FAMILIES, "unresolved")
            first = kernels.fused_fleet()
            assert kernels.fused_fleet() is first
            status = kernels.kernel_status()
        finally:
            obs.disable()
    assert status["fleet"] in ("fused", "numpy")
    assert {status[name] for name in FAMILIES if name != "fleet"} == {"unresolved"}
    events = [e["fields"] for e in registry.events if e["name"] == "fused.resolved"]
    assert [e["family"] for e in events] == ["fleet"]


def test_a_case_raising_on_both_sides_turns_its_family_off(monkeypatch):
    # A case an API change broke raises the same error on both sides; that
    # is no agreement.
    def broken(kernel):
        def run(values):
            raise TypeError("an argument went missing")

        yield (np.zeros(3),), run, run

    with _fresh_resolution(monkeypatch):
        if kernels.fused_fleet() is None:
            pytest.skip("fused kernels unavailable on this host")
        resolve._kernels.clear()
        monkeypatch.setattr(importlib.import_module("repro.kernels.fleet"), "_cases", broken)
        registry = obs.enable()
        try:
            assert kernels.fused_fleet() is None
        finally:
            obs.disable()
        assert kernels.kernel_status()["fleet"] == "numpy"
    assert registry.events[-1]["fields"] == {
        "family": "fleet", "status": "numpy", "reason": "TypeError",
    }


def test_a_raising_self_test_reports_the_exception_type(monkeypatch):
    def boom(kernel):
        raise ZeroDivisionError

    with _fresh_resolution(monkeypatch):
        if kernels.fused_fleet() is None:
            pytest.skip("fused kernels unavailable on this host")
        resolve._kernels.clear()
        monkeypatch.setattr(importlib.import_module("repro.kernels.fleet"), "self_test", boom)
        registry = obs.enable()
        try:
            assert kernels.fused_fleet() is None
        finally:
            obs.disable()
    assert registry.events[-1]["fields"] == {
        "family": "fleet", "status": "numpy", "reason": "ZeroDivisionError",
    }


class TestDifferential:
    def test_signed_zero_and_nan_payloads_count(self):
        assert resolve.same_bits(np.array([np.nan, 1.0]), np.array([np.nan, 1.0]))
        assert not resolve.same_bits(np.array([0.0]), np.array([-0.0]))
        assert not resolve.same_bits(0.0, -0.0)
        assert not resolve.same_bits(np.zeros(2), np.zeros(2, dtype=np.int64))
        assert resolve.same_bits({"a": [1, (2.0, "x")]}, {"a": [1, (2.0, "x")]})
        assert not resolve.same_bits({"a": [1]}, {"a": (1,)})

    def test_each_side_gets_its_own_copy(self):
        def write(values):
            values += 1.0
            return values

        inputs = (np.zeros(3),)
        assert resolve.differential(inputs, write, write)
        assert not inputs[0].any()

    def test_refusals_must_match(self):
        def refuse(values):
            raise ValueError

        def caught(run):
            def wrapped(values):
                try:
                    return run(values)
                except ValueError as error:
                    return repr(error)

            return wrapped

        # Only a refusal the case catches counts, and only if both sides refuse.
        assert resolve.differential((np.zeros(1),), caught(refuse), caught(refuse))
        assert not resolve.differential((np.zeros(1),), caught(refuse), lambda values: values)
        with pytest.raises(ValueError):
            resolve.differential((np.zeros(1),), refuse, refuse)
