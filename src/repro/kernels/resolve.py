"""Per-family kernel resolution and the differential self-test.

Each family resolves on its own, the first time one of its owners asks:
the library is built (once per process), the family's symbols are bound,
and its self-test runs every kernel and the owners' ``REPRO_FUSED=0`` code
on copies of the same generated inputs (:func:`differential`), with any
family not yet resolved on its NumPy path.  Only if
every result agrees bit for bit does the family run; any failure turns off
that family alone.  A ``fused.resolved`` obs event reports each outcome
with the family and, on failure, the reason.
"""

from __future__ import annotations

import copy
import importlib

import numpy as np

from repro.kernels import build
from repro.kernels.build import FAMILIES
from repro.obs import bus as _obs

#: Resolved families: the verified kernels, or ``None`` for the NumPy path.
#: A family resolving right now maps to ``None`` too, so an owner built by
#: its own self-test runs on the NumPy path.
_kernels: dict = {}
_status: dict = {}
_UNRESOLVED = object()
#: The families whose self-test is running: meanwhile an unresolved family
#: reads as ``None`` and stays unresolved, so one family's self-test runs
#: the others' NumPy code and never resolves them.
_resolving: list = []


def _verified(family: str):
    """``(kernels, None)`` if the family's self-test passes, else ``(None, reason)``."""
    lib, reason = build.library()
    if lib is None:
        return None, reason
    module = importlib.import_module(f"repro.kernels.{family}")
    try:
        kernel = module.bind(lib)
    except AttributeError:
        return None, "symbol missing"
    return (kernel, None) if module.self_test(kernel) else (None, "mismatch")


def _resolve(family: str):
    _kernels[family] = None
    kernel, reason, status = None, None, "disabled"
    if build.enabled():
        _resolving.append(family)
        try:
            kernel, reason = _verified(family)
        except Exception as exc:  # noqa: BLE001 - any failure means NumPy
            reason = type(exc).__name__
        finally:
            _resolving.remove(family)
        status = "numpy" if kernel is None else "fused"
    _kernels[family], _status[family] = kernel, status
    fields = {"family": family, "status": status}
    _obs.event("fused.resolved", **fields, **({"reason": reason} if reason else {}))
    return kernel


def _accessor(family: str, kernels: str):
    def fused():
        kernel = _kernels.get(family, _UNRESOLVED)
        if kernel is _UNRESOLVED:
            return None if _resolving else _resolve(family)
        return kernel

    fused.__name__ = fused.__qualname__ = f"fused_{family}"
    fused.__doc__ = f"The verified ``{family}`` kernels ({kernels}), or ``None``."
    return fused


fused_random = _accessor("random", "``fleet_normal``")
fused_fleet = _accessor(
    "fleet", "frame phases, device segment, level request, governor, AR(1), proposal tail"
)
fused_dqn = _accessor("dqn", "``dqn_train_step``, ``dqn_greedy``")


def kernel_status() -> dict:
    """``{family: status}`` without forcing a build: ``"disabled"``
    (``REPRO_FUSED=0``), ``"unresolved"`` (no owner has asked yet),
    ``"fused"`` (built and bitwise-verified) or ``"numpy"`` (fell back)."""
    if not build.enabled():
        return dict.fromkeys(FAMILIES, "disabled")
    return {family: _status.get(family, "unresolved") for family in FAMILIES}


def same_bits(a, b) -> bool:
    """Whether two results are equal bit for bit: arrays and floats through
    their int64 bit patterns (``-0.0`` differs from ``0.0``, equal NaNs
    match), dicts, lists and tuples item by item, anything else by ``==``."""
    if isinstance(a, dict):
        keys = isinstance(b, dict) and a.keys() == b.keys()
        return keys and all(same_bits(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_bits, a, b))
    if isinstance(a, (np.ndarray, float)):
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        if a.dtype.itemsize == 8:
            a, b = a.view(np.int64), b.view(np.int64)
        return bool(np.array_equal(a, b))
    return type(a) is type(b) and a == b


def in_place(run):
    """``run`` returning its arguments, for code that writes into them."""

    def wrapped(*arguments):
        run(*arguments)
        return arguments

    return wrapped


def differential(inputs: tuple, kernel_run, reference_run) -> bool:
    """Run a kernel and its reference on copies of ``inputs``; compare bits.

    ``kernel_run(*inputs)`` and ``reference_run(*inputs)`` each get their
    own deep copy and return what they produced (arrays, states, values).
    An exception on either side propagates, and fails the family's
    self-test with its type as the reason: a case that expects a refusal
    catches it inside both runs and returns it (the frame and level-request
    cases return the error message), so a case that an API change breaks
    on both sides cannot pass as agreement.
    """
    return same_bits(
        kernel_run(*copy.deepcopy(inputs)), reference_run(*copy.deepcopy(inputs))
    )
