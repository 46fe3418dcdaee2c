"""The ``adam`` family: the Adam step and the bias add + ReLU a DQN learner
on the NumPy path uses.  Their references are
:meth:`~repro.rl.optimizer.Adam.step_sliced` and
:func:`repro.rl.slimmable.bias_relu`.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.kernels.build import function
from repro.kernels.resolve import differential, in_place
from repro.obs import bus as _obs

_tables = [ctypes.POINTER(ctypes.c_long)] * 3 + [ctypes.POINTER(ctypes.c_void_p)] * 4


class AdamPlan:
    """Pointer/dimension tables for one multi-region Adam step.

    Every array must stay alive and in place for the plan's lifetime: the
    plan holds references to guarantee the former; its callers (flat-backed
    networks and optimizer state) guarantee the latter.
    """

    __slots__ = ("step_multi", "arguments", "keepalive")

    def __init__(self, step_multi, param_views, grads, m_views, v_views):
        k = len(param_views)
        # (rows, cols, row stride) per region; a vector is one row.
        shapes = [
            (1, a.size, a.size) if a.ndim == 1
            else (*a.shape, a.strides[0] // a.itemsize)
            for a in param_views
        ]
        self.step_multi = step_multi
        self.keepalive = (param_views, grads, m_views, v_views)
        self.arguments = (
            k,
            *[(ctypes.c_long * k)(*column) for column in zip(*shapes)],
            *[(ctypes.c_void_p * k)(*[a.ctypes.data for a in x]) for x in self.keepalive],
        )

    def step(self, lr, beta1, beta2, eps, bc1, bc2) -> None:
        """One Adam step of every region, with these hyper-parameters."""
        _obs.kernel_call("step_multi")
        self.step_multi(*self.arguments, lr, beta1, beta2, eps, bc1, bc2)


class AdamKernels:
    """ctypes bindings of ``adam_step_multi`` and ``bias_relu``."""

    def __init__(self, lib: ctypes.CDLL):
        long, double, pointer = ctypes.c_long, ctypes.c_double, ctypes.c_void_p
        self._step_multi = function(
            lib, "adam_step_multi", None, long, *_tables, *[double] * 6
        )
        self._bias_relu = function(lib, "bias_relu", None, long, long, *[pointer] * 3)

    def make_plan(self, param_views, grads, m_views, v_views) -> AdamPlan:
        """A plan updating each parameter view with its contiguous gradient."""
        return AdamPlan(self._step_multi, param_views, grads, m_views, v_views)

    def bias_relu(self, z: np.ndarray, b: np.ndarray, act: np.ndarray) -> None:
        """``z += b`` then ``act = maximum(z, 0)`` for one hidden layer.

        ``z`` and ``act`` are ``(batch, units)`` C-contiguous float64 and may
        be the same array; ``b`` is the contiguous active bias slice.
        """
        _obs.kernel_call("bias_relu")
        rows, cols = z.shape
        self._bias_relu(rows, cols, z.ctypes.data, b.ctypes.data, act.ctypes.data)


bind = AdamKernels


def self_test(kernel: AdamKernels) -> bool:
    """Adam on a strided 8x12 region of a 10x16 weight plus a vector region;
    ``bias_relu`` with separate and aliased output, a -0.0 bias and
    pre-activation, and a NaN."""
    from repro.rl.optimizer import Adam
    from repro.rl.slimmable import bias_relu

    rng = np.random.default_rng(12345)
    params = [rng.normal(size=(10, 16)), rng.normal(size=20)]
    grads = [rng.normal(size=(8, 12)), rng.normal(size=14)]
    regions = [(slice(0, 8), slice(0, 12)), (slice(0, 14),)]
    adam = Adam(learning_rate=0.003, beta1=0.9, beta2=0.99, epsilon=1e-8)
    adam._ensure_state(params)
    adam._m_flat[...] = rng.normal(size=adam._m_flat.size) * 0.1
    adam._v_flat[...] = np.abs(rng.normal(size=adam._v_flat.size)) * 0.01
    adam.step_count = 3

    def planned(adam, params, grads):
        adam.step_planned(adam.plan_for(kernel, params, grads, regions))
        return params, adam.state_dict()

    def sliced(adam, params, grads):
        adam.step_sliced(params, grads, regions)
        return params, adam.state_dict()

    z = rng.normal(size=(17, 23))
    bias = rng.normal(size=23)
    z[0, 0] = bias[0] = -0.0
    z[1, 1] = np.nan

    relu_inputs = [(z, bias, np.zeros_like(z)), (z, bias, z)]  # aliased output
    return differential((adam, params, grads), planned, sliced) and all(
        differential(inputs, in_place(kernel.bias_relu), in_place(bias_relu))
        for inputs in relu_inputs
    )
