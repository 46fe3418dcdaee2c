"""The ``random`` family: one normal draw per session, in one C call.

``fleet_normal`` calls NumPy's own ``random_normal`` (from
``libnpyrandom.a``) on each generator's ``bitgen_t``, so every draw and
generator state matches ``rng.normal(0.0, scale)``, its reference.
:class:`SessionGenerators` is its owner.
"""

from __future__ import annotations

import ctypes
from collections.abc import Iterable, Sequence

import numpy as np

from repro.kernels.build import function
from repro.kernels.resolve import differential, fused_random
from repro.obs import bus as _obs


def check_scales(scale) -> np.ndarray:
    """Normal-draw scales as contiguous float64, checked as NumPy checks them.

    ``Generator.normal`` raises ``ValueError("scale < 0")`` for a scale
    whose sign bit is set, ``-0.0`` included (NaN passes).  The fused draw
    does no check of its own, so every scale array it reads is built here.
    """
    scale = np.ascontiguousarray(scale, dtype=float)
    if (np.signbit(scale) & ~np.isnan(scale)).any():
        raise ValueError("scale < 0")
    return scale


class SessionGenerators(Sequence):
    """One generator per session, drawn from together by the fused kernel.

    A read-only sequence of the generators.  :meth:`normal` draws one
    ``normal(0.0, scale)`` value from each generator, through the C kernel
    when the ``random`` family runs and through ``Generator.normal`` when it
    does not, with bit-identical values and generator states either way.

    The kernel reads each generator's ``bitgen_t`` through a pointer table
    built on the first draw.  The table is derived state: pickling and
    ``copy.deepcopy`` drop it, so a copy rebuilds it from its own
    generators and never draws from its original's.  Setting
    ``bit_generator.state`` writes the generator in place, so restoring a
    checkpoint keeps the table valid.
    """

    def __init__(self, rngs: Iterable[np.random.Generator]):
        self._rngs = tuple(rngs)
        self._table = None
        self._shared_scales: dict = {}

    def __len__(self) -> int:
        return len(self._rngs)

    def __getitem__(self, index):
        return self._rngs[index]

    def __iter__(self):
        return iter(self._rngs)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_table"] = None
        return state

    def normal(self, scale: float | np.ndarray) -> np.ndarray:
        """One ``rng.normal(0.0, scale)`` draw per session, bit for bit.

        ``scale`` is one float shared by every session, or a per-session
        array built by :func:`check_scales`.
        """
        n = len(self._rngs)
        if not isinstance(scale, np.ndarray):
            shared = self._shared_scales.get(scale)
            if shared is None:
                shared = self._shared_scales[scale] = check_scales(np.full(n, scale))
            scale = shared
        elif (
            scale.shape != (n,)
            or scale.dtype != np.float64
            or not scale.flags.c_contiguous
        ):
            raise ValueError(
                f"need {n} contiguous float64 scales, got {scale.dtype} {scale.shape}"
            )
        return self._normal(fused_random(), scale)

    def _normal(self, kernel, scale: np.ndarray) -> np.ndarray:
        """:meth:`normal` on the given ``random`` kernel, or NumPy for ``None``."""
        if kernel is None:
            return np.array(
                [rng.normal(0.0, value) for rng, value in zip(self._rngs, scale.tolist())]
            )
        if self._table is None:
            self._table = (ctypes.c_void_p * len(self._rngs))(
                *[rng.bit_generator.ctypes.bit_generator.value for rng in self._rngs]
            )
        out = np.empty(len(self._rngs))
        kernel.fleet_normal(self._table, scale, out)
        return out


class RandomKernels:
    """ctypes binding of ``fleet_normal``."""

    def __init__(self, lib: ctypes.CDLL):
        pointer = ctypes.c_void_p
        argtypes = ctypes.c_long, ctypes.POINTER(pointer), pointer, pointer
        self._fleet_normal = function(lib, "fleet_normal", None, *argtypes)

    def fleet_normal(self, table, scale: np.ndarray, out: np.ndarray) -> None:
        """``out[i] = normal(0.0, scale[i])`` drawn from generator ``i``.

        ``table`` is a ctypes array of the generators' ``bitgen_t``
        addresses (kept by :class:`SessionGenerators`); ``scale`` comes from
        :func:`check_scales`; both arrays hold ``len(table)`` float64 values.
        """
        _obs.kernel_call("fleet_normal")
        self._fleet_normal(len(table), table, scale.ctypes.data, out.ctypes.data)


bind = RandomKernels


def self_test(kernel: RandomKernels) -> bool:
    """PCG64 and Philox generators, zero and mixed scales, two draws, and
    equal generator states afterwards."""
    scales = check_scales([0.0, 1.0, 0.2, 35.0, 1e-3, 7.5, 0.0, 2.0])

    def draws(kernel):
        def run(scales):
            generators = SessionGenerators(
                [np.random.default_rng(seed) for seed in range(5)]
                + [np.random.Generator(np.random.Philox(seed)) for seed in range(3)]
            )
            values = [generators._normal(kernel, scales) for _ in range(2)]
            return values, [rng.bit_generator.state for rng in generators]

        return run

    return differential((scales,), draws(kernel), draws(None))
