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

from repro.kernels.build import NORMAL_SLOTS, ArgumentTable, function
from repro.kernels.resolve import differential, fused_random
from repro.obs import bus as _obs

#: ``PyCapsule_GetPointer``, typed here rather than on the shared
#: ``ctypes.pythonapi`` entry.
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def bitgen_address(rng: np.random.Generator) -> int:
    """The address of a generator's ``bitgen_t``, from its capsule.

    The same address ``bit_generator.ctypes.bit_generator`` reports, without
    building that interface's ctypes function wrappers.
    """
    return _capsule_pointer(rng.bit_generator.capsule, b"BitGenerator")


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

    The kernel reads an argument table built on the first draw: the
    generators' ``bitgen_t`` addresses and the scale and output buffers,
    which every draw writes in place.  The table is derived state: pickling
    and ``copy.deepcopy`` drop it, so a copy rebuilds it from its own
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
            n = len(self._rngs)
            addresses = np.array([bitgen_address(rng) for rng in self._rngs], np.int64)
            self._table = kernel.normal_table(addresses, np.zeros(n), np.zeros(n))
        buffers = self._table.buffers
        buffers["scale"][:] = scale
        kernel.fleet_normal(self._table)
        return buffers["out"].copy()


class RandomKernels:
    """ctypes binding of ``fleet_normal``."""

    def __init__(self, lib: ctypes.CDLL):
        self._fleet_normal = function(lib, "fleet_normal", None, ctypes.c_void_p)

    def normal_table(
        self, generators: np.ndarray, scale: np.ndarray, out: np.ndarray
    ) -> ArgumentTable:
        """The table of :meth:`fleet_normal`: the int64 ``bitgen_t``
        addresses of the generators, and one float64 scale and output per
        generator."""
        return ArgumentTable(
            NORMAL_SLOTS, (),
            {"sessions": generators.size, "generators": generators, "scale": scale,
             "out": out},
        )

    def fleet_normal(self, table: ArgumentTable) -> None:
        """``out[i] = normal(0.0, scale[i])`` drawn from generator ``i``.

        The ``scale`` buffer holds values checked by :func:`check_scales`.
        """
        _obs.kernel_call("fleet_normal")
        self._fleet_normal(table.values_address)


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
