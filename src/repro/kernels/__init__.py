"""Optional C kernels for the simulator's and the learner's hot loops.

Three families, one ``.c`` file each, build into one library
(:mod:`.build`): ``random`` (:mod:`.random`), ``fleet`` (:mod:`.fleet`)
and ``dqn`` (:mod:`.dqn`).  Each kernel
reproduces its owner's ``REPRO_FUSED=0`` NumPy code bit for bit, and each
family resolves on its own when an owner first asks (:mod:`.resolve`):
a failed self-test turns off that family alone.  This package imports no
domain package at module level; the self-tests import their owners when
they run.
"""

from repro.kernels.build import ArgumentTable
from repro.kernels.random import SessionGenerators, check_scales
from repro.kernels.resolve import (
    FAMILIES,
    fused_dqn,
    fused_fleet,
    fused_random,
    kernel_status,
)

__all__ = [
    "FAMILIES", "ArgumentTable", "SessionGenerators", "check_scales", "fused_dqn",
    "fused_fleet", "fused_random", "kernel_status",
]
