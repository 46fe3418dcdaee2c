"""The C kernels' entry points benchmark scripts use; see :mod:`repro.kernels`.
``fused_adam()`` builds the whole library (one compile) and resolves ``adam``."""

from repro.kernels import fused_adam, kernel_status

__all__ = ["fused_adam", "kernel_status"]
