"""The C kernels' entry points benchmark scripts use; see :mod:`repro.kernels`.
``fused_adam()`` builds and loads the whole library (one compile) and
resolves no family; its name predates the per-family kernels."""

from repro.kernels import kernel_status
from repro.kernels.build import library as fused_adam

__all__ = ["fused_adam", "kernel_status"]
