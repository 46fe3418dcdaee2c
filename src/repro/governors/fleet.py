"""Vectorized default governors and static policies for the fleet engine.

Array re-implementations of the scalar governors in
:mod:`repro.governors.cpu` / :mod:`repro.governors.gpu` and of the static
policies in :mod:`repro.governors.static`, acting on a whole fleet per
call.  Each ``select_levels`` kernel performs the same arithmetic as the
scalar ``select_level``, so a fleet driven by
:class:`BatchedDefaultGovernorPolicy` makes the *identical* per-session
decisions the scalar :class:`~repro.governors.base.DefaultGovernorPolicy`
makes (the equivalence tests run both and compare traces).  With the
``fleet`` kernels (:mod:`repro.kernels`), each governor's
``select_levels`` is one ``fleet_select_levels`` call; its NumPy form,
``_select_numpy``, is the kernel's ``REPRO_FUSED=0`` reference.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.governors.base import DefaultGovernorPolicy
from repro.governors.cpu import OndemandGovernor, SchedutilGovernor
from repro.governors.gpu import (
    MsmAdrenoTzGovernor,
    NvhostPodgovGovernor,
    SimpleOndemandGovernor,
)
from repro.governors.registry import build_default_governor
from repro.kernels import fused_fleet
from repro.env.fleet import (
    FleetDecision,
    FleetFrameResult,
    FleetMidObservation,
    FleetPolicy,
    FleetStartObservation,
    validate_session_partition,
)


_FLOAT64, _INT64 = np.dtype(np.float64), np.dtype(np.int64)


class BatchedLevelSelector(ABC):
    """A governor kernel: utilisation arrays in, level arrays out."""

    name: str = "batched-governor"

    @abstractmethod
    def select_levels(
        self, utilisation: np.ndarray, current_levels: np.ndarray, num_levels: int
    ) -> np.ndarray:
        """Select per-session frequency levels from observed utilisations."""


class _FusedSelector(BatchedLevelSelector):
    """A governor whose ``select_levels`` runs as one ``fleet_select_levels``
    call, with its ``_select_numpy`` as the ``REPRO_FUSED=0`` reference.

    The kernel's table holds the governor's parameters as they were when it
    was built (the first call at a fleet size), so set them only in
    ``__init__``.  Inputs are copied into the table's buffers and the levels
    out of it.  Anything the kernel would not reproduce bit for bit -- other
    types, dtypes or shapes, a non-finite utilisation -- takes the NumPy
    path.
    """

    kind: str
    _kernel_table = None

    def __getstate__(self) -> dict:
        # The table holds raw addresses; a copy (pickle or deepcopy) builds
        # its own.
        state = self.__dict__.copy()
        state.pop("_kernel_table", None)
        return state

    def select_levels(
        self, utilisation: np.ndarray, current_levels: np.ndarray, num_levels: int
    ) -> np.ndarray:
        return self._select(fused_fleet(), utilisation, current_levels, num_levels)

    def _select(self, kernel, utilisation, current_levels, num_levels) -> np.ndarray:
        """:meth:`select_levels` on the given ``fleet`` kernels, or NumPy for ``None``."""
        if (
            kernel is not None
            and type(num_levels) is int
            and type(utilisation) is np.ndarray
            and type(current_levels) is np.ndarray
            and utilisation.dtype is _FLOAT64
            and current_levels.dtype is _INT64
            and utilisation.ndim == 1
            and utilisation.shape == current_levels.shape
        ):
            table = self._kernel_table
            if table is None or table.buffers["levels"].size != utilisation.size:
                table = self._kernel_table = kernel.governor_table(
                    self.kind, utilisation.size, self.kernel_parameters()
                )
            buffers = table.buffers
            buffers["utilisation"][:] = utilisation
            buffers["current"][:] = current_levels
            if kernel.fleet_select_levels(table, num_levels):
                return buffers["levels"].copy()
        return self._select_numpy(utilisation, current_levels, num_levels)

    @abstractmethod
    def kernel_parameters(self) -> dict:
        """This governor's ``step`` and its ``margin``, ``up_threshold`` and
        ``down_threshold`` constants (0 where it has none)."""

    @abstractmethod
    def _select_numpy(
        self, utilisation: np.ndarray, current_levels: np.ndarray, num_levels: int
    ) -> np.ndarray:
        """The NumPy form of ``fleet_select_levels`` for this governor."""


class BatchedSchedutilGovernor(_FusedSelector):
    """Vectorized :class:`~repro.governors.cpu.SchedutilGovernor`."""

    name = kind = "schedutil"

    def __init__(self, margin: float = 1.25, max_step_down: int = 1):
        if margin <= 0:
            raise ConfigurationError("margin must be positive")
        if not isinstance(max_step_down, (int, np.integer)) or max_step_down < 0:
            raise ConfigurationError("max_step_down must be a non-negative integer")
        self.margin = margin
        self.max_step_down = max_step_down

    def kernel_parameters(self) -> dict:
        return {
            "step": self.max_step_down, "margin": self.margin, "up_threshold": 0.0,
            "down_threshold": 0.0,
        }

    def _select_numpy(
        self, utilisation: np.ndarray, current_levels: np.ndarray, num_levels: int
    ) -> np.ndarray:
        utilisation = np.minimum(np.maximum(utilisation, 0.0), 1.0)
        target_fraction = np.minimum(1.0, self.margin * utilisation)
        target = np.minimum(
            num_levels - 1, np.round(target_fraction * (num_levels - 1) + 0.49)
        ).astype(np.int64)
        if self.max_step_down:
            floor = current_levels - self.max_step_down
            target = np.where(target < floor, floor, target)
        return np.clip(target, 0, num_levels - 1)


class BatchedOndemandGovernor(_FusedSelector):
    """Vectorized :class:`~repro.governors.cpu.OndemandGovernor`."""

    name = kind = "ondemand"

    def __init__(self, up_threshold: float = 0.8):
        if not 0.0 < up_threshold <= 1.0:
            raise ConfigurationError("up_threshold must lie in (0, 1]")
        self.up_threshold = up_threshold

    def kernel_parameters(self) -> dict:
        return {
            "step": 0, "margin": 0.0, "up_threshold": self.up_threshold,
            "down_threshold": 0.0,
        }

    def _select_numpy(
        self, utilisation: np.ndarray, current_levels: np.ndarray, num_levels: int
    ) -> np.ndarray:
        utilisation = np.minimum(np.maximum(utilisation, 0.0), 1.0)
        scaled = np.round(utilisation / self.up_threshold * (num_levels - 1)).astype(
            np.int64
        )
        target = np.where(utilisation >= self.up_threshold, num_levels - 1, scaled)
        return np.clip(target, 0, num_levels - 1)


class BatchedSimpleOndemandGovernor(_FusedSelector):
    """Vectorized :class:`~repro.governors.gpu.SimpleOndemandGovernor`.

    The ``nvhost_podgov`` and ``msm-adreno-tz`` pairings are this kernel
    with their device-specific thresholds (exactly as in the scalar
    hierarchy).
    """

    name = kind = "simple_ondemand"

    def __init__(
        self, up_threshold: float = 0.85, down_threshold: float = 0.3, up_step: int = 2
    ):
        if not 0.0 < down_threshold < up_threshold <= 1.0:
            raise ConfigurationError("require 0 < down_threshold < up_threshold <= 1")
        if not isinstance(up_step, (int, np.integer)) or up_step <= 0:
            raise ConfigurationError("up_step must be a positive integer")
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self.up_step = up_step

    def kernel_parameters(self) -> dict:
        return {
            "step": self.up_step, "margin": 0.0, "up_threshold": self.up_threshold,
            "down_threshold": self.down_threshold,
        }

    def _select_numpy(
        self, utilisation: np.ndarray, current_levels: np.ndarray, num_levels: int
    ) -> np.ndarray:
        utilisation = np.minimum(np.maximum(utilisation, 0.0), 1.0)
        up = np.minimum(num_levels - 1, current_levels + self.up_step)
        down = np.maximum(0, current_levels - 1)
        return np.where(
            utilisation >= self.up_threshold,
            up,
            np.where(utilisation <= self.down_threshold, down, current_levels),
        )


#: The governors whose ``select_levels`` is one ``fleet_select_levels`` call.
_FUSED_SELECTORS = (
    BatchedSchedutilGovernor, BatchedOndemandGovernor, BatchedSimpleOndemandGovernor,
)


def batched_nvhost_podgov() -> BatchedSimpleOndemandGovernor:
    """The Jetson GPU's ``nvhost_podgov`` thresholds, vectorized."""
    governor = BatchedSimpleOndemandGovernor(
        up_threshold=0.8, down_threshold=0.25, up_step=3
    )
    governor.name = "nvhost_podgov"
    return governor


def batched_msm_adreno_tz() -> BatchedSimpleOndemandGovernor:
    """The Snapdragon Adreno ``msm-adreno-tz`` thresholds, vectorized."""
    governor = BatchedSimpleOndemandGovernor(
        up_threshold=0.75, down_threshold=0.2, up_step=2
    )
    governor.name = "msm-adreno-tz"
    return governor


class BatchedDefaultGovernorPolicy(FleetPolicy):
    """Independent vectorized CPU & GPU governors across the fleet."""

    def __init__(
        self, cpu_governor: BatchedLevelSelector, gpu_governor: BatchedLevelSelector
    ):
        self.cpu_governor = cpu_governor
        self.gpu_governor = gpu_governor
        self.name = f"default({cpu_governor.name}+{gpu_governor.name})"

    def _decide(self, observation) -> FleetDecision:
        return FleetDecision(
            cpu_levels=self.cpu_governor.select_levels(
                observation.cpu_utilisation,
                observation.cpu_level,
                observation.cpu_num_levels,
            ),
            gpu_levels=self.gpu_governor.select_levels(
                observation.gpu_utilisation,
                observation.gpu_level,
                observation.gpu_num_levels,
            ),
        )

    def begin_frame(self, observation: FleetStartObservation) -> FleetDecision:
        return self._decide(observation)

    def mid_frame(self, observation: FleetMidObservation) -> FleetDecision:
        return self._decide(observation)

    def frame_governors(self) -> tuple | None:
        """The governor pair, if both are exactly one of the built-in fused
        selectors and this policy exactly this class: its decisions are
        then the governors' selections on each observation's utilisation
        and level rows, requested unmasked, and it keeps no state between
        calls, so the frame loop may run its frames as one kernel call
        each.  A subclass, or a governor of another type, may do more with
        the protocol calls, and gets them."""
        governors = self.cpu_governor, self.gpu_governor
        if type(self) is BatchedDefaultGovernorPolicy and all(
            type(governor) in _FUSED_SELECTORS for governor in governors
        ):
            return governors
        return None


class BatchedUserspacePolicy(FleetPolicy):
    """Pin every session to fixed, user-chosen frequency levels."""

    def __init__(self, cpu_level: int, gpu_level: int):
        if cpu_level < 0 or gpu_level < 0:
            raise ConfigurationError("frequency levels must be non-negative")
        self.cpu_level = cpu_level
        self.gpu_level = gpu_level
        self.name = f"userspace(cpu={cpu_level},gpu={gpu_level})"

    def _decision(self, observation) -> FleetDecision:
        n = observation.num_sessions
        return FleetDecision(
            cpu_levels=np.full(
                n, min(self.cpu_level, observation.cpu_num_levels - 1), dtype=np.int64
            ),
            gpu_levels=np.full(
                n, min(self.gpu_level, observation.gpu_num_levels - 1), dtype=np.int64
            ),
        )

    def begin_frame(self, observation: FleetStartObservation) -> FleetDecision:
        return self._decision(observation)

    def mid_frame(self, observation: FleetMidObservation) -> FleetDecision:
        return self._decision(observation)


class BatchedPerformancePolicy(FleetPolicy):
    """Always request the maximum operating points, fleet-wide."""

    name = "performance"

    def _decision(self, observation) -> FleetDecision:
        n = observation.num_sessions
        return FleetDecision(
            cpu_levels=np.full(n, observation.cpu_num_levels - 1, dtype=np.int64),
            gpu_levels=np.full(n, observation.gpu_num_levels - 1, dtype=np.int64),
        )

    def begin_frame(self, observation: FleetStartObservation) -> FleetDecision:
        return self._decision(observation)

    def mid_frame(self, observation: FleetMidObservation) -> FleetDecision:
        return self._decision(observation)


class BatchedPowersavePolicy(FleetPolicy):
    """Always request the minimum operating points, fleet-wide."""

    name = "powersave"

    def _decision(self, observation) -> FleetDecision:
        n = observation.num_sessions
        return FleetDecision(
            cpu_levels=np.zeros(n, dtype=np.int64),
            gpu_levels=np.zeros(n, dtype=np.int64),
        )

    def begin_frame(self, observation: FleetStartObservation) -> FleetDecision:
        return self._decision(observation)

    def mid_frame(self, observation: FleetMidObservation) -> FleetDecision:
        return self._decision(observation)


class SubFleetPolicies(FleetPolicy):
    """Partition one fleet's sessions among several fleet policies.

    The grouped sub-fleet path for *policies*: a heterogeneous group whose
    sessions share a device and detector but run different methods (or the
    same method with different seed blocks) is driven by one
    ``SubFleetPolicies`` that slices the batch observation per sub-policy
    (:meth:`FleetStartObservation.take`), lets each sub-policy decide over
    its own sessions, and scatters the sub-decisions back into one masked
    :class:`FleetDecision`.  Because vectorized kernels are elementwise and
    scalar adapters materialise per-session observations, slicing preserves
    every sub-policy's bit-exact behaviour.

    Args:
        policies: One fleet policy per sub-fleet.
        session_indices: For each policy, the local session indices it
            drives; together they must partition ``0..N-1`` disjointly.
    """

    def __init__(
        self,
        policies: Sequence[FleetPolicy],
        session_indices: Sequence[Sequence[int]],
    ):
        if not policies:
            raise ConfigurationError("need at least one sub-policy")
        if len(policies) != len(session_indices):
            raise ConfigurationError(
                f"got {len(policies)} policies for "
                f"{len(session_indices)} index groups"
            )
        self.policies = list(policies)
        total = sum(len(indices) for indices in session_indices)
        self.indices = validate_session_partition(
            session_indices, total, allow_empty_groups=False
        )
        self.num_sessions = total
        self.name = f"sub-fleet({'+'.join(policy.name for policy in self.policies)})"

    def reset(self) -> None:
        for policy in self.policies:
            policy.reset()

    def _scatter(self, observation, decisions) -> FleetDecision | None:
        if all(decision is None for decision in decisions):
            return None
        cpu = observation.cpu_level.copy()
        gpu = observation.gpu_level.copy()
        mask = np.zeros(self.num_sessions, dtype=bool)
        for indices, decision in zip(self.indices, decisions):
            if decision is None:
                continue
            if decision.mask is None:
                cpu[indices] = decision.cpu_levels
                gpu[indices] = decision.gpu_levels
                mask[indices] = True
            else:
                selected = indices[decision.mask]
                cpu[selected] = decision.cpu_levels[decision.mask]
                gpu[selected] = decision.gpu_levels[decision.mask]
                mask[selected] = True
        return FleetDecision(cpu_levels=cpu, gpu_levels=gpu, mask=mask)

    def begin_frame(self, observation: FleetStartObservation) -> FleetDecision | None:
        decisions = [
            policy.begin_frame(observation.take(indices))
            for policy, indices in zip(self.policies, self.indices)
        ]
        return self._scatter(observation, decisions)

    def mid_frame(self, observation: FleetMidObservation) -> FleetDecision | None:
        decisions = [
            policy.mid_frame(observation.take(indices))
            for policy, indices in zip(self.policies, self.indices)
        ]
        return self._scatter(observation, decisions)

    def end_frame(self, result: FleetFrameResult) -> None:
        for policy, indices in zip(self.policies, self.indices):
            policy.end_frame(result.take(indices))

    def session_policy_names(self) -> List[str]:
        """Per-session policy name, in local session order."""
        names = [""] * self.num_sessions
        for policy, indices in zip(self.policies, self.indices):
            for index in indices.tolist():
                names[index] = policy.name
        return names

    # -- checkpointing -------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Per-sub-policy snapshots (``None`` entries for stateless ones)."""
        return {
            "policies": [
                policy.state_dict() if hasattr(policy, "state_dict") else None
                for policy in self.policies
            ]
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into the sub-policies."""
        states = payload["policies"]
        if len(states) != len(self.policies):
            raise ConfigurationError(
                f"snapshot carries {len(states)} sub-policies for "
                f"{len(self.policies)} groups"
            )
        for policy, state in zip(self.policies, states):
            if state is not None:
                policy.load_state_dict(state)


#: Each scalar governor type's vectorized twin and the constructor
#: parameters the twin copies from it.  Exact types only: a subclass may
#: override ``select_level`` and has no twin.
_SIMPLE_ONDEMAND_TWIN = (
    BatchedSimpleOndemandGovernor, ("up_threshold", "down_threshold", "up_step")
)
_BATCHED_TWINS = {
    SchedutilGovernor: (BatchedSchedutilGovernor, ("margin", "max_step_down")),
    OndemandGovernor: (BatchedOndemandGovernor, ("up_threshold",)),
    SimpleOndemandGovernor: _SIMPLE_ONDEMAND_TWIN,
    NvhostPodgovGovernor: _SIMPLE_ONDEMAND_TWIN,
    MsmAdrenoTzGovernor: _SIMPLE_ONDEMAND_TWIN,
}


def _batched_twin(governor) -> BatchedLevelSelector:
    """The vectorized governor making ``governor``'s decisions, under its name."""
    try:
        twin_type, parameters = _BATCHED_TWINS[type(governor)]
    except KeyError:
        raise ConfigurationError(
            f"governor type {type(governor).__name__} has no vectorized twin"
        ) from None
    twin = twin_type(**{name: getattr(governor, name) for name in parameters})
    twin.name = governor.name
    return twin


def build_batched_default_governor(device_name: str) -> BatchedDefaultGovernorPolicy:
    """The vectorized default-governor pairing for ``device_name``.

    The twin of :func:`repro.governors.registry.build_default_governor`'s
    pairing, the one registry of default governors, so a pairing added
    with :func:`~repro.governors.registry.register_default_governor` drives
    fleets as it drives scalar sessions.

    Raises:
        ConfigurationError: The registered pairing is not exactly a
            :class:`~repro.governors.base.DefaultGovernorPolicy`, or one of
            its governors has no vectorized twin.
    """
    scalar = build_default_governor(device_name)
    if type(scalar) is not DefaultGovernorPolicy:
        raise ConfigurationError(
            f"default governor of {device_name!r} is a {type(scalar).__name__}, "
            f"which has no vectorized twin"
        )
    return BatchedDefaultGovernorPolicy(
        _batched_twin(scalar.cpu_governor), _batched_twin(scalar.gpu_governor)
    )
