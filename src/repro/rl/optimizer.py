"""Gradient-descent optimizers that update only the active region of each
parameter.

Partial updates matter for the slimmable Q-network: when a batch is trained
at the reduced width, only the active slice of each layer may be touched —
the paper is explicit that "the remaining weights are not updated" — so the
optimizer must skip inactive entries entirely (including their moment
estimates, in the case of Adam).

:meth:`Optimizer.step_sliced` is the one update: it takes gradients already
sliced to the active extents plus an index region per parameter (a slice
tuple, see :data:`Region`), and updates parameters and moments through
views of those rectangles with reusable scratch buffers — no boolean masks,
no full-shape padding, no per-step temporaries.  A full-width step is the
same call with every region spanning its whole parameter.  The fused
``dqn_train_step`` kernel (:mod:`repro.kernels.dqn`) applies the same
elementwise Adam operations in the same order, so a seeded run produces
bit-identical parameters on either path.  Moment estimates are views into
one flat buffer per moment, in parameter order, which is what checkpoints
copy and the kernel addresses.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

#: Index region addressing the active part of one parameter array: a slice
#: tuple such as ``(slice(0, in_active), slice(0, out_active))`` for a weight
#: matrix or ``(slice(0, out_active),)`` for a bias vector.
Region = Union[Tuple[slice, ...], slice]


def _flat_views(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, List[np.ndarray]]:
    """One flat zero buffer plus per-array reshaped views, in order."""
    total = sum(int(a.size) for a in arrays)
    flat = np.zeros(total)
    views: List[np.ndarray] = []
    offset = 0
    for a in arrays:
        views.append(flat[offset : offset + a.size].reshape(a.shape))
        offset += a.size
    return flat, views


class Optimizer:
    """Base class: holds the learning rate and the step counter."""

    #: ``(flat buffer, per-parameter views)`` attribute pairs of the state.
    _viewed_state: Tuple[Tuple[str, str], ...] = ()

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise ConfigurationError("learning rate must be positive")
        self.learning_rate = learning_rate
        self.step_count = 0

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Pickling copies each view on its own: re-view every per-parameter
        # list into its flat buffer, so the sliced steps keep updating the
        # state that checkpoints copy and the dqn kernel addresses.
        for flat_name, views_name in self._viewed_state:
            flat = getattr(self, flat_name)
            if flat is not None:
                new_flat, views = _flat_views(getattr(self, views_name))
                new_flat[...] = flat
                setattr(self, flat_name, new_flat)
                setattr(self, views_name, views)

    def set_learning_rate(self, learning_rate: float) -> None:
        """Update the learning rate (called by schedules between steps)."""
        if learning_rate <= 0:
            raise ConfigurationError("learning rate must be positive")
        self.learning_rate = learning_rate

    def step_sliced(
        self,
        parameters: Sequence[np.ndarray],
        gradients: Sequence[np.ndarray],
        regions: Sequence[Region],
    ) -> None:
        """Apply one in-place update to the active region of each parameter.

        Args:
            parameters: Full parameter arrays.
            gradients: Gradients already sliced to the active region, i.e.
                ``gradients[i].shape == parameters[i][regions[i]].shape``.
            regions: One index region per parameter (see :data:`Region`).
        """
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Copyable snapshot of the optimizer's mutable state (moments,
        step counter, learning rate) for checkpointing."""
        raise NotImplementedError

    def load_state_dict(self, parameters: Sequence[np.ndarray], payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        ``parameters`` sizes the moment store when the snapshot carries
        moments (the parameter list must match the one training used).
        """
        raise NotImplementedError


def _validate_sliced_args(
    parameters: Sequence[np.ndarray],
    gradients: Sequence[np.ndarray],
    regions: Sequence[Region],
) -> None:
    if len(parameters) != len(gradients) or len(parameters) != len(regions):
        raise ConfigurationError(
            f"got {len(parameters)} parameters, {len(gradients)} gradients and "
            f"{len(regions)} regions"
        )
    for index, (param, grad, region) in enumerate(zip(parameters, gradients, regions)):
        region_shape = param[region].shape
        if grad.shape != region_shape:
            raise ConfigurationError(
                f"parameter {index}: gradient shape {grad.shape} != active "
                f"region shape {region_shape}"
            )


class Sgd(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    _viewed_state = (("_velocity_flat", "_velocity"),)

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0):
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError("momentum must lie in [0, 1)")
        self.momentum = momentum
        self._velocity: List[np.ndarray] | None = None
        self._velocity_flat: np.ndarray | None = None

    def _ensure_state(self, parameters: Sequence[np.ndarray]) -> None:
        if self._velocity is None:
            self._velocity_flat, self._velocity = _flat_views(parameters)

    def step_sliced(
        self,
        parameters: Sequence[np.ndarray],
        gradients: Sequence[np.ndarray],
        regions: Sequence[Region],
    ) -> None:
        _validate_sliced_args(parameters, gradients, regions)
        self._ensure_state(parameters)
        self.step_count += 1
        for param, grad, region, velocity in zip(
            parameters, gradients, regions, self._velocity
        ):
            v = velocity[region]
            v *= self.momentum
            v += grad
            param[region] -= self.learning_rate * v

    def state_dict(self) -> dict:
        return {
            "kind": "sgd",
            "learning_rate": float(self.learning_rate),
            "momentum": float(self.momentum),
            "step_count": int(self.step_count),
            "velocity": None if self._velocity_flat is None else self._velocity_flat.copy(),
        }

    def load_state_dict(self, parameters: Sequence[np.ndarray], payload: dict) -> None:
        if payload.get("kind") != "sgd":
            raise ConfigurationError(
                f"expected an 'sgd' optimizer snapshot, got {payload.get('kind')!r}"
            )
        self.set_learning_rate(float(payload["learning_rate"]))
        self.step_count = int(payload["step_count"])
        velocity = payload.get("velocity")
        if velocity is not None:
            self._ensure_state(parameters)
            velocity = np.asarray(velocity, dtype=float)
            if velocity.shape != self._velocity_flat.shape:
                raise ConfigurationError(
                    f"velocity snapshot has shape {velocity.shape}, optimizer "
                    f"state has {self._velocity_flat.shape}"
                )
            self._velocity_flat[...] = velocity
        elif self._velocity_flat is not None:
            # Snapshot taken before the first step: rolling a live optimizer
            # back must clear its momentum, not keep it.
            self._velocity_flat.fill(0.0)


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba) with active-region updates.

    The paper trains the Lotus Q-network with Adam, ``beta1 = 0.9``,
    ``beta2 = 0.99`` and a 0.01 learning rate under cosine decay; those are
    the defaults here.
    """

    _viewed_state = (("_m_flat", "_first_moment"), ("_v_flat", "_second_moment"))

    def __init__(
        self,
        learning_rate: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.99,
        epsilon: float = 1e-8,
    ):
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigurationError("beta1 and beta2 must lie in [0, 1)")
        if epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._first_moment: List[np.ndarray] | None = None
        self._second_moment: List[np.ndarray] | None = None
        self._m_flat: np.ndarray | None = None
        self._v_flat: np.ndarray | None = None
        self._sliced_scratch: dict[Tuple[int, ...], Tuple[np.ndarray, np.ndarray]] = {}

    def _ensure_state(self, parameters: Sequence[np.ndarray]) -> None:
        if self._first_moment is None:
            self._m_flat, self._first_moment = _flat_views(parameters)
            self._v_flat, self._second_moment = _flat_views(parameters)

    def _scratch_for(self, shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        scratch = self._sliced_scratch.get(shape)
        if scratch is None:
            scratch = (np.empty(shape), np.empty(shape))
            self._sliced_scratch[shape] = scratch
        return scratch

    def step_sliced(
        self,
        parameters: Sequence[np.ndarray],
        gradients: Sequence[np.ndarray],
        regions: Sequence[Region],
    ) -> None:
        _validate_sliced_args(parameters, gradients, regions)
        self._ensure_state(parameters)
        assert self._second_moment is not None
        self.step_count += 1
        bias_correction1 = 1.0 - self.beta1**self.step_count
        bias_correction2 = 1.0 - self.beta2**self.step_count
        one_minus_beta1 = 1.0 - self.beta1
        one_minus_beta2 = 1.0 - self.beta2
        for index, (param, grad, region) in enumerate(
            zip(parameters, gradients, regions)
        ):
            # Views into the active rectangle plus two reusable scratch
            # buffers; the operand pairs and their order are the
            # dqn_train_step kernel's, so both paths give the same bits.
            m = self._first_moment[index][region]
            v = self._second_moment[index][region]
            s1, s2 = self._scratch_for(grad.shape)
            m *= self.beta1
            np.multiply(grad, one_minus_beta1, out=s1)
            m += s1
            v *= self.beta2
            np.multiply(grad, grad, out=s1)
            np.multiply(s1, one_minus_beta2, out=s1)
            v += s1
            np.divide(m, bias_correction1, out=s1)
            s1 *= self.learning_rate
            np.divide(v, bias_correction2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.epsilon
            s1 /= s2
            param[region] -= s1

    def state_dict(self) -> dict:
        return {
            "kind": "adam",
            "learning_rate": float(self.learning_rate),
            "beta1": float(self.beta1),
            "beta2": float(self.beta2),
            "epsilon": float(self.epsilon),
            "step_count": int(self.step_count),
            "first_moment": None if self._m_flat is None else self._m_flat.copy(),
            "second_moment": None if self._v_flat is None else self._v_flat.copy(),
        }

    def load_state_dict(self, parameters: Sequence[np.ndarray], payload: dict) -> None:
        if payload.get("kind") != "adam":
            raise ConfigurationError(
                f"expected an 'adam' optimizer snapshot, got {payload.get('kind')!r}"
            )
        self.set_learning_rate(float(payload["learning_rate"]))
        self.step_count = int(payload["step_count"])
        first = payload.get("first_moment")
        second = payload.get("second_moment")
        if (first is None) != (second is None):
            raise ConfigurationError("Adam snapshot must carry both moments or neither")
        if first is not None:
            self._ensure_state(parameters)
            first = np.asarray(first, dtype=float)
            second = np.asarray(second, dtype=float)
            if first.shape != self._m_flat.shape or second.shape != self._v_flat.shape:
                raise ConfigurationError(
                    f"moment snapshots have shapes {first.shape}/{second.shape}, "
                    f"optimizer state has {self._m_flat.shape}"
                )
            self._m_flat[...] = first
            self._v_flat[...] = second
        elif self._m_flat is not None:
            # Snapshot taken before the first step: rolling a live optimizer
            # back must clear its moments, not keep them.
            self._m_flat.fill(0.0)
            self._v_flat.fill(0.0)
