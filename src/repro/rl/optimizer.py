"""Adam, updating only the active region of each parameter.

Partial updates matter for the slimmable Q-network: when a batch is trained
at the reduced width, only the active slice of each layer may be touched —
the paper is explicit that "the remaining weights are not updated" — so the
optimizer must skip inactive entries entirely, moment estimates included.

:meth:`Adam.step_sliced` is the one update: it takes gradients already
sliced to the active extents plus an index region per parameter (a slice
tuple, see :data:`Region`), and updates parameters and moments through
views of those rectangles with reusable scratch buffers — no boolean masks,
no full-shape padding, no per-step temporaries.  A full-width step is the
same call with every region spanning its whole parameter.  The fused
``dqn_train_step`` kernel (:mod:`repro.kernels.dqn`) applies the same
elementwise operations in the same order, so a seeded run produces
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


class Adam:
    """Adam optimizer (Kingma & Ba) with active-region updates.

    The paper trains the Lotus Q-network with Adam, ``beta1 = 0.9``,
    ``beta2 = 0.99`` and a 0.01 learning rate under cosine decay; those are
    the defaults here.
    """

    def __init__(
        self,
        learning_rate: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.99,
        epsilon: float = 1e-8,
    ):
        self.set_learning_rate(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigurationError("beta1 and beta2 must lie in [0, 1)")
        if epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self._first_moment: List[np.ndarray] | None = None
        self._second_moment: List[np.ndarray] | None = None
        self._m_flat: np.ndarray | None = None
        self._v_flat: np.ndarray | None = None
        # Whether a step or a restore has used the moments: allocating them
        # (see _moments) changes no state a checkpoint sees.
        self._has_moments = False
        self._sliced_scratch: dict[Tuple[int, ...], Tuple[np.ndarray, np.ndarray]] = {}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__.setdefault("_has_moments", self._m_flat is not None)
        # Pickling copies each view on its own: re-view the per-parameter
        # moments into their flat buffers, so the sliced steps keep updating
        # the state that checkpoints copy and the dqn kernel addresses.
        for flat_name, views_name in (
            ("_m_flat", "_first_moment"), ("_v_flat", "_second_moment")
        ):
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

    def _moments(self, parameters: Sequence[np.ndarray]) -> Tuple[list, list]:
        """The per-parameter moment views, allocated as zeros on first use
        and never reallocated (the ``dqn`` kernel's table holds their
        addresses).  Allocating them is not a step: :meth:`state_dict`
        reports no moments until :meth:`_ensure_state` marks them used."""
        if self._first_moment is None:
            self._m_flat, self._first_moment = _flat_views(parameters)
            self._v_flat, self._second_moment = _flat_views(parameters)
        return self._first_moment, self._second_moment

    def _ensure_state(self, parameters: Sequence[np.ndarray]) -> None:
        self._moments(parameters)
        self._has_moments = True

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
        """Apply one in-place update to the active region of each parameter.

        Args:
            parameters: Full parameter arrays.
            gradients: Gradients already sliced to the active region, i.e.
                ``gradients[i].shape == parameters[i][regions[i]].shape``.
            regions: One index region per parameter (see :data:`Region`).
        """
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
        """Copyable snapshot of the mutable state (moments, step counter,
        learning rate) for checkpointing."""
        return {
            "kind": "adam",
            "learning_rate": float(self.learning_rate),
            "beta1": float(self.beta1),
            "beta2": float(self.beta2),
            "epsilon": float(self.epsilon),
            "step_count": int(self.step_count),
            "first_moment": self._m_flat.copy() if self._has_moments else None,
            "second_moment": self._v_flat.copy() if self._has_moments else None,
        }

    def load_state_dict(self, parameters: Sequence[np.ndarray], payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        ``parameters`` sizes the moment store when the snapshot carries
        moments (the parameter list must match the one training used).
        """
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
