"""Gradient-descent optimizers with masked, sliced or flat partial updates.

Partial updates matter for the slimmable Q-network: when a batch is trained
at the reduced width, only the active slice of each layer may be touched —
the paper is explicit that "the remaining weights are not updated" — so the
optimizer must skip inactive entries entirely (including their moment
estimates, in the case of Adam).

Three entry points share one moment store:

* :meth:`Optimizer.step` — full-shape gradients with optional boolean masks
  (the historical interface, kept for compatibility and for the frozen
  equivalence oracle in :mod:`repro.rl.legacy`).
* :meth:`Optimizer.step_sliced` — gradients already sliced to the active
  extents plus an index region per parameter; parameters and moments are
  updated through contiguous views with reusable scratch buffers — no
  boolean fancy-indexing, no per-step temporaries.
* :meth:`Optimizer.step_flat` — the full-width fast path: when every
  parameter is active and the network backs its parameters by one
  contiguous buffer (:attr:`SlimmableMLP.flat_parameters`), the whole
  update runs as a dozen whole-buffer ufunc calls instead of a dozen *per
  parameter*.

All three apply the exact same elementwise operations in the same order, so
a seeded run produces bit-identical parameters whichever path executed it.
Moment estimates are allocated as views into one flat buffer per moment, in
parameter order, which is what makes the flat path possible.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels import fused_adam

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
        # list into its flat buffer, so the flat and sliced steps keep
        # updating one state.
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

    def step(
        self,
        parameters: Sequence[np.ndarray],
        gradients: Sequence[np.ndarray],
        masks: Sequence[np.ndarray] | None = None,
    ) -> None:
        """Apply one in-place update to ``parameters``."""
        raise NotImplementedError

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

    def step_flat(
        self,
        parameters: Sequence[np.ndarray],
        flat_parameters: np.ndarray,
        flat_gradients: np.ndarray,
    ) -> None:
        """Full-width update over contiguous parameter/gradient buffers.

        Args:
            parameters: The individual parameter arrays (used only to size
                the moment store on the first step; they must be views into
                ``flat_parameters`` in order).
            flat_parameters: Contiguous buffer backing every parameter.
            flat_gradients: Gradient buffer with the same layout.  Consumed
                as scratch — its contents are garbage afterwards.
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


def _validate_step_args(
    parameters: Sequence[np.ndarray],
    gradients: Sequence[np.ndarray],
    masks: Sequence[np.ndarray] | None,
) -> None:
    if len(parameters) != len(gradients):
        raise ConfigurationError(
            f"got {len(parameters)} parameters but {len(gradients)} gradients"
        )
    if masks is not None and len(masks) != len(parameters):
        raise ConfigurationError(
            f"got {len(parameters)} parameters but {len(masks)} masks"
        )
    for index, (param, grad) in enumerate(zip(parameters, gradients)):
        if param.shape != grad.shape:
            raise ConfigurationError(
                f"parameter {index} shape {param.shape} != gradient shape {grad.shape}"
            )
        if masks is not None and masks[index].shape != param.shape:
            raise ConfigurationError(
                f"parameter {index} shape {param.shape} != mask shape {masks[index].shape}"
            )


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

    def step(
        self,
        parameters: Sequence[np.ndarray],
        gradients: Sequence[np.ndarray],
        masks: Sequence[np.ndarray] | None = None,
    ) -> None:
        _validate_step_args(parameters, gradients, masks)
        self._ensure_state(parameters)
        self.step_count += 1
        for index, (param, grad) in enumerate(zip(parameters, gradients)):
            mask = masks[index] if masks is not None else None
            velocity = self._velocity[index]
            if mask is None:
                velocity[...] = self.momentum * velocity + grad
                param -= self.learning_rate * velocity
            else:
                velocity[mask] = self.momentum * velocity[mask] + grad[mask]
                param[mask] -= self.learning_rate * velocity[mask]

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

    def step_flat(
        self,
        parameters: Sequence[np.ndarray],
        flat_parameters: np.ndarray,
        flat_gradients: np.ndarray,
    ) -> None:
        self._ensure_state(parameters)
        v = self._velocity_flat
        if v.size != flat_parameters.size:
            raise ConfigurationError(
                f"flat parameter buffer has {flat_parameters.size} entries, "
                f"optimizer state has {v.size}"
            )
        self.step_count += 1
        v *= self.momentum
        v += flat_gradients
        np.multiply(v, self.learning_rate, out=flat_gradients)
        flat_parameters -= flat_gradients

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
    """Adam optimizer (Kingma & Ba) with masked, sliced and flat updates.

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
        self._flat_scratch: np.ndarray | None = None
        self._sliced_scratch: dict[Tuple[int, ...], Tuple[np.ndarray, np.ndarray]] = {}

    def _ensure_state(self, parameters: Sequence[np.ndarray]) -> None:
        if self._first_moment is None:
            self._m_flat, self._first_moment = _flat_views(parameters)
            self._v_flat, self._second_moment = _flat_views(parameters)
            self._flat_scratch = np.zeros(self._m_flat.size)

    def _scratch_for(self, shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        scratch = self._sliced_scratch.get(shape)
        if scratch is None:
            scratch = (np.empty(shape), np.empty(shape))
            self._sliced_scratch[shape] = scratch
        return scratch

    def step(
        self,
        parameters: Sequence[np.ndarray],
        gradients: Sequence[np.ndarray],
        masks: Sequence[np.ndarray] | None = None,
    ) -> None:
        _validate_step_args(parameters, gradients, masks)
        self._ensure_state(parameters)
        assert self._second_moment is not None
        self.step_count += 1
        bias_correction1 = 1.0 - self.beta1**self.step_count
        bias_correction2 = 1.0 - self.beta2**self.step_count
        for index, (param, grad) in enumerate(zip(parameters, gradients)):
            mask = masks[index] if masks is not None else None
            m = self._first_moment[index]
            v = self._second_moment[index]
            if mask is None:
                m[...] = self.beta1 * m + (1.0 - self.beta1) * grad
                v[...] = self.beta2 * v + (1.0 - self.beta2) * grad**2
                m_hat = m / bias_correction1
                v_hat = v / bias_correction2
                param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
            else:
                m[mask] = self.beta1 * m[mask] + (1.0 - self.beta1) * grad[mask]
                v[mask] = self.beta2 * v[mask] + (1.0 - self.beta2) * grad[mask] ** 2
                m_hat = m[mask] / bias_correction1
                v_hat = v[mask] / bias_correction2
                param[mask] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

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
            # buffers; every operation mirrors the masked path elementwise
            # (same operand pairs, same order), so seeded runs stay
            # bit-identical while allocating nothing.
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

    def plan_step(
        self,
        parameters: Sequence[np.ndarray],
        gradients: Sequence[np.ndarray],
        regions: Sequence[Region],
    ):
        """Prepare a fused one-call step plan for these exact buffers.

        Returns an opaque plan for :meth:`step_planned`, or ``None`` when
        the fused kernel is unavailable or the buffers do not qualify
        (non-contiguous gradients, >2-D regions).  The plan captures raw
        pointers: every array must stay alive and in place — true for the
        flat-backed network parameters, the learner's gradient scratch and
        the optimizer's own moments.
        """
        kernel = fused_adam()
        if kernel is None:
            return None
        return self.plan_for(kernel, parameters, gradients, regions)

    def plan_for(self, kernel, parameters, gradients, regions):
        """:meth:`plan_step` on the given ``adam`` kernels."""
        if not all(g.flags.c_contiguous for g in gradients):
            return None
        self._ensure_state(parameters)
        assert self._second_moment is not None
        param_views = [p[r] for p, r in zip(parameters, regions)]
        m_views = [m[r] for m, r in zip(self._first_moment, regions)]
        v_views = [v[r] for v, r in zip(self._second_moment, regions)]
        for view in param_views:
            if view.ndim > 2 or view.strides[-1] != view.itemsize:
                return None
        return kernel.make_plan(param_views, list(gradients), m_views, v_views)

    def step_planned(self, plan) -> None:
        """Execute a plan from :meth:`plan_step`: one fused C call.

        Bitwise-identical to :meth:`step_sliced` on the same buffers
        (verified when the ``adam`` kernels resolve).
        """
        self.step_count += 1
        plan.step(
            self.learning_rate,
            self.beta1,
            self.beta2,
            self.epsilon,
            1.0 - self.beta1**self.step_count,
            1.0 - self.beta2**self.step_count,
        )

    def step_flat(
        self,
        parameters: Sequence[np.ndarray],
        flat_parameters: np.ndarray,
        flat_gradients: np.ndarray,
    ) -> None:
        self._ensure_state(parameters)
        m = self._m_flat
        v = self._v_flat
        s = self._flat_scratch
        if m.size != flat_parameters.size:
            raise ConfigurationError(
                f"flat parameter buffer has {flat_parameters.size} entries, "
                f"optimizer state has {m.size}"
            )
        self.step_count += 1
        bias_correction1 = 1.0 - self.beta1**self.step_count
        bias_correction2 = 1.0 - self.beta2**self.step_count
        m *= self.beta1
        np.multiply(flat_gradients, 1.0 - self.beta1, out=s)
        m += s
        v *= self.beta2
        np.multiply(flat_gradients, flat_gradients, out=flat_gradients)
        np.multiply(flat_gradients, 1.0 - self.beta2, out=flat_gradients)
        v += flat_gradients
        np.divide(m, bias_correction1, out=s)
        s *= self.learning_rate
        np.divide(v, bias_correction2, out=flat_gradients)
        np.sqrt(flat_gradients, out=flat_gradients)
        flat_gradients += self.epsilon
        s /= flat_gradients
        flat_parameters -= s

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
