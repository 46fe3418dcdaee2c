"""Neural-network primitives shared by the Q-network implementations.

Plain NumPy building blocks: He weight initialisation and the Huber loss
used by DQN (the reference the learner's in-place Huber step reproduces).
Kept free of any class structure so they are trivially testable (including
finite-difference gradient checks).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def he_init(
    fan_in: int, fan_out: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """He-normal weight initialisation for a dense layer.

    Returns:
        ``(weights, biases)`` with weights of shape ``(fan_in, fan_out)`` and
        zero biases of shape ``(fan_out,)``.
    """
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError("fan_in and fan_out must be positive")
    scale = np.sqrt(2.0 / fan_in)
    weights = rng.normal(0.0, scale, size=(fan_in, fan_out))
    biases = np.zeros(fan_out)
    return weights, biases


def huber_loss_and_grad(
    predictions: np.ndarray, targets: np.ndarray, delta: float = 1.0
) -> Tuple[float, np.ndarray]:
    """Huber (smooth-L1) loss and its gradient with respect to predictions.

    The Huber loss behaves quadratically for small errors and linearly for
    large ones, which keeps DQN updates stable when TD errors spike (e.g.
    right after a thermal-throttling latency excursion).

    Args:
        predictions: Predicted Q-values, any shape.
        targets: TD targets, same shape as ``predictions``.
        delta: Transition point between the quadratic and linear regimes.

    Returns:
        ``(loss, grad)`` where ``loss`` is the mean Huber loss and ``grad``
        has the same shape as ``predictions``.
    """
    if predictions.shape != targets.shape:
        raise ValueError(
            f"shape mismatch: predictions {predictions.shape} vs targets {targets.shape}"
        )
    if delta <= 0:
        raise ValueError("delta must be positive")
    error = predictions - targets
    abs_error = np.abs(error)
    quadratic = np.minimum(abs_error, delta)
    linear = abs_error - quadratic
    losses = 0.5 * quadratic**2 + delta * linear
    count = max(predictions.size, 1)
    grad = np.clip(error, -delta, delta) / count
    return float(np.mean(losses)), grad
