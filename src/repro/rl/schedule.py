"""Learning-rate and exploration schedules.

Three schedule shapes are used in the reproduction:

* cosine decay — the learning-rate schedule of the Lotus Q-network training;
* linear decay — the epsilon-greedy exploration schedule;
* sinusoidal decay — the epsilon_t of the cool-down action selection, which
  decays "sinusoidally as the agent accumulates more experience in handling
  the overheating case" (paper §4.3.5).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import ConfigurationError


class Schedule(ABC):
    """Maps a non-negative step counter to a scalar value."""

    @abstractmethod
    def value(self, step: int) -> float:
        """Value of the schedule at ``step``."""

    def __call__(self, step: int) -> float:
        return self.value(step)


def _check_step(step: int) -> None:
    if step < 0:
        raise ConfigurationError("schedule step must be non-negative")


@dataclass(frozen=True)
class LinearDecaySchedule(Schedule):
    """Linear decay from ``initial`` to ``final`` over ``decay_steps``."""

    initial: float
    final: float
    decay_steps: int

    def __post_init__(self) -> None:
        if self.decay_steps <= 0:
            raise ConfigurationError("decay_steps must be positive")

    def value(self, step: int) -> float:
        _check_step(step)
        fraction = min(1.0, step / self.decay_steps)
        return self.initial + fraction * (self.final - self.initial)


@dataclass(frozen=True)
class CosineDecaySchedule(Schedule):
    """Cosine decay from ``initial`` to ``final`` over ``decay_steps``.

    This is the learning-rate schedule used for Lotus training (lr 0.01 with
    cosine decay over the training iterations).
    """

    initial: float
    decay_steps: int
    final: float = 0.0

    def __post_init__(self) -> None:
        if self.decay_steps <= 0:
            raise ConfigurationError("decay_steps must be positive")
        if self.final > self.initial:
            raise ConfigurationError("final value must not exceed the initial value")

    def value(self, step: int) -> float:
        _check_step(step)
        fraction = min(1.0, step / self.decay_steps)
        cosine = 0.5 * (1.0 + math.cos(math.pi * fraction))
        return self.final + (self.initial - self.final) * cosine


@dataclass(frozen=True)
class SinusoidalDecaySchedule(Schedule):
    """Sinusoidal decay used by the epsilon_t-greedy cool-down selection.

    The value follows the first half-period of a cosine, decaying from
    ``initial`` to ``final`` as the trigger count grows to ``decay_triggers``
    and staying at ``final`` afterwards.  Unlike the exploration epsilon the
    step counter here is the number of times the cool-down action has been
    *triggered*, so the agent only relinquishes the safety net as it actually
    accumulates overheating experience.
    """

    initial: float
    decay_triggers: int
    final: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.initial <= 1.0:
            raise ConfigurationError("initial value must lie in [0, 1]")
        if not 0.0 <= self.final <= self.initial:
            raise ConfigurationError("final must lie in [0, initial]")
        if self.decay_triggers <= 0:
            raise ConfigurationError("decay_triggers must be positive")

    def value(self, step: int) -> float:
        _check_step(step)
        fraction = min(1.0, step / self.decay_triggers)
        cosine = 0.5 * (1.0 + math.cos(math.pi * fraction))
        return self.final + (self.initial - self.final) * cosine
