"""Epsilon_t-greedy cool-down action selection (paper §4.3.5).

When either die temperature exceeds the throttling threshold, zTT always
replaces the agent's action with a random *lower* frequency pair.  That
keeps the device safe but prevents the agent from ever learning how to act
in hot states.  Lotus instead takes the random cooler action only with
probability epsilon_t, and decays epsilon_t sinusoidally each time the
cool-down fires, so the safety net is strong early in training and fades as
the agent accumulates experience with overheating situations.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.core.action import JointActionSpace
from repro.rl.schedule import SinusoidalDecaySchedule


class CooldownSelector:
    """Stateful epsilon_t-greedy cool-down selector.

    Args:
        initial_epsilon: Initial probability of forcing a cooler action when
            overheated (epsilon_t is "initialised between [0, 1]").
        decay_triggers: Number of cool-down triggers over which epsilon_t
            decays to ``final_epsilon``.
        final_epsilon: Residual probability after the decay completes.
        always: When ``True`` the selector reproduces zTT's behaviour — the
            cool-down action is always taken when overheated (used by the
            zTT baseline and the cool-down ablation).
    """

    def __init__(
        self,
        initial_epsilon: float = 0.9,
        decay_triggers: int = 60,
        final_epsilon: float = 0.05,
        always: bool = False,
    ):
        if not 0.0 <= initial_epsilon <= 1.0:
            raise ConfigurationError("initial_epsilon must lie in [0, 1]")
        self._schedule = SinusoidalDecaySchedule(
            initial=initial_epsilon,
            decay_triggers=decay_triggers,
            final=min(final_epsilon, initial_epsilon),
        )
        self.always = always
        self._trigger_count = 0

    # -- state ------------------------------------------------------------------------

    @property
    def trigger_count(self) -> int:
        """Number of times the cool-down action has been triggered."""
        return self._trigger_count

    @property
    def current_epsilon(self) -> float:
        """Current value of epsilon_t."""
        return self._schedule.value(self._trigger_count)

    def reset(self) -> None:
        """Reset the trigger counter (new episode / new training run)."""
        self._trigger_count = 0

    def state_dict(self) -> dict:
        """Snapshot of the selector's mutable state (the trigger count)."""
        return {"trigger_count": int(self._trigger_count)}

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        count = int(payload["trigger_count"])
        if count < 0:
            raise ConfigurationError("trigger_count must be non-negative")
        self._trigger_count = count

    # -- behaviour -----------------------------------------------------------------------

    def is_overheated(
        self, cpu_temperature_c: float, gpu_temperature_c: float, threshold_c: float
    ) -> bool:
        """Whether either die exceeds the threshold (elementwise on arrays)."""
        return (cpu_temperature_c > threshold_c) | (gpu_temperature_c > threshold_c)

    def maybe_cooldown_action(
        self,
        action_space: JointActionSpace,
        cpu_level: int,
        gpu_level: int,
        cpu_temperature_c: float,
        gpu_temperature_c: float,
        threshold_c: float,
        rng: np.random.Generator,
    ) -> int | None:
        """Return a forced cooler action index, or ``None`` to defer to the agent.

        When the device is overheated the cooler action is returned with
        probability epsilon_t (always, in zTT mode); every firing counts as
        a trigger and advances the sinusoidal decay.
        """
        if not self.is_overheated(cpu_temperature_c, gpu_temperature_c, threshold_c):
            return None
        if not self.always and rng.random() >= self.current_epsilon:
            return None
        action = action_space.random_cooler_action(cpu_level, gpu_level, rng)
        self._trigger_count += 1
        return action
