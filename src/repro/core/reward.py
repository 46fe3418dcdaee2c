"""Reward design (paper §4.3.3).

The per-step reward is ``r = r_time + lambda * r_temp`` with

* ``r_time = tanh(dL) + 1 / (1 + sigma_n(dL))`` when the latency slack
  ``dL = L - l`` is positive — the tanh term rewards fast inference and the
  ``1 / (1 + sigma_n)`` term rewards a *small latency variation* over the n
  most recent frames (the ingredient missing from zTT's reward).  Because the
  slack is normalised by the constraint, ``sigma_n`` is multiplied by a
  configurable scale so the variation term spans a useful range;
* ``r_time = p * dL`` when the constraint is violated (``dL < 0``), i.e. a
  penalty proportional to the violation;
* ``r_temp = +1`` while both dies stay below the throttling threshold and
  ``-p`` otherwise.

All latency quantities are normalised by the constraint ``L`` so the reward
scale is device- and dataset-independent.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RewardConfig:
    """Hyper-parameters of the Lotus reward.

    Attributes:
        temperature_weight: The lambda weighting of the temperature reward.
        penalty: The penalty multiplier ``p`` applied to constraint
            violations and over-temperature steps.
        variation_window: ``n``, the number of recent frames over which the
            latency standard deviation is computed.
        variation_scale: Multiplier applied to the normalised latency
            standard deviation inside ``1 / (1 + scale * sigma_n)``.  The
            slack is expressed as a fraction of the constraint, so typical
            standard deviations are a few hundredths; the scale stretches
            them so the variation term actually differentiates stable from
            erratic behaviour.
        tanh_scale: Slope applied inside the tanh so that typical normalised
            slacks (a few tenths) land on the responsive part of the curve.
        stage1_budget_fraction: Fraction of the latency budget attributed to
            stage 1 when computing the first decision's reward.  The paper's
            profiling found stage 1 to account for ≈80 % of the latency, so
            the first action is judged against 80 % of the constraint.
        temperature_soft_margin_c: Width of the graded zone just below the
            threshold.  Eq. 3 of the paper is a hard step (+1 below the
            threshold, -p above); with the simulator's coarse two-decisions-
            per-frame granularity a thin graded zone makes the thermal cost
            of approaching the threshold visible to one-step credit
            assignment.  Set to 0 to recover the exact Eq. 3 behaviour.
    """

    temperature_weight: float = 0.5
    penalty: float = 2.0
    variation_window: int = 10
    variation_scale: float = 6.0
    tanh_scale: float = 2.0
    stage1_budget_fraction: float = 0.8
    temperature_soft_margin_c: float = 4.0

    def __post_init__(self) -> None:
        if self.temperature_weight < 0:
            raise ConfigurationError("temperature_weight must be non-negative")
        if self.penalty <= 0:
            raise ConfigurationError("penalty must be positive")
        if self.variation_window <= 1:
            raise ConfigurationError("variation_window must be at least 2")
        if self.variation_scale < 0:
            raise ConfigurationError("variation_scale must be non-negative")
        if self.tanh_scale <= 0:
            raise ConfigurationError("tanh_scale must be positive")
        if not 0.0 < self.stage1_budget_fraction <= 1.0:
            raise ConfigurationError("stage1_budget_fraction must lie in (0, 1]")
        if self.temperature_soft_margin_c < 0:
            raise ConfigurationError("temperature_soft_margin_c must be non-negative")


@dataclass(frozen=True)
class RewardBreakdown:
    """A reward value together with its components (for logging / tests)."""

    total: float
    time_component: float
    temperature_component: float
    latency_std: float


class RewardCalculator:
    """Stateful reward computation with the rolling latency-variation window."""

    def __init__(self, config: RewardConfig | None = None):
        self.config = config if config is not None else RewardConfig()
        self._recent_slacks: Deque[float] = deque(maxlen=self.config.variation_window)

    def reset(self) -> None:
        """Clear the latency-variation window (start of a new episode)."""
        self._recent_slacks.clear()

    def state_dict(self) -> dict:
        """Snapshot of the rolling variation window (the only mutable state)."""
        return {"recent_slacks": [float(v) for v in self._recent_slacks]}

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        slacks = payload["recent_slacks"]
        if len(slacks) > self.config.variation_window:
            raise ConfigurationError(
                f"snapshot holds {len(slacks)} slacks but the variation "
                f"window is {self.config.variation_window}"
            )
        self._recent_slacks.clear()
        self._recent_slacks.extend(float(v) for v in slacks)

    # -- component rewards ---------------------------------------------------------

    def observe_slack(self, slack_fraction: float) -> None:
        """Record a frame's normalised latency slack for the variation term."""
        self._recent_slacks.append(float(slack_fraction))

    def latency_variation(self) -> float:
        """Standard deviation of the recorded normalised slacks."""
        if len(self._recent_slacks) < 2:
            return 0.0
        return float(np.std(np.array(self._recent_slacks)))

    def time_reward(self, slack_fraction: float) -> float:
        """The ``r_time`` component for a normalised slack ``dL / L``."""
        return self._time_reward(slack_fraction, self.latency_variation())

    def _time_reward(self, slack_fraction: float, variation: float) -> float:
        """``r_time`` given the window's :meth:`latency_variation`."""
        config = self.config
        if slack_fraction > 0:
            variation = config.variation_scale * variation
            return math.tanh(config.tanh_scale * slack_fraction) + 1.0 / (1.0 + variation)
        return config.penalty * slack_fraction

    def temperature_reward(
        self, cpu_temperature_c: float, gpu_temperature_c: float, threshold_c: float
    ) -> float:
        """The ``r_temp`` component.

        +1 while both dies are comfortably below the threshold, ``-p`` once
        either exceeds it, with an optional thin graded zone just below the
        threshold (see :attr:`RewardConfig.temperature_soft_margin_c`).
        """
        hottest = max(cpu_temperature_c, gpu_temperature_c)
        if hottest > threshold_c:
            return -self.config.penalty
        margin = self.config.temperature_soft_margin_c
        if margin <= 0 or hottest <= threshold_c - margin:
            return 1.0
        # Linear descent from +1 at (threshold - margin) to 0 at the threshold.
        return (threshold_c - hottest) / margin

    # -- combined rewards -----------------------------------------------------------------

    def frame_reward(
        self,
        latency_ms: float,
        constraint_ms: float,
        cpu_temperature_c: float,
        gpu_temperature_c: float,
        threshold_c: float,
    ) -> RewardBreakdown:
        """Reward for a completed frame (used for the second decision).

        The frame's normalised slack is also recorded into the variation
        window, so callers should invoke this exactly once per frame.
        """
        if constraint_ms <= 0:
            raise ConfigurationError("constraint must be positive")
        slack_fraction = (constraint_ms - latency_ms) / constraint_ms
        breakdown = self._breakdown(
            slack_fraction,
            self.temperature_reward(cpu_temperature_c, gpu_temperature_c, threshold_c),
        )
        self.observe_slack(slack_fraction)
        return breakdown

    def stage1_reward(
        self,
        stage1_latency_ms: float,
        constraint_ms: float,
        cpu_temperature_c: float,
        gpu_temperature_c: float,
        threshold_c: float,
    ) -> RewardBreakdown:
        """Reward for the first decision of a frame.

        The first action only controls stage 1, so it is judged against the
        share of the latency budget that stage 1 is expected to use
        (``stage1_budget_fraction``, ≈80 % per the paper's profiling): if
        stage 1 already consumed more than that share, the first decision
        was too slow regardless of what happens in stage 2.
        """
        if constraint_ms <= 0:
            raise ConfigurationError("constraint must be positive")
        stage1_budget = self.config.stage1_budget_fraction * constraint_ms
        slack_fraction = (stage1_budget - stage1_latency_ms) / stage1_budget
        return self._breakdown(
            slack_fraction,
            self.temperature_reward(cpu_temperature_c, gpu_temperature_c, threshold_c),
        )

    def _breakdown(self, slack_fraction: float, temperature_component: float) -> RewardBreakdown:
        # One standard deviation of the window serves both the reward and
        # the breakdown.
        variation = self.latency_variation()
        time_component = self._time_reward(slack_fraction, variation)
        total = time_component + self.config.temperature_weight * temperature_component
        return RewardBreakdown(
            total=total,
            time_component=time_component,
            temperature_component=temperature_component,
            latency_std=variation,
        )
