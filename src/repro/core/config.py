"""Lotus hyper-parameter configuration.

Everything tunable about the Lotus agent lives in one frozen dataclass so
that experiments, ablations and examples can describe themselves completely
by the configuration they pass in.  Defaults follow the paper's §4.4.1
(4-layer MLP at widths [0.75x, 1x], Adam with beta1=0.9 / beta2=0.99,
learning rate 0.01 under cosine decay) with the remaining standard DQN
settings chosen for stable online learning within a few thousand frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.core.reward import RewardConfig


@dataclass(frozen=True)
class LotusConfig:
    """Hyper-parameters of the Lotus agent.

    Attributes:
        hidden_dims: Hidden-layer sizes of the Q-network (three hidden layers
            plus the output layer give the paper's 4-layer MLP).
        reduced_width: The alpha width used for the first per-frame decision.
        discount: DQN discount factor.
        learning_rate: Initial Adam learning rate.
        lr_decay_steps: Cosine-decay horizon (in training steps) for the
            learning rate.
        adam_beta1 / adam_beta2: Adam moment coefficients.
        batch_size: Replay mini-batch size.
        replay_capacity: Capacity of *each* of the two replay buffers.
        learning_starts: Minimum number of transitions in a buffer before
            training on it begins.
        train_interval: Train every this many decisions (1 = every decision).
        target_sync_interval: Training steps between target-network syncs.
        epsilon_start / epsilon_end: Exploration epsilon range.
        epsilon_decay_steps: Decisions over which epsilon anneals linearly.
        cooldown_epsilon: Initial epsilon_t of the cool-down selector.
        cooldown_decay_triggers: Cool-down firings over which epsilon_t
            decays sinusoidally.
        cooldown_epsilon_final: Residual epsilon_t after the decay.
        always_cooldown: Use zTT-style unconditional cool-down (ablation).
        single_decision: Disable the second per-frame decision (ablation —
            makes Lotus act like a frame-level controller).
        shared_buffer: Use a single replay buffer for both decision points
            (ablation of the dual-buffer design).
        reward: Reward hyper-parameters.
        temperature_threshold_c: Overrides the device trip point used in the
            reward and cool-down logic; ``None`` uses the environment's
            threshold.
        seed: Seed for the agent's own random generator.
    """

    hidden_dims: tuple[int, ...] = (64, 64, 64)
    reduced_width: float = 0.75
    discount: float = 0.5
    learning_rate: float = 0.005
    lr_decay_steps: int = 10_000
    adam_beta1: float = 0.9
    adam_beta2: float = 0.99
    batch_size: int = 64
    replay_capacity: int = 4_096
    learning_starts: int = 64
    train_interval: int = 1
    target_sync_interval: int = 100
    epsilon_start: float = 1.0
    # Lotus makes two decisions per frame, so the per-decision exploration
    # floor is half of zTT's per-frame floor to keep the per-frame amount of
    # residual exploration comparable between the two learning agents.
    epsilon_end: float = 0.005
    epsilon_decay_steps: int = 1_200
    cooldown_epsilon: float = 0.9
    cooldown_decay_triggers: int = 400
    cooldown_epsilon_final: float = 0.15
    always_cooldown: bool = False
    single_decision: bool = False
    shared_buffer: bool = False
    reward: RewardConfig = field(default_factory=RewardConfig)
    temperature_threshold_c: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.hidden_dims:
            raise ConfigurationError("hidden_dims must not be empty")
        if not 0.0 < self.reduced_width <= 1.0:
            raise ConfigurationError("reduced_width must lie in (0, 1]")
        if not 0.0 <= self.discount < 1.0:
            raise ConfigurationError("discount must lie in [0, 1)")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.lr_decay_steps <= 0:
            raise ConfigurationError("lr_decay_steps must be positive")
        if self.batch_size <= 0 or self.replay_capacity < self.batch_size:
            raise ConfigurationError("replay_capacity must be at least batch_size")
        if self.learning_starts < self.batch_size:
            raise ConfigurationError("learning_starts must be at least batch_size")
        if self.train_interval <= 0:
            raise ConfigurationError("train_interval must be positive")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ConfigurationError("require 0 <= epsilon_end <= epsilon_start <= 1")
        if self.epsilon_decay_steps <= 0:
            raise ConfigurationError("epsilon_decay_steps must be positive")

    @property
    def widths(self) -> tuple[float, ...]:
        """The width multipliers the Q-network is built with."""
        if self.reduced_width >= 1.0:
            return (1.0,)
        return (self.reduced_width, 1.0)

    def for_episode_length(self, num_frames: int) -> "LotusConfig":
        """Return a copy with exploration and decay horizons scaled to an episode.

        The paper's figures show the agent learning online over the episode
        itself; annealing exploration over roughly the first 40 % of the
        episode (two decisions per frame) keeps that behaviour consistent
        across the different episode lengths used by the quick benchmarks
        and the full paper-scale runs.
        """
        if num_frames <= 0:
            raise ConfigurationError("num_frames must be positive")
        decisions = num_frames * (1 if self.single_decision else 2)
        epsilon_decay = max(50, int(0.4 * decisions))
        lr_decay = max(200, decisions)
        return replace(
            self, lr_decay_steps=lr_decay, epsilon_decay_steps=epsilon_decay
        )
