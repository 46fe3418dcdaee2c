"""Deep reinforcement learning substrate (NumPy implementation).

The Lotus agent is a small 4-layer MLP trained with double DQN, which does
not need a deep-learning framework: this package provides a from-scratch
NumPy implementation of exactly the learner the agents run:

* :mod:`repro.rl.network` — He weight initialisation and the Huber loss.
* :mod:`repro.rl.slimmable` — :class:`SlimmableMLP`, an MLP whose hidden
  layers can execute at a reduced width (the paper's [0.75x, 1.0x] design),
  with gradients confined to the active slice.
* :mod:`repro.rl.optimizer` — Adam, updating only the active region of
  every parameter.
* :mod:`repro.rl.schedule` — learning-rate and exploration schedules
  (cosine decay, linear epsilon decay, the sinusoidal epsilon_t decay of
  the cool-down mechanism).
* :mod:`repro.rl.replay` — the experience replay ring and the column
  batches it samples.
* :mod:`repro.rl.dqn` — the double-DQN learner (online + target network,
  epsilon-greedy action selection, Huber TD loss) that both the Lotus agent
  and the zTT baseline build on.  It has two update paths with the same
  bits: the NumPy one (also the ``REPRO_FUSED=0`` reference) and the fused
  ``dqn`` kernels of :mod:`repro.kernels`.
* :mod:`repro.rl.fused` — the two kernel entry points the benchmark scripts
  import; not exported.
"""

from repro.rl.dqn import DqnConfig, DqnLearner
from repro.rl.network import he_init, huber_loss_and_grad
from repro.rl.optimizer import Adam
from repro.rl.replay import ReplayBuffer, TransitionBatch
from repro.rl.schedule import (
    CosineDecaySchedule,
    LinearDecaySchedule,
    SinusoidalDecaySchedule,
)
from repro.rl.slimmable import SlimmableMLP

__all__ = [
    "Adam",
    "CosineDecaySchedule",
    "DqnConfig",
    "DqnLearner",
    "LinearDecaySchedule",
    "ReplayBuffer",
    "SinusoidalDecaySchedule",
    "SlimmableMLP",
    "TransitionBatch",
    "he_init",
    "huber_loss_and_grad",
]
