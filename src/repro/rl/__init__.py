"""Deep reinforcement learning substrate (NumPy implementation).

The Lotus agent is a small 4-layer MLP trained with DQN, which does not need
a deep-learning framework: this package provides a from-scratch NumPy
implementation of

* :mod:`repro.rl.network` — activation functions, losses and weight
  initialisation shared by the network classes.
* :mod:`repro.rl.slimmable` — :class:`SlimmableMLP`, an MLP whose hidden
  layers can execute at a reduced width (the paper's [0.75x, 1.0x] design),
  with gradients confined to the active slice.
* :mod:`repro.rl.optimizer` — Adam and SGD, each updating only the active
  region of every parameter.
* :mod:`repro.rl.schedule` — learning-rate and exploration schedules
  (cosine decay, linear/exponential epsilon decay, the sinusoidal
  epsilon_t decay of the cool-down mechanism).
* :mod:`repro.rl.replay` — experience replay buffers (preallocated ring
  storage with column-batch sampling).
* :mod:`repro.rl.dqn` — a generic DQN learner (online + target network,
  epsilon-greedy action selection, Huber TD loss) that both the Lotus agent
  and the zTT baseline build on.  It has two update paths with the same
  bits: the NumPy one (also the ``REPRO_FUSED=0`` reference) and the fused
  ``dqn`` kernels of :mod:`repro.kernels`.
* :mod:`repro.rl.fused` — the two kernel entry points the benchmark scripts
  import; not exported.
"""

from repro.rl.dqn import DqnConfig, DqnLearner
from repro.rl.network import he_init, huber_loss_and_grad, relu, relu_grad
from repro.rl.optimizer import Adam, Sgd
from repro.rl.replay import ReplayBuffer, Transition, TransitionBatch
from repro.rl.schedule import (
    ConstantSchedule,
    CosineDecaySchedule,
    ExponentialDecaySchedule,
    LinearDecaySchedule,
    SinusoidalDecaySchedule,
)
from repro.rl.slimmable import SlimmableMLP

__all__ = [
    "Adam",
    "ConstantSchedule",
    "CosineDecaySchedule",
    "DqnConfig",
    "DqnLearner",
    "ExponentialDecaySchedule",
    "LinearDecaySchedule",
    "ReplayBuffer",
    "Sgd",
    "SinusoidalDecaySchedule",
    "SlimmableMLP",
    "Transition",
    "TransitionBatch",
    "he_init",
    "huber_loss_and_grad",
    "relu",
    "relu_grad",
]
