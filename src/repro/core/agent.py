"""The Lotus DRL agent.

One slimmable Q-network provides two frequency-scaling decisions per image
frame (paper §4.3.4):

* at the **start of the frame** the state has no proposal count, and the
  Q-values are computed with only the first ``alpha x`` channels of every
  hidden layer;
* **after the RPN** the proposal count is appended to the state and the
  Q-values use the full network width.

Transitions from the two decision points are stored in two separate replay
buffers; batches sampled from the first buffer update only the reduced-width
slice of the network, batches from the second buffer update the full
network.  Exploration is epsilon-greedy, overridden by the epsilon_t-greedy
cool-down selection whenever the device is overheated.

:class:`LotusAgentCore` writes that design once, over per-session rows.
:class:`LotusAgent` drives one session through the generic
:class:`~repro.env.policy.Policy` interface, so the same episode runner that
drives the default governors and zTT drives Lotus; the fleet-trained
:class:`~repro.core.fleet.FleetLotusAgent` drives N sessions with the same
core.  Each keeps only its own order of action selection and its training
cadence.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import AgentError
from repro.core.action import JointActionSpace
from repro.core.config import LotusConfig
from repro.core.cooldown import CooldownSelector
from repro.core.reward import RewardCalculator
from repro.core.state import StateEncoder
from repro.env.environment import FrameStartObservation, MidFrameObservation
from repro.env.policy import FrequencyDecision, Policy
from repro.env.trace import FrameRecord
from repro.rl.dqn import DqnConfig, DqnLearner
from repro.rl.optimizer import Adam
from repro.rl.replay import ReplayBuffer
from repro.rl.schedule import CosineDecaySchedule, LinearDecaySchedule
from repro.rl.slimmable import SlimmableMLP

#: Keys and dtypes of the (states, actions, rewards) rows of an in-flight
#: transition.
_PENDING_KEYS = ("states", "actions", "rewards")
_ROW_DTYPES = (float, np.int64, float)


class LotusAgentCore:
    """Lotus's network, learning and credit assignment over N session rows.

    A block of rows is a sequence over the sessions: states are the encoded
    state vectors, actions the joint action indices, rewards the frame
    rewards.  Subclasses feed the core their observations' rows and supply
    the action selection (:meth:`_select`) and the training cadence
    (:meth:`_train_due`) of their regime.

    Args:
        cpu_levels / gpu_levels: Frequency-table sizes of the target device.
        temperature_threshold_c: Throttling temperature used for state
            normalisation, the reward and the cool-down trigger.
        proposal_scale: Proposal count that normalises to 1.0 in the state
            (typically the detector's post-NMS cap).
        num_sessions: Number of sessions N the agent decides for.
        config: Hyper-parameters; defaults to :class:`LotusConfig`.
        rng: Random generator (exploration, replay sampling, cool-down).
    """

    def __init__(
        self,
        cpu_levels: int,
        gpu_levels: int,
        temperature_threshold_c: float,
        proposal_scale: float,
        num_sessions: int,
        config: LotusConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.config = config if config is not None else LotusConfig()
        self.rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        self.num_sessions = num_sessions
        self.action_space = JointActionSpace(cpu_levels, gpu_levels)
        self.temperature_threshold_c = (
            self.config.temperature_threshold_c
            if self.config.temperature_threshold_c is not None
            else temperature_threshold_c
        )
        self.encoder = StateEncoder(
            cpu_levels=cpu_levels,
            gpu_levels=gpu_levels,
            temperature_scale_c=self.temperature_threshold_c,
            proposal_scale=proposal_scale,
        )
        widths = (1.0,) if self.config.single_decision else self.config.widths
        self._start_width = widths[0]
        self.network = SlimmableMLP(
            input_dim=self.encoder.dimension,
            hidden_dims=self.config.hidden_dims,
            output_dim=self.action_space.size,
            widths=widths,
            rng=self.rng,
        )
        self.learner = DqnLearner(
            network=self.network,
            config=DqnConfig(
                discount=self.config.discount,
                batch_size=self.config.batch_size,
                target_sync_interval=self.config.target_sync_interval,
            ),
            optimizer=Adam(
                learning_rate=self.config.learning_rate,
                beta1=self.config.adam_beta1,
                beta2=self.config.adam_beta2,
            ),
            learning_rate_schedule=CosineDecaySchedule(
                initial=self.config.learning_rate,
                decay_steps=self.config.lr_decay_steps,
                final=self.config.learning_rate * 0.01,
            ),
        )
        self._epsilon_schedule = LinearDecaySchedule(
            initial=self.config.epsilon_start,
            final=self.config.epsilon_end,
            decay_steps=self.config.epsilon_decay_steps,
        )
        self.cooldown = CooldownSelector(
            initial_epsilon=self.config.cooldown_epsilon,
            decay_triggers=self.config.cooldown_decay_triggers,
            final_epsilon=self.config.cooldown_epsilon_final,
            always=self.config.always_cooldown,
        )
        self.reward_calculators = [
            RewardCalculator(self.config.reward) for _ in range(num_sessions)
        ]

        self.start_buffer = ReplayBuffer(self.config.replay_capacity)
        self.mid_buffer = (
            self.start_buffer
            if self.config.shared_buffer
            else ReplayBuffer(self.config.replay_capacity)
        )

        self.training = True
        self._decision_count = 0
        self._decision_points = 0
        self._loss_history: List[float] = []
        self._reward_history: List[float] = []
        self.reset()

    # -- public knobs -------------------------------------------------------------------

    def set_training(self, training: bool) -> None:
        """Enable/disable exploration and learning (evaluation mode)."""
        self.training = training

    @property
    def epsilon(self) -> float:
        """Current exploration epsilon (0 in evaluation mode).

        The schedule is indexed by *per-session* decisions so that a fleet
        of any size anneals over the same number of frames as one session.
        """
        if not self.training:
            return 0.0
        return self._epsilon_schedule.value(self._decision_count // self.num_sessions)

    @property
    def loss_history(self) -> List[float]:
        """TD losses of every training step performed so far."""
        return list(self._loss_history)

    @property
    def reward_history(self) -> List[float]:
        """Per-frame reward (the mean across the sessions) observed so far."""
        return list(self._reward_history)

    def reset(self) -> None:
        """Reset per-episode bookkeeping (keeps learned weights and replay)."""
        for calculator in self.reward_calculators:
            calculator.reset()
        # (states, actions) of this frame's decisions, and the previous
        # frame's (states, actions, rewards) awaiting the next start state.
        self._start: tuple | None = None
        self._mid: tuple | None = None
        self._pending: tuple | None = None

    # -- checkpointing -------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Complete snapshot of the agent's training state.

        Everything a decision or training step reads or mutates is captured
        — network and target parameters, optimizer moments, both replay
        rings, the exploration/cool-down counters, one reward window per
        session, the RNG state and the in-flight per-session rows — so that
        save → load → continue is bit-identical to an uninterrupted run,
        even mid-episode (the pending cross-frame transition survives).
        """

        def rows(block, field: int):
            return None if block is None else np.array(block[field], _ROW_DTYPES[field])

        pending = None
        if self._pending is not None:
            pending = {key: rows(self._pending, f) for f, key in enumerate(_PENDING_KEYS)}
        return {
            "num_sessions": int(self.num_sessions),
            "training": bool(self.training),
            "decision_count": int(self._decision_count),
            "decision_points": int(self._decision_points),
            "loss_history": [float(v) for v in self._loss_history],
            "reward_history": [float(v) for v in self._reward_history],
            "rng": self.rng.bit_generator.state,
            "cooldown": self.cooldown.state_dict(),
            "reward_calculators": [
                calculator.state_dict() for calculator in self.reward_calculators
            ],
            "learner": self.learner.state_dict(),
            "start_buffer": self.start_buffer.state_dict(),
            "mid_buffer": (
                None
                if self.mid_buffer is self.start_buffer
                else self.mid_buffer.state_dict()
            ),
            "start_states": rows(self._start, 0),
            "start_actions": rows(self._start, 1),
            "mid_states": rows(self._mid, 0),
            "mid_actions": rows(self._mid, 1),
            "pending": pending,
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this agent in place.

        The agent must have been constructed with the same configuration,
        geometry and session count as the one that produced the snapshot
        (the checkpoint layer guarantees this by rebuilding from the stored
        config and geometry).
        """
        if int(payload["num_sessions"]) != self.num_sessions:
            raise AgentError(
                f"snapshot was captured from a {payload['num_sessions']}-session "
                f"fleet but this agent drives {self.num_sessions} sessions"
            )
        shared = payload["mid_buffer"] is None
        if shared != (self.mid_buffer is self.start_buffer):
            raise AgentError(
                "snapshot and agent disagree on the shared-buffer ablation"
            )
        calculators = payload["reward_calculators"]
        if len(calculators) != len(self.reward_calculators):
            raise AgentError(
                f"snapshot carries {len(calculators)} reward calculators for "
                f"{len(self.reward_calculators)} sessions"
            )
        self.learner.load_state_dict(payload["learner"])
        self.start_buffer.load_state_dict(payload["start_buffer"])
        if not shared:
            self.mid_buffer.load_state_dict(payload["mid_buffer"])
        self.cooldown.load_state_dict(payload["cooldown"])
        for calculator, snapshot in zip(self.reward_calculators, calculators):
            calculator.load_state_dict(snapshot)
        self.rng.bit_generator.state = payload["rng"]
        self.training = bool(payload["training"])
        self._decision_count = int(payload["decision_count"])
        self._decision_points = int(payload["decision_points"])
        self._loss_history = [float(v) for v in payload["loss_history"]]
        self._reward_history = [float(v) for v in payload["reward_history"]]

        def block(*values) -> tuple | None:
            if values[0] is None:
                return None
            return tuple(np.asarray(v, dtype=dtype) for v, dtype in zip(values, _ROW_DTYPES))

        self._start = block(payload["start_states"], payload["start_actions"])
        self._mid = block(payload["mid_states"], payload["mid_actions"])
        pending = payload["pending"]
        self._pending = None if pending is None else block(*(pending[k] for k in _PENDING_KEYS))

    # -- regime hooks ----------------------------------------------------------------

    def _select(self, states: Sequence, width: float, observation) -> Sequence:
        """Actions for the rows ``states`` (the regime's selection order)."""
        raise NotImplementedError

    def _train_due(self) -> bool:
        """Whether a warmed-up buffer trains at this decision point."""
        raise NotImplementedError

    # -- credit assignment ----------------------------------------------------------------

    @staticmethod
    def _store(
        buffer: ReplayBuffer,
        states: Sequence,
        actions: Sequence,
        rewards: Sequence,
        next_states: Sequence,
        next_width: float,
    ) -> None:
        for state, action, reward, next_state in zip(states, actions, rewards, next_states):
            buffer.append(
                state=state,
                action=int(action),
                reward=float(reward),
                next_state=next_state,
                next_width=next_width,
            )

    def _maybe_train(self, buffer: ReplayBuffer, width: float) -> None:
        if not self.training:
            return
        if len(buffer) < max(self.config.learning_starts, self.config.batch_size):
            return
        if not self._train_due():
            return
        batch = buffer.sample(self.config.batch_size, self.rng)
        loss = self.learner.train_batch(batch, width=width)
        self._loss_history.append(loss)

    def _decide_start(self, states: Sequence, observation) -> Sequence:
        """The start-of-frame decision on the rows ``states``."""
        # Complete the transition whose next state is this frame's start state:
        # <s_{2i+1}, a_{2i+1}, r_{2i+1}, s_{2i+2}> in the two-decision setting,
        # or the whole-frame transition in the single-decision ablation.
        if self._pending is not None and self.training:
            # In the single-decision ablation there is only one kind of
            # transition, stored in (and trained from) the start buffer.
            buffer = self.start_buffer if self.config.single_decision else self.mid_buffer
            self._store(buffer, *self._pending, states, self._start_width)
        self._pending = None
        self._maybe_train(self.start_buffer, self._start_width)
        actions = self._select(states, self._start_width, observation)
        self._start = (states, actions)
        return actions

    def _decide_mid(self, states: Sequence, observation) -> Sequence:
        """The post-RPN decision on the rows ``states``."""
        if self._start is None:
            raise AgentError("mid_frame called before begin_frame")
        self._maybe_train(self.mid_buffer, 1.0)
        actions = self._select(states, 1.0, observation)
        self._mid = (states, actions)
        return actions

    def _credit_frame(self, *frame: Sequence[float]) -> None:
        """Reward each session's frame and credit it to the frame's decisions.

        ``frame`` is the (latency, constraint, CPU temperature, GPU
        temperature) sequences over the sessions.
        """
        threshold_c = self.temperature_threshold_c
        rewards = [
            calculator.frame_reward(
                float(latency), float(constraint), float(cpu), float(gpu), threshold_c
            ).total
            for calculator, latency, constraint, cpu, gpu in zip(
                self.reward_calculators, *frame
            )
        ]
        self._reward_history.append(
            rewards[0] if len(rewards) == 1 else float(np.mean(rewards))
        )
        if self.config.single_decision:
            if self._start is not None:
                self._pending = (*self._start, rewards)
        else:
            # Both per-frame decisions are credited with the frame reward
            # (the paper's dL_i is defined per image): the first transition
            # <s_2i, a_2i, r_i, s_{2i+1}> can be stored now, the second one
            # needs the next frame's start state and is therefore deferred.
            if self.training and self._start is not None and self._mid is not None:
                self._store(self.start_buffer, *self._start, rewards, self._mid[0], 1.0)
            if self._mid is not None:
                self._pending = (*self._mid, rewards)
        self._start = None
        self._mid = None


class LotusAgent(LotusAgentCore, Policy):
    """Online thermal and latency variation management agent (one session).

    Takes the arguments of :class:`LotusAgentCore` except ``num_sessions``.
    """

    name = "lotus"

    def __init__(
        self,
        cpu_levels: int,
        gpu_levels: int,
        temperature_threshold_c: float,
        proposal_scale: float,
        config: LotusConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(
            cpu_levels, gpu_levels, temperature_threshold_c, proposal_scale, 1, config, rng
        )

    # -- checkpointing: the ``lotus`` layout is session 0's row under singular keys --

    _ROW_KEYS = ("start_state", "start_action", "mid_state", "mid_action")

    def state_dict(self) -> dict:
        payload = super().state_dict()
        del payload["num_sessions"], payload["decision_points"]
        payload["reward_calculator"] = payload.pop("reward_calculators")[0]
        pending = payload.pop("pending")
        payload["pending_transition"] = (
            None if pending is None else {k[:-1]: v[0] for k, v in pending.items()}
        )
        for key in self._ROW_KEYS:
            rows = payload.pop(key + "s")
            payload[key] = None if rows is None else rows[0]
        return payload

    def load_state_dict(self, payload: dict) -> None:
        def rows(value):
            return None if value is None else np.asarray(value)[None]

        pending = payload["pending_transition"]
        super().load_state_dict(
            {
                **payload,
                "num_sessions": 1,
                "decision_points": 0,
                "reward_calculators": [payload["reward_calculator"]],
                "pending": (
                    None if pending is None else {k + "s": rows(v) for k, v in pending.items()}
                ),
                **{key + "s": rows(payload[key]) for key in self._ROW_KEYS},
            }
        )

    # -- selection: cool-down first, then epsilon-greedy on the 1-D state -----------------

    def _select(self, states: Sequence, width: float, observation) -> Sequence:
        """Only the decisions the cool-down does not force are counted."""
        if self.training:
            forced = self.cooldown.maybe_cooldown_action(
                self.action_space,
                observation.cpu_level,
                observation.gpu_level,
                observation.cpu_temperature_c,
                observation.gpu_temperature_c,
                self.temperature_threshold_c,
                self.rng,
            )
            if forced is not None:
                return (forced,)
        action = self.learner.select_action(states[0], self.epsilon, self.rng, width=width)
        self._decision_count += 1
        return (action,)

    def _train_due(self) -> bool:
        return self._decision_count % self.config.train_interval == 0

    def _decision(self, actions: Sequence) -> FrequencyDecision:
        cpu_level, gpu_level = self.action_space.decode(actions[0])
        return FrequencyDecision(cpu_level=cpu_level, gpu_level=gpu_level)

    # -- policy protocol -----------------------------------------------------------------

    def begin_frame(self, observation: FrameStartObservation) -> FrequencyDecision:
        state = self.encoder.encode_start(observation)
        return self._decision(self._decide_start((state,), observation))

    def mid_frame(self, observation: MidFrameObservation) -> FrequencyDecision | None:
        if self.config.single_decision:
            return None
        state = self.encoder.encode_mid(observation)
        return self._decision(self._decide_mid((state,), observation))

    def end_frame(self, result: FrameRecord) -> None:
        self._credit_frame(
            (result.total_latency_ms,),
            (result.latency_constraint_ms,),
            (result.cpu_temperature_c,),
            (result.gpu_temperature_c,),
        )
