"""Fleet-trained Lotus agent: one Q-network, N concurrent sessions.

The scalar :class:`~repro.core.agent.LotusAgent` learns from a single
device.  :class:`FleetLotusAgent` is the vectorized-RL variant enabled by
the fleet engine: one shared slimmable Q-network selects actions for the
whole fleet with a single batched forward pass per decision point (reusing
:meth:`repro.rl.slimmable.SlimmableMLP.predict` on ``(N, state)`` batches),
and the replay buffers collect transitions from *every* session, so the
agent sees N times more experience per simulated frame.

This is deliberately a different training regime from N independent scalar
agents (shared weights, shared replay) — per-session scalar semantics
remain available through
:class:`repro.env.fleet.PerSessionPolicies`.  Construction, encoding,
reward, credit assignment and checkpoint state are the scalar agent's
(:class:`~repro.core.agent.LotusAgentCore`); only the order in which a
decision consumes the random generator, and the training cadence, are the
fleet's own.
"""

from __future__ import annotations

import numpy as np

from repro.core.agent import LotusAgentCore
from repro.env.fleet import (
    FleetDecision,
    FleetFrameResult,
    FleetMidObservation,
    FleetPolicy,
    FleetStartObservation,
)


class FleetLotusAgent(LotusAgentCore, FleetPolicy):
    """Online thermal/latency management of a whole fleet with one network.

    Takes the arguments of :class:`~repro.core.agent.LotusAgentCore`, with
    ``num_sessions`` the fleet size N.
    """

    name = "lotus-fleet"

    # -- selection: one forward pass, epsilon for every row, then cool-down ------------

    def _select(self, states: np.ndarray, width: float, observation) -> np.ndarray:
        """Every decision is counted, the forced ones included."""
        n = len(states)
        q_values = self.network.predict(states, width)
        actions = np.argmax(q_values, axis=1).astype(np.int64)
        if self.training:
            explore = self.rng.random(n) < self.epsilon
            if explore.any():
                actions[explore] = self.rng.integers(
                    self.action_space.size, size=int(explore.sum())
                )
            overheated = self.cooldown.is_overheated(
                observation.cpu_temperature_c,
                observation.gpu_temperature_c,
                self.temperature_threshold_c,
            )
            for i in np.nonzero(overheated)[0]:
                forced = self.cooldown.maybe_cooldown_action(
                    self.action_space,
                    int(observation.cpu_level[i]),
                    int(observation.gpu_level[i]),
                    float(observation.cpu_temperature_c[i]),
                    float(observation.gpu_temperature_c[i]),
                    self.temperature_threshold_c,
                    self.rng,
                )
                if forced is not None:
                    actions[i] = forced
        self._decision_count += n
        return actions

    def _train_due(self) -> bool:
        """Train once per ``train_interval`` lock-step decision points.

        One gradient step per batch of N fresh transitions — the standard
        vectorized-RL trade: the fleet agent takes the *same* number of
        training steps per simulated frame as the scalar agent while seeing
        N times more experience per step, rather than multiplying the step
        count by the fleet size.
        """
        self._decision_points += 1
        return self._decision_points % self.config.train_interval == 0

    def _decision(self, actions: np.ndarray) -> FleetDecision:
        cpu_levels, gpu_levels = np.divmod(actions, self.action_space.gpu_levels)
        return FleetDecision(cpu_levels=cpu_levels, gpu_levels=gpu_levels)

    # -- fleet policy protocol ------------------------------------------------------------

    def begin_frame(self, observation: FleetStartObservation) -> FleetDecision:
        states = self.encoder.encode_start_batch(observation)
        return self._decision(self._decide_start(states, observation))

    def mid_frame(self, observation: FleetMidObservation) -> FleetDecision | None:
        if self.config.single_decision:
            return None
        states = self.encoder.encode_mid_batch(observation)
        return self._decision(self._decide_mid(states, observation))

    def end_frame(self, result: FleetFrameResult) -> None:
        self._credit_frame(
            result.total_latency_ms,
            result.latency_constraint_ms,
            result.cpu_temperature_c,
            result.gpu_temperature_c,
        )
