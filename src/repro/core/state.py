"""State encoding.

Paper §4.3.2: the state observed at the beginning of the inference of the
i-th image is the 6-tuple ``{S_2i, T_cpu, T_gpu, f_cpu, f_gpu, dL_2i}``;
the state observed after the RPN additionally contains the proposal count
``P_{2i+1}``.  The encoder normalises every element to a roughly unit range
so that a single Q-network can consume both: the proposal slot is simply 0
in the first state, and the stage flag distinguishes the two (it is also
what the reduced-width / full-width execution switches on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.env.environment import FrameStartObservation, MidFrameObservation
from repro.env.fleet import FleetMidObservation, FleetStartObservation

#: Dimensionality of the encoded state vector: stage flag, CPU temperature,
#: GPU temperature, CPU level, GPU level, remaining latency budget, proposal
#: count.
STATE_DIMENSION = 7


@dataclass(frozen=True)
class StateEncoder:
    """Normalising encoder from environment observations to state vectors.

    Attributes:
        cpu_levels: Number of CPU frequency levels (for level normalisation).
        gpu_levels: Number of GPU frequency levels.
        temperature_scale_c: Temperature that maps to 1.0 — the throttling
            threshold is the natural choice so "1.0" means "at the limit".
        proposal_scale: Proposal count that maps to 1.0 — the detector's
            post-NMS cap is the natural choice.
    """

    cpu_levels: int
    gpu_levels: int
    temperature_scale_c: float
    proposal_scale: float

    def __post_init__(self) -> None:
        if self.cpu_levels <= 0 or self.gpu_levels <= 0:
            raise ConfigurationError("cpu_levels and gpu_levels must be positive")
        if self.temperature_scale_c <= 0:
            raise ConfigurationError("temperature_scale_c must be positive")
        if self.proposal_scale <= 0:
            raise ConfigurationError("proposal_scale must be positive")

    @property
    def dimension(self) -> int:
        """Length of the encoded state vector."""
        return STATE_DIMENSION

    # -- encoding -------------------------------------------------------------------

    def _level_fraction(self, level, num_levels: int):
        """``level`` as a fraction of the top level (elementwise on arrays)."""
        if num_levels <= 1:
            return 1.0
        return level / (num_levels - 1)

    def _encode(self, observation, stage: float, proposals: float) -> np.ndarray:
        budget_fraction = observation.remaining_budget_ms / observation.latency_constraint_ms
        return np.array(
            [
                stage,
                observation.cpu_temperature_c / self.temperature_scale_c,
                observation.gpu_temperature_c / self.temperature_scale_c,
                self._level_fraction(observation.cpu_level, self.cpu_levels),
                self._level_fraction(observation.gpu_level, self.gpu_levels),
                float(np.clip(budget_fraction, -1.0, 1.0)),
                proposals,
            ],
            dtype=float,
        )

    def encode_start(self, observation: FrameStartObservation) -> np.ndarray:
        """Encode the start-of-frame state ``s_2i`` (proposal slot is 0)."""
        return self._encode(observation, 0.0, 0.0)

    def encode_mid(self, observation: MidFrameObservation) -> np.ndarray:
        """Encode the post-RPN state ``s_{2i+1}`` (proposal slot filled)."""
        proposals = min(observation.num_proposals / self.proposal_scale, 2.0)
        return self._encode(observation, 1.0, proposals)

    # -- batched encoding: row i is the scalar encoding of session i ------------

    def _encode_rows(self, observation, stage: float, proposals) -> np.ndarray:
        budget_fraction = observation.remaining_budget_ms / observation.latency_constraint_ms
        states = np.zeros((observation.num_sessions, self.dimension))
        states[:, 0] = stage
        states[:, 1] = observation.cpu_temperature_c / self.temperature_scale_c
        states[:, 2] = observation.gpu_temperature_c / self.temperature_scale_c
        states[:, 3] = self._level_fraction(observation.cpu_level, self.cpu_levels)
        states[:, 4] = self._level_fraction(observation.gpu_level, self.gpu_levels)
        states[:, 5] = np.clip(budget_fraction, -1.0, 1.0)
        states[:, 6] = proposals
        return states

    def encode_start_batch(self, observation: FleetStartObservation) -> np.ndarray:
        """:meth:`encode_start` of every session, as an ``(N, dimension)`` array."""
        return self._encode_rows(observation, 0.0, 0.0)

    def encode_mid_batch(self, observation: FleetMidObservation) -> np.ndarray:
        """:meth:`encode_mid` of every session, as an ``(N, dimension)`` array."""
        proposals = np.minimum(observation.num_proposals / self.proposal_scale, 2.0)
        return self._encode_rows(observation, 1.0, proposals)
