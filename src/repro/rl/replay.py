"""Experience replay.

A bounded FIFO buffer of transitions with uniform random sampling — the
standard DQN component.  Lotus keeps *two* of these, one per per-frame
decision point, so that batches used to train the reduced-width Q-values
never mix with batches used to train the full-width ones (paper §4.3.4);
that pairing lives in the Lotus agent, not here.

Storage is a ring of preallocated column arrays rather than a deque of
per-transition Python objects: :meth:`ReplayBuffer.append` writes one
transition's fields into the ring in place, and :meth:`ReplayBuffer.sample`
gathers a whole :class:`TransitionBatch` of columns with one fancy-index
per column pair.  Sampling draws indices with the same
``rng.choice(len, size, replace=False)`` call as the original deque
implementation, keeping seeded runs bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReplayBufferError


@dataclass(frozen=True)
class TransitionBatch:
    """A batch of transitions in structure-of-arrays (column) form.

    This is what :meth:`ReplayBuffer.sample` returns and what
    :meth:`~repro.rl.dqn.DqnLearner.train_batch` consumes.

    Attributes:
        states: Array of shape ``(batch, dim)``: the observations the
            actions were taken in.
        actions: Integer array of shape ``(batch,)``: the actions taken.
        rewards: Array of shape ``(batch,)``.
        next_states: Array of shape ``(batch, dim)``: the observations of
            the following time step.
        next_widths: Array of shape ``(batch,)``: the width multiplier at
            which each next state's Q-values are evaluated when
            bootstrapping (the Lotus transition at time ``2i`` bootstraps
            through a full-width evaluation of ``s_{2i+1}``, and vice versa).
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    next_widths: np.ndarray
    #: When not ``None``, every entry of ``next_widths`` is known to equal
    #: this value (tracked by the buffer at push time), letting the learner
    #: skip the per-batch uniformity scan.
    uniform_next_width: float | None = None

    def __len__(self) -> int:
        return self.states.shape[0]


class ReplayBuffer:
    """Bounded FIFO replay buffer with uniform sampling.

    The column arrays are allocated lazily on the first push (that is when
    the state dimension becomes known) and reused for the lifetime of the
    buffer; eviction is implicit in the ring-write position.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ReplayBufferError("capacity must be positive")
        self.capacity = capacity
        self._size = 0
        self._next = 0
        self._total_pushed = 0
        self._dim = 0
        # Fused column storage: one gather serves both state columns, one
        # serves both scalar columns.
        self._state_pairs: np.ndarray | None = None  # (capacity, 2 * dim)
        self._scalar_pairs: np.ndarray | None = None  # (capacity, 2): reward, next_width
        self._actions: np.ndarray | None = None
        # All stored next_widths share this value until a differing one is
        # pushed; None = known mixed (conservative: never reset to uniform
        # by eviction).
        self._uniform_next_width: float | None = None

    def _allocate(self, dim: int) -> None:
        self._dim = dim
        self._state_pairs = np.zeros((self.capacity, 2 * dim))
        self._scalar_pairs = np.zeros((self.capacity, 2))
        self._actions = np.zeros(self.capacity, dtype=np.intp)

    def append(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        next_width: float = 1.0,
    ) -> None:
        """Store one transition, evicting the oldest if the buffer is full.

        Raises:
            ReplayBufferError: If ``action`` is negative, or the states are
                not 1-D vectors of the buffer's dimension (fixed by the
                first transition).
        """
        if action < 0:
            raise ReplayBufferError("action index must be non-negative")
        if self._state_pairs is None:
            state = np.asarray(state, dtype=float)
            next_state = np.asarray(next_state, dtype=float)
            if state.ndim != 1 or next_state.shape != state.shape:
                raise ReplayBufferError(
                    "state and next_state must be 1-D vectors of equal length"
                )
            self._allocate(state.shape[0])
        index = self._next
        dim = self._dim
        if np.shape(state) != (dim,) or np.shape(next_state) != (dim,):
            raise ReplayBufferError(
                f"state and next_state must have shape ({dim},) to match the "
                f"buffer's first transition"
            )
        row = self._state_pairs[index]
        row[:dim] = state
        row[dim:] = next_state
        self._actions[index] = action
        self._scalar_pairs[index, 0] = reward
        self._scalar_pairs[index, 1] = next_width
        if self._total_pushed == 0:
            self._uniform_next_width = float(next_width)
        elif (
            self._uniform_next_width is not None
            and next_width != self._uniform_next_width
        ):
            self._uniform_next_width = None
        self._next = (index + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)
        self._total_pushed += 1

    def __len__(self) -> int:
        return self._size

    @property
    def total_pushed(self) -> int:
        """Total number of transitions ever pushed (including evicted ones)."""
        return self._total_pushed

    def _physical(self, logical: np.ndarray) -> np.ndarray:
        """Map logical indices (0 = oldest) onto ring positions."""
        if self._size < self.capacity or self._next == 0:
            # Not yet wrapped, or wrapped an exact multiple of the capacity:
            # logical and physical coincide.
            return logical
        return (self._next + logical) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator) -> TransitionBatch:
        """Sample ``batch_size`` transitions uniformly at random.

        Returns:
            A :class:`TransitionBatch` whose columns are freshly gathered
            (the caller may mutate them without affecting the buffer; the
            state/scalar columns are views into per-call gather arrays).

        Raises:
            ReplayBufferError: If the buffer holds fewer than ``batch_size``
                transitions.
        """
        if batch_size <= 0:
            raise ReplayBufferError("batch_size must be positive")
        if self._size < batch_size:
            raise ReplayBufferError(
                f"cannot sample {batch_size} transitions from a buffer of size "
                f"{self._size}"
            )
        indices = self._physical(rng.choice(self._size, size=batch_size, replace=False))
        dim = self._dim
        state_pairs = self._state_pairs[indices]
        scalar_pairs = self._scalar_pairs[indices]
        return TransitionBatch(
            states=state_pairs[:, :dim],
            actions=self._actions[indices],
            rewards=scalar_pairs[:, 0],
            next_states=state_pairs[:, dim:],
            next_widths=scalar_pairs[:, 1],
            uniform_next_width=self._uniform_next_width,
        )

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Complete, copyable snapshot of the ring state.

        Only the live rows (physical indices ``0 .. size-1``; when the ring
        has wrapped ``size == capacity`` so that is every row) are stored —
        unwritten rows are zeros and are re-zeroed on load.  Together with
        the write cursor this reproduces the exact physical layout, so
        seeded sampling from a restored buffer is bit-identical to sampling
        from the original.
        """
        return {
            "capacity": int(self.capacity),
            "size": int(self._size),
            "next": int(self._next),
            "total_pushed": int(self._total_pushed),
            "dim": int(self._dim),
            "uniform_next_width": (
                None
                if self._uniform_next_width is None
                else float(self._uniform_next_width)
            ),
            "state_pairs": (
                None if self._state_pairs is None else self._state_pairs[: self._size].copy()
            ),
            "scalar_pairs": (
                None if self._scalar_pairs is None else self._scalar_pairs[: self._size].copy()
            ),
            "actions": (
                None if self._actions is None else self._actions[: self._size].copy()
            ),
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict` in place.

        The buffer must have been constructed with the same capacity as the
        snapshot (the capacity is a configuration constant, not state).
        """
        try:
            capacity = int(payload["capacity"])
            size = int(payload["size"])
            next_index = int(payload["next"])
            total_pushed = int(payload["total_pushed"])
            dim = int(payload["dim"])
            uniform = payload["uniform_next_width"]
            state_pairs = payload["state_pairs"]
            scalar_pairs = payload["scalar_pairs"]
            actions = payload["actions"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ReplayBufferError(f"malformed replay-buffer state: {exc}") from exc
        if capacity != self.capacity:
            raise ReplayBufferError(
                f"snapshot capacity {capacity} does not match buffer capacity "
                f"{self.capacity}"
            )
        if not 0 <= size <= capacity or not 0 <= next_index < max(capacity, 1):
            raise ReplayBufferError("replay-buffer snapshot indices out of range")
        if dim > 0:
            if state_pairs is None or scalar_pairs is None or actions is None:
                raise ReplayBufferError("replay-buffer snapshot is missing columns")
            state_pairs = np.asarray(state_pairs, dtype=float)
            scalar_pairs = np.asarray(scalar_pairs, dtype=float)
            actions = np.asarray(actions)
            if (
                state_pairs.shape != (size, 2 * dim)
                or scalar_pairs.shape != (size, 2)
                or actions.shape != (size,)
            ):
                raise ReplayBufferError("replay-buffer snapshot column shapes mismatch")
            self._allocate(dim)
            self._state_pairs[:size] = state_pairs
            self._scalar_pairs[:size] = scalar_pairs
            self._actions[:size] = actions
        else:
            self._dim = 0
            self._state_pairs = None
            self._scalar_pairs = None
            self._actions = None
        self._size = size
        self._next = next_index
        self._total_pushed = total_pushed
        self._uniform_next_width = None if uniform is None else float(uniform)
