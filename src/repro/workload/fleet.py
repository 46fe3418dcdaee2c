"""Batched frame streams for the fleet engine.

:class:`FleetFrameStream` advances N per-session scene-complexity processes
in one array step: the per-frame normal innovation is drawn from each
session's own generator (so every session's random stream is consumed
exactly as the scalar :class:`~repro.workload.generator.FrameStream`
consumes it), and the AR(1) update plus clipping run as array operations.
Session ``i`` of a fleet stream seeded with ``rngs[i]`` therefore emits the
bit-identical frame sequence of ``FrameStream(dataset, rngs[i])``.

The draws run in one C loop when the ``random`` kernels are available
(:class:`~repro.kernels.SessionGenerators`: NumPy's own ``random_normal``
on each generator, bit-identical to ``rng.normal``), and the AR(1) update
as ``fleet_ar1_advance`` when the ``fleet`` kernels are (its reference is
:func:`ar1_advance`), through an argument table over the stream's own
arrays, built on the first fused frame and dropped by pickling and
copying.  The draw loop does not take ``bit_generator.lock``,
so a stream, and its generators, must be driven from one thread at a time.

The stream may be *heterogeneous*: passing one
:class:`~repro.workload.dataset.DatasetProfile` per session gives every
session its own AR(1) parameters (mean, innovation std, correlation,
clipping range), image scale and dataset name, while the update still runs
as one array step — the per-session random draw uses that session's own
mean/std exactly as its scalar stream would, so heterogeneity does not
disturb the bit-exactness contract.  The stream also carries each
session's latency constraint — one resolved float per session, which the
builder (:func:`repro.runtime.fleet.make_group_environment`) derives from
the session's spec — so every frame batch is complete on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.errors import WorkloadError
from repro.kernels import SessionGenerators, check_scales, fused_fleet
from repro.workload.dataset import DatasetProfile


def ar1_advance(current, mean, correlation, innovations, minimum, maximum) -> None:
    """One clipped AR(1) step of every session's scene complexity, in place.

    The NumPy form of the ``fleet_ar1_advance`` kernel.
    """
    value = mean + correlation * (current - mean) + innovations
    np.clip(value, minimum, maximum, out=current)


@dataclass(frozen=True)
class FleetFrameBatch:
    """One lock-step frame across N sessions.

    Attributes:
        index: Zero-based frame index within the stream.
        datasets: Dataset name per session.
        image_scale: Stage-1 work multiplier per session.
        scene_candidates: Candidate-object count per session.
        latency_constraint_ms: Latency constraint per session.
    """

    index: int
    datasets: tuple
    image_scale: np.ndarray
    scene_candidates: np.ndarray
    latency_constraint_ms: np.ndarray


class FleetFrameStream:
    """N lock-step frame streams, homogeneous or per-session heterogeneous.

    Args:
        dataset: Either one dataset profile shared by every session, or a
            sequence of one profile per session (per-session AR(1)
            parameters, image scales and dataset names).
        rngs: One generator per session; defines the fleet size.
        latency_constraint_ms: One latency constraint per session.
    """

    def __init__(
        self,
        dataset: Union[DatasetProfile, Sequence[DatasetProfile]],
        rngs: Sequence[np.random.Generator],
        latency_constraint_ms: Sequence[float],
    ):
        if not rngs:
            raise WorkloadError("need at least one generator (one per session)")
        self.num_sessions = len(rngs)
        self._rngs = SessionGenerators(rngs)
        if isinstance(dataset, DatasetProfile):
            profiles = [dataset] * self.num_sessions
        else:
            profiles = list(dataset)
            if len(profiles) != self.num_sessions:
                raise WorkloadError(
                    f"got {len(profiles)} dataset profiles for "
                    f"{self.num_sessions} sessions"
                )
            if not all(isinstance(p, DatasetProfile) for p in profiles):
                raise WorkloadError("dataset entries must be DatasetProfile objects")
        self.datasets = tuple(profiles)
        self.dataset = profiles[0]
        self._constraint = np.array(
            [float(value) for value in latency_constraint_ms], dtype=float
        )
        if self._constraint.shape != (self.num_sessions,):
            raise WorkloadError(
                f"got {len(self._constraint)} latency constraints for "
                f"{self.num_sessions} sessions"
            )
        if not (self._constraint > 0).all():
            raise WorkloadError("latency constraints must be positive")
        self._index = 0

        processes = [profile.scene_process() for profile in profiles]
        self._mean = np.array([p.mean for p in processes], dtype=float)
        self._innovation_std = check_scales([p.innovation_std for p in processes])
        self._correlation = np.array([p.correlation for p in processes], dtype=float)
        self._minimum = np.array([p.minimum for p in processes], dtype=float)
        self._maximum = np.array([p.maximum for p in processes], dtype=float)
        self._image_scale = np.array(
            [profile.image_scale for profile in profiles], dtype=float
        )
        self._names = tuple(profile.name for profile in profiles)
        # Mirror SceneComplexityProcess.reset(rng): one stationary draw per
        # session from its own generator (with that session's own mean and
        # stationary std), clipped into that session's range.
        initial = np.array(
            [
                rng.normal(process.mean, process.stationary_std)
                for rng, process in zip(self._rngs, processes)
            ]
        )
        # Written only in place: the AR(1) kernel's table holds its address.
        self._current = np.clip(initial, self._minimum, self._maximum)
        self._ar1_table = None

    def __getstate__(self) -> dict:
        # The table holds raw addresses of this stream's arrays; a copy
        # (pickle or deepcopy) builds its own.
        state = self.__dict__.copy()
        state["_ar1_table"] = None
        return state

    @property
    def frames_emitted(self) -> int:
        """Number of lock-step frames generated so far."""
        return self._index

    # -- checkpointing -------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of the stream's mutable cursor state.

        Captures each session's generator state, the current AR(1) scene
        values and the frame index — everything :meth:`next_frames` reads
        or advances — so a restored stream emits the bit-identical frame
        sequence an uninterrupted one would.
        """
        return {
            "num_sessions": int(self.num_sessions),
            "rngs": [rng.bit_generator.state for rng in self._rngs],
            "current": self._current.copy(),
            "index": int(self._index),
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this stream in place."""
        if int(payload["num_sessions"]) != self.num_sessions:
            raise WorkloadError(
                f"snapshot was captured from a {payload['num_sessions']}-session "
                f"stream but this stream drives {self.num_sessions} sessions"
            )
        for rng, state in zip(self._rngs, payload["rngs"]):
            rng.bit_generator.state = state
        self._current[:] = np.asarray(payload["current"], dtype=float)
        self._index = int(payload["index"])

    def next_frames(self) -> FleetFrameBatch:
        """Generate the next frame for every session in one array step."""
        innovations = self._rngs.normal(self._innovation_std)
        kernel = fused_fleet()
        if kernel is None:
            ar1_advance(
                self._current, self._mean, self._correlation,
                innovations, self._minimum, self._maximum,
            )
        else:
            if self._ar1_table is None:
                self._ar1_table = kernel.ar1_table(
                    self._current, self._mean, self._correlation,
                    np.zeros(self.num_sessions), self._minimum, self._maximum,
                )
            self._ar1_table.buffers["innovations"][:] = innovations
            kernel.fleet_ar1_advance(self._ar1_table)
        batch = FleetFrameBatch(
            index=self._index,
            datasets=self._names,
            image_scale=self._image_scale.copy(),
            scene_candidates=self._current.copy(),
            latency_constraint_ms=self._constraint.copy(),
        )
        self._index += 1
        return batch
