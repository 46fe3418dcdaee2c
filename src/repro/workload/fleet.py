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
on each generator, bit-identical to ``rng.normal``).  The draw loop does
not take ``bit_generator.lock``, so a stream, and its generators, must be
driven from one thread at a time.  :meth:`FleetFrameStream.next_frames`
runs the AR(1) update as NumPy array operations (:func:`ar1_advance`);
with the ``fleet`` kernels, the fleet environment instead advances the
stream inside its ``fleet_begin_frame`` call (``fleet_ar1_advance``, whose
reference :func:`ar1_advance` is), on the arrays
:meth:`FleetFrameStream.kernel_arguments` hands it, and counts the frame
through :meth:`FleetFrameStream.count_frame`.

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

A one-session stream may follow Fig. 7b's domain-switch schedule
(:meth:`FleetFrameStream.continuing`, which takes over a scalar
:class:`~repro.workload.generator.DomainSwitchStream`): at each segment
boundary the dataset and the constraint switch and the scene process
restarts from the session's generator, as the scalar stream does.  This is
how the scalar :class:`~repro.env.environment.InferenceEnvironment` runs its
workload on the fleet kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.errors import WorkloadError
from repro.kernels import SessionGenerators, check_scales
from repro.workload.dataset import DatasetProfile
from repro.workload.generator import DomainSwitchStream, FrameStream


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

    :meth:`continuing` builds the one-session stream that takes over a
    scalar :class:`~repro.workload.generator.FrameStream` or
    :class:`~repro.workload.generator.DomainSwitchStream`, the latter with
    its Fig. 7b segment schedule.
    """

    def __init__(
        self,
        dataset: Union[DatasetProfile, Sequence[DatasetProfile]],
        rngs: Sequence[np.random.Generator],
        latency_constraint_ms: Sequence[float],
    ):
        self._setup(dataset, rngs, latency_constraint_ms)
        self._restart_scenes()

    def _setup(self, dataset, rngs, latency_constraint_ms) -> None:
        """Everything :meth:`__init__` builds but the scene values' first draw."""
        if not rngs:
            raise WorkloadError("need at least one generator (one per session)")
        self.num_sessions = n = len(rngs)
        self._rngs = SessionGenerators(rngs)
        if isinstance(dataset, DatasetProfile):
            profiles = [dataset] * n
        else:
            profiles = list(dataset)
            if len(profiles) != n:
                raise WorkloadError(
                    f"got {len(profiles)} dataset profiles for {n} sessions"
                )
            if not all(isinstance(p, DatasetProfile) for p in profiles):
                raise WorkloadError("dataset entries must be DatasetProfile objects")
        self._constraint = np.array(
            [float(value) for value in latency_constraint_ms], dtype=float
        )
        if self._constraint.shape != (n,):
            raise WorkloadError(
                f"got {len(self._constraint)} latency constraints for {n} sessions"
            )
        if not (self._constraint > 0).all():
            raise WorkloadError("latency constraints must be positive")
        self._index = 0
        # Written only in place: a fused environment's table holds their
        # addresses.
        (
            self._mean, self._innovation_std, self._correlation, self._minimum,
            self._maximum, self._image_scale, self._current,
        ) = (np.zeros(n) for _ in range(7))
        self._load(profiles)
        # No segment schedule (see :meth:`continuing`).
        self._segments: tuple = ()
        self._segment = 0
        self._starts: dict = {}
        self._switch_at: int | None = None
        self._fallback_constraint = 0.0

    def _load(self, profiles: Sequence[DatasetProfile]) -> None:
        """Write every session's AR(1) parameters, image scale and name."""
        processes = [profile.scene_process() for profile in profiles]
        self._processes = processes
        self.datasets = tuple(profiles)
        self.dataset = profiles[0]
        self._names = tuple(profile.name for profile in profiles)
        self._mean[:] = [p.mean for p in processes]
        self._innovation_std[:] = check_scales([p.innovation_std for p in processes])
        self._correlation[:] = [p.correlation for p in processes]
        self._minimum[:] = [p.minimum for p in processes]
        self._maximum[:] = [p.maximum for p in processes]
        self._image_scale[:] = [profile.image_scale for profile in profiles]

    def _restart_scenes(self) -> None:
        """Mirror ``SceneComplexityProcess.reset(rng)``: one stationary draw
        per session from its own generator (with that session's own mean
        and stationary std), clipped into that session's range."""
        initial = [
            rng.normal(process.mean, process.stationary_std)
            for rng, process in zip(self._rngs, self._processes)
        ]
        np.clip(initial, self._minimum, self._maximum, out=self._current)

    # -- the segment schedule ------------------------------------------------------------

    @classmethod
    def continuing(
        cls, stream: FrameStream | DomainSwitchStream, latency_constraint_ms: float
    ) -> "FleetFrameStream":
        """The one-session stream that emits the frames ``stream`` would emit next.

        It takes over the scalar stream's generator, its scene value and
        frame count, and a :class:`DomainSwitchStream`'s segment schedule:
        at a segment boundary it switches dataset and constraint and
        restarts the scene process from the generator, exactly as the
        domain switch does.  Frames (or segments) without a constraint of
        their own get ``latency_constraint_ms``.  The scalar stream must
        not be drawn from afterwards.
        """
        if isinstance(stream, DomainSwitchStream):
            segments, segment = stream._segments, stream._segment_index
            inner = stream._stream
        elif isinstance(stream, FrameStream):
            segments, segment, inner = (), 0, stream
        else:
            raise WorkloadError(
                f"expected a FrameStream or a DomainSwitchStream, got {type(stream).__name__}"
            )
        constraint = inner._latency_constraint_ms
        fleet = cls.__new__(cls)
        fleet._setup(
            inner.dataset, [inner._rng],
            [latency_constraint_ms if constraint is None else constraint],
        )
        fleet._current[0] = inner._process.current
        fleet._index = stream.frames_emitted
        if segments:
            fleet._segments = tuple(segments)
            fleet._fallback_constraint = latency_constraint_ms
            start = stream.frames_emitted - stream._frames_in_segment
            for later in range(segment, len(segments)):
                fleet._starts[later] = start
                start += segments[later].num_frames
            fleet._enter(segment)
        return fleet

    def _enter(self, segment: int) -> None:
        """Make ``segment`` of the schedule the current one (no draw)."""
        scheduled = self._segments[segment]
        self._segment = segment
        self._load([scheduled.dataset] * self.num_sessions)
        constraint = scheduled.latency_constraint_ms
        self._constraint.fill(self._fallback_constraint if constraint is None else constraint)
        self._switch_at = self._starts.get(segment + 1)

    def enter_due_segment(self) -> bool:
        """Apply the segment schedule to the frame about to be emitted.

        At a segment boundary, switch every session's dataset and
        constraint and restart its scene process from its generator, and
        return ``True``: the arrays are written in place, but the dataset
        names and the innovation scales change.  :meth:`next_frames` calls
        this itself; a caller that advances the stream through
        :meth:`kernel_arguments` calls it before drawing each frame.
        """
        if self._index != self._switch_at:
            return False
        self._enter(self._segment + 1)
        self._restart_scenes()
        return True

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
        payload = {
            "num_sessions": int(self.num_sessions),
            "rngs": [rng.bit_generator.state for rng in self._rngs],
            "current": self._current.copy(),
            "index": int(self._index),
        }
        if self._segments:
            payload["segment"] = self._segment
        return payload

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this stream in place."""
        if int(payload["num_sessions"]) != self.num_sessions:
            raise WorkloadError(
                f"snapshot was captured from a {payload['num_sessions']}-session "
                f"stream but this stream drives {self.num_sessions} sessions"
            )
        for rng, state in zip(self._rngs, payload["rngs"]):
            rng.bit_generator.state = state
        if self._segments:
            self._enter(int(payload["segment"]))
        self._current[:] = np.asarray(payload["current"], dtype=float)
        self._index = int(payload["index"])

    def next_frames(self) -> FleetFrameBatch:
        """Generate the next frame for every session in one array step."""
        self.enter_due_segment()
        innovations = self._rngs.normal(self._innovation_std)
        ar1_advance(
            self._current, self._mean, self._correlation,
            innovations, self._minimum, self._maximum,
        )
        batch = FleetFrameBatch(
            index=self._index,
            datasets=self._names,
            image_scale=self._image_scale.copy(),
            scene_candidates=self._current.copy(),
            latency_constraint_ms=self._constraint.copy(),
        )
        self._index += 1
        return batch

    # -- the fused frame ---------------------------------------------------------------

    def kernel_arguments(self) -> dict:
        """The stream's own arrays, for a kernel that advances it in place.

        ``current`` (the scene values, which :func:`ar1_advance`'s kernel
        form advances in place), the AR(1) parameters ``mean``,
        ``correlation``, ``minimum`` and ``maximum``, the draw scales
        ``innovation_std``, ``image_scale`` and ``constraint``, plus the
        generators ``rngs`` and the dataset ``names``.  The scene values
        need no check per frame: every session's clip range was validated
        as ``0 <= minimum <= maximum`` by its
        :class:`~repro.workload.scene.SceneComplexityProcess`.  For each
        frame the caller calls :meth:`enter_due_segment` (and, when it
        returns ``True``, reads the ``names`` and ``innovation_std`` anew),
        draws the innovations from ``rngs`` with ``innovation_std`` and
        calls :meth:`count_frame`.
        """
        return {
            "current": self._current, "mean": self._mean,
            "correlation": self._correlation, "minimum": self._minimum,
            "maximum": self._maximum, "innovation_std": self._innovation_std,
            "image_scale": self._image_scale, "constraint": self._constraint,
            "rngs": self._rngs, "names": self._names,
        }

    def count_frame(self) -> None:
        """Count one frame emitted through :meth:`kernel_arguments`."""
        self._index += 1
