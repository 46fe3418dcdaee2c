"""The ``fleet`` family: the batched simulator's per-frame kernels.

Each kernel's reference is its owner's ``REPRO_FUSED=0`` NumPy code:

* ``fleet_begin_frame``, ``fleet_first_stage`` and ``fleet_second_stage``
  (one call per frame phase of a fleet environment):
  ``BatchedInferenceEnvironment._begin_frame``, ``_first_stage`` and
  ``_second_stage`` without kernels;
* ``fleet_device_execute``: ``DeviceFleet._execute_numpy``;
* ``fleet_request_levels``: ``DeviceFleet._request_numpy``;
* ``fleet_select_levels``: each batched governor's ``_select_numpy``;
* ``fleet_ar1_advance``: :func:`repro.workload.fleet.ar1_advance`;
* ``fleet_proposal_tail``: :func:`repro.detection.fleet.proposal_tail`.

The phase kernels run the last two, and a detector stage's costs, segment
model and ``fleet_device_execute``, inside them.
"""

from __future__ import annotations

import ctypes
import dataclasses

import numpy as np

from repro.kernels.build import (
    AR1_SLOTS,
    DEVICE_CONSTANT_LAYOUT,
    DEVICE_LAYOUT,
    FRAME_CONSTANTS,
    FRAME_SLOTS,
    GOVERNOR_CONSTANTS,
    GOVERNOR_KINDS,
    GOVERNOR_SLOTS,
    PROPOSAL_CONSTANTS,
    PROPOSAL_SLOTS,
    STAGE_SLOTS,
    ArgumentTable,
    function,
)
from repro.kernels.resolve import differential, in_place
from repro.obs import bus as _obs


class FleetKernels:
    """ctypes bindings of the fleet kernels."""

    def __init__(self, lib: ctypes.CDLL):
        long, double, pointer = ctypes.c_long, ctypes.c_double, ctypes.c_void_p
        self._device_execute = function(lib, "fleet_device_execute", None, pointer, pointer)
        self._begin_frame = function(lib, "fleet_begin_frame", None, pointer)
        self._first_stage = function(lib, "fleet_first_stage", long, pointer, pointer)
        self._second_stage = function(lib, "fleet_second_stage", long, pointer, pointer)
        self._request_levels = function(lib, "fleet_request_levels", long, pointer, long)
        self._select_levels = function(
            lib, "fleet_select_levels", long, pointer, pointer, long
        )
        self._ar1 = function(lib, "fleet_ar1_advance", None, pointer)
        self._proposal_tail = function(lib, "fleet_proposal_tail", None, pointer, pointer)

    def device_table(self, arguments: dict) -> ArgumentTable:
        """The table of :meth:`fleet_device_execute` and
        :meth:`fleet_request_levels` for one fleet: every ``DEVICE_LAYOUT``
        and ``DEVICE_CONSTANT_LAYOUT`` name mapped."""
        return ArgumentTable(DEVICE_LAYOUT, DEVICE_CONSTANT_LAYOUT, arguments)

    def fleet_device_execute(self, table: ArgumentTable) -> None:
        """Run one segment of a device fleet through its argument table."""
        _obs.kernel_call("fleet_device_execute")
        self._device_execute(table.values_address, table.constants_address)

    def fleet_request_levels(self, table: ArgumentTable, masked: bool) -> int:
        """Apply the request staged in a device table's request buffers:
        0, or 1 (CPU) / 2 (GPU) for a level out of range, with nothing
        written."""
        _obs.kernel_call("fleet_request_levels")
        return self._request_levels(table.values_address, masked)

    def stage_table(self, arguments: dict) -> ArgumentTable:
        """The table of one detector stage of one environment, which its
        frame phases run: every ``STAGE_SLOTS`` name."""
        return ArgumentTable(STAGE_SLOTS, (), arguments)

    def frame_table(self, arguments: dict) -> ArgumentTable:
        """The table of one environment's three frame phases: every
        ``FRAME_SLOTS`` and ``FRAME_CONSTANTS`` name."""
        return ArgumentTable(FRAME_SLOTS, FRAME_CONSTANTS, arguments)

    def fleet_begin_frame(self, table: ArgumentTable) -> None:
        """Ambient, workload step and start observation of one frame."""
        _obs.kernel_call("fleet_begin_frame")
        self._begin_frame(table.values_address)

    def fleet_first_stage(self, table: ArgumentTable) -> bool:
        """Stage 1, proposal counts and mid observation of one frame;
        ``False``, with nothing written, if a frequency is <= 0."""
        _obs.kernel_call("fleet_first_stage")
        return self._first_stage(table.values_address, table.constants_address) == 0

    def fleet_second_stage(self, table: ArgumentTable) -> bool:
        """Stage 2, idle gap and frame result of one frame; ``False``, with
        nothing written, if stage 2 runs and a frequency is <= 0."""
        _obs.kernel_call("fleet_second_stage")
        return self._second_stage(table.values_address, table.constants_address) == 0

    def governor_table(self, kind: str, num_sessions: int, parameters: dict) -> ArgumentTable:
        """The table of :meth:`fleet_select_levels` for one governor (``kind``
        one of ``GOVERNOR_KINDS``, ``parameters`` its ``step`` and
        ``GOVERNOR_CONSTANTS``) at one fleet size, with its own buffers."""
        buffers = {
            "utilisation": np.zeros(num_sessions),
            "current": np.zeros(num_sessions, dtype=np.int64),
            "levels": np.zeros(num_sessions, dtype=np.int64),
        }
        return ArgumentTable(
            GOVERNOR_SLOTS, GOVERNOR_CONSTANTS,
            {"kind": GOVERNOR_KINDS.index(kind), "sessions": num_sessions, **buffers,
             **parameters},
        )

    def fleet_select_levels(self, table: ArgumentTable, num_levels: int) -> bool:
        """A governor's levels from the table's utilisation and current
        levels into its ``levels`` buffer; ``False``, with nothing written,
        if a utilisation is not finite."""
        _obs.kernel_call("fleet_select_levels")
        return self._select_levels(
            table.values_address, table.constants_address, num_levels
        ) == 0

    def ar1_table(
        self, current, mean, correlation, innovations, minimum, maximum
    ) -> ArgumentTable:
        """The table of :meth:`fleet_ar1_advance` over one stream's arrays."""
        return ArgumentTable(
            AR1_SLOTS, (),
            {"sessions": current.size, "current": current, "mean": mean,
             "correlation": correlation, "innovations": innovations,
             "minimum": minimum, "maximum": maximum},
        )

    def fleet_ar1_advance(self, table: ArgumentTable) -> None:
        """One clipped AR(1) step over per-session streams, ``current`` in place."""
        _obs.kernel_call("fleet_ar1_advance")
        self._ar1(table.values_address)

    def proposal_table(
        self, scene_candidates, keep_ratio, factor, min_proposals, max_proposals, out
    ) -> ArgumentTable:
        """The table of :meth:`fleet_proposal_tail` over these arrays
        (``factor`` ``None`` for a detector without proposal noise)."""
        return ArgumentTable(
            PROPOSAL_SLOTS, PROPOSAL_CONSTANTS,
            {"sessions": scene_candidates.size, "has_factor": factor is not None,
             "scene": scene_candidates,
             "factor": np.zeros(0) if factor is None else factor, "counts": out,
             "keep_ratio": keep_ratio, "min_proposals": min_proposals,
             "max_proposals": max_proposals},
        )

    def fleet_proposal_tail(self, table: ArgumentTable) -> None:
        """rint/clip tail of the batched proposal draw into the int64 ``counts``."""
        _obs.kernel_call("fleet_proposal_tail")
        self._proposal_tail(table.values_address, table.constants_address)


bind = FleetKernels


def _executed(kernel):
    """Segments through ``make()._execute(kernel, ...)`` on a fresh owner:
    their results and the owner's state afterwards."""

    def run(make, segments):
        owner = make()
        results = [vars(owner._execute(kernel, *segment)) for segment in segments]
        return results, getattr(owner, "state_dict", dict)()

    return run


def _device_fleet(rng: np.random.Generator):
    """A factory of one three-node fleet whose temperatures start around both domains' trip
    and release points, with a few sessions at the edges of ``exp``'s
    domain: temperatures 0.0, -0.0, -745, 709 and NaN, and temperatures
    whose leakage exponent is 0.0, about -745 or above the 4.0 cap."""
    from repro.hardware.devices.registry import build_device
    from repro.hardware.fleet import DeviceFleet
    from repro.hardware.thermal import ThermalNetwork, ThermalNodeConfig

    device = build_device("jetson-orin-nano")
    board = ThermalNodeConfig("board", 2.0, 3.0)  # heat capacity, resistance to ambient
    couplings = {("cpu", "gpu"): 0.8, ("gpu", "board"): 0.35, ("cpu", "board"): 0.1}
    thermal = ThermalNetwork(nodes=(*device.thermal.nodes, board), couplings=couplings)
    n = 23
    device = dataclasses.replace(device, thermal=thermal)
    trip, power = device.cpu_throttle.trip_temperature_c, device.cpu.power_model
    k, ref = power.leakage_temp_coefficient, power.leakage_reference_temp_c
    state = DeviceFleet(device, n, rng.uniform(20.0, 45.0, n)).state_dict()
    state["temperatures"][:] = rng.uniform(trip - 25.0, trip + 5.0, (3, n))
    edges = [0.0, -0.0, -745.0, 709.0, np.nan, ref, ref - 745 / k, ref + 709 / k]
    state["temperatures"][0, :8] = edges
    for name in ("cpu", "gpu"):
        state[f"{name}_throttled"][:] = rng.random(n) < 0.5
        state[f"{name}_engage_count"][:] = rng.integers(0, 3, n)
    levels = [rng.integers(domain.num_levels, size=n) for domain in (device.cpu, device.gpu)]

    def make():
        fleet = DeviceFleet(device, n, state["ambient_temperature_c"])
        fleet.load_state_dict(state)
        fleet.request_levels(*levels)
        return fleet

    return make


def _environment(make_fleet, detector: str, launch_overhead_ms: float, idle_ms: float):
    """A factory of one environment on a copy of the fleet ``make_fleet``
    builds, with its own stream and proposal generators, constraints from
    50 to 400 ms, and sessions alternating between a constant ambient and
    one that ramps every frame."""
    from repro.detection.fleet import BatchedExecutionModel
    from repro.detection.registry import build_detector
    from repro.env.ambient import ConstantAmbient, LinearRampAmbient
    from repro.env.fleet import BatchedInferenceEnvironment
    from repro.workload.dataset import build_dataset
    from repro.workload.fleet import FleetFrameStream

    fleet = make_fleet()
    n = fleet.num_sessions
    # Throttled CPUs (row 0) cooling through their release point, one
    # after another, in every stage of the three frames.
    state = fleet.state_dict()
    throttle = fleet.cpu_throttle
    release = throttle.trip_temperature_c - throttle.hysteresis_c
    state["temperatures"][0, 8:] = release + np.linspace(0.05, 2.5, n - 8)
    state["cpu_throttled"][8:] = True
    ambient = [ConstantAmbient(30.0), LinearRampAmbient(20.0, 60.0, ramp_frames=4)]
    # Generators are slow to seed: every environment restores these.
    rngs = [np.random.default_rng(i) for i in range(2 * n)]
    seeded = [rng.bit_generator.state for rng in rngs]

    def make():
        for rng, seed_state in zip(rngs, seeded):
            rng.bit_generator.state = seed_state
        env = BatchedInferenceEnvironment(
            fleet.template, build_detector(detector),
            FleetFrameStream(
                build_dataset("kitti"), rngs[:n],
                latency_constraint_ms=np.linspace(50.0, 400.0, n),
            ),
            ambient=[ambient[i % 2] for i in range(n)],
            rngs=rngs[n:],
            idle_between_frames_ms=idle_ms,
        )
        env.execution = BatchedExecutionModel(
            dataclasses.replace(env.execution.profile, launch_overhead_ms=launch_overhead_ms)
        )
        env.state.device.load_state_dict(state)
        return env

    return make


def _framed(kernel):
    """Three frames through ``make()``'s phases on the given kernels, a
    third of the sessions at zero work (image scale 0.0, no proposals) and
    one at a NaN scale, and in the second frame a zero CPU frequency that
    the ``refused`` stage (1 or 2) meets before it is restored: every
    observation, result and refusal, the device state after the refusal
    and the environment's snapshot at the end."""
    from repro.errors import DetectorError

    def run(make, refused):
        env = make()
        state = env.state
        device = state.device
        outcomes = []
        for frame in range(3):
            outcomes.append(vars(env._begin_frame(kernel)))
            state.image_scale[::3] = 0.0
            state.image_scale[1] = np.nan
            for stage, phase in ((1, env._first_stage), (2, env._second_stage)):
                if frame == 1 and stage == refused:
                    level = device.cpu_level[5]
                    frequency = device.cpu.frequency_khz[level]
                    device.cpu.frequency_khz[level] = 0.0
                    try:
                        phase(kernel)
                    except DetectorError as error:
                        outcomes.append(str(error))
                    outcomes.append((device.state_dict(), state.frame_energy_j.copy()))
                    device.cpu.frequency_khz[level] = frequency
                outcomes.append(vars(phase(kernel)))
                state.num_proposals[::3] = 0
        outcomes.append(env.state_dict())
        return outcomes

    return run


def _requested(kernel):
    """Level requests through ``make()._request``: each one's error message
    (or ``None``) and the fleet's state after it."""
    from repro.errors import DeviceError

    def run(make, requests):
        fleet = make()
        outcomes = []
        for request in requests:
            try:
                fleet._request(kernel, *request)
                outcomes.append(None)
            except DeviceError as error:
                outcomes.append(str(error))
            outcomes.append(fleet.state_dict())
        return outcomes

    return run


def _requests(rng, fleet) -> list:
    """Requests masked and unmasked, scalar and per-session, in range and
    out of range inside and outside the mask, on either domain."""
    n, cpu, gpu = fleet.num_sessions, fleet.cpu.num_levels, fleet.gpu.num_levels
    mask = rng.random(n) < 0.5
    wild = np.where(mask, rng.integers(0, cpu, n), 99)
    low = np.where(mask, rng.integers(0, gpu, n), -1)
    gpu_out = rng.integers(0, gpu, n)
    gpu_out[np.flatnonzero(mask)[0]] = gpu
    return [
        (rng.integers(0, cpu, n), rng.integers(0, gpu, n), None),
        (wild, low, mask),
        (wild, gpu_out, mask),
        (np.full(n, cpu), np.full(n, -1), None),
        (cpu - 1, 0, mask),
        (1, gpu - 1, None),
        (99, -1, np.bool_(False)),
        (rng.integers(0, cpu, n).astype(np.uint8), np.int32(gpu - 1), ~mask),
        (-1, 0, np.bool_(True)),
    ]


def _selected(kernel):
    """``governor._select`` on the given kernels."""

    def run(governor, utilisation, current, num_levels):
        return governor._select(kernel, utilisation, current, num_levels)

    return run


def _halfway(mapping, inverse, targets) -> np.ndarray:
    """Utilisations that ``mapping`` sends exactly onto ``targets`` (the
    rounding half-way points), searched within 64 ulps of ``inverse``."""
    found = []
    for target in targets:
        guess = inverse(target)
        candidates = guess + np.arange(-64, 65) * np.spacing(guess)
        found.extend(candidates[mapping(candidates) == target][:2])
    return np.array(found)


def _utilisations(rng, governor, top: int) -> np.ndarray:
    """Each governor's half-way points and thresholds with their neighbours,
    -0.0, values outside [0, 1] and uniform draws."""
    from repro.governors.fleet import BatchedOndemandGovernor, BatchedSchedutilGovernor

    halves = np.arange(top) + 0.5
    if isinstance(governor, BatchedSchedutilGovernor):
        margin = governor.margin
        special = _halfway(
            lambda u: np.minimum(1.0, margin * u) * top + 0.49,
            lambda t: (t - 0.49) / top / margin, halves,
        )
    elif isinstance(governor, BatchedOndemandGovernor):
        up = governor.up_threshold
        special = _halfway(lambda u: u / up * top, lambda t: t / top * up, halves)
        special = np.concatenate([special, [up, np.nextafter(up, 0.0)]])
    else:
        thresholds = np.array([governor.up_threshold, governor.down_threshold])
        special = np.concatenate(
            [thresholds, np.nextafter(thresholds, 0.0), np.nextafter(thresholds, 1.0)]
        )
    edges = [-0.0, 0.0, 1.0, -0.4, 1.7, np.nextafter(1.0, 2.0)]
    return np.concatenate([special, edges, rng.uniform(-0.2, 1.2, 16)])


def _cases(kernel: FleetKernels):
    """The self-test's ``(inputs, kernel run, reference run)`` cases, built
    one at a time so each one's inputs are freed before the next."""
    from repro.detection.fleet import proposal_tail
    from repro.governors.fleet import (
        BatchedOndemandGovernor,
        BatchedSchedutilGovernor,
        BatchedSimpleOndemandGovernor,
        batched_nvhost_podgov,
    )
    from repro.workload.fleet import ar1_advance

    rng = np.random.default_rng(12345)
    # Four segments with 20 % zero durations (the others up to three 50 ms
    # sub-steps) and utilisations in -0.3..1.3.
    segments = []
    for _ in range(4):
        duration, utilisation = rng.uniform(0.0, 150.0, 23), rng.uniform(-0.3, 1.3, (2, 23))
        duration[rng.random(23) < 0.2] = 0.0
        utilisation[:, 0] = -0.0
        segments.append((duration, *utilisation))
    make_fleet = _device_fleet(rng)
    yield (make_fleet, segments), _executed(kernel), _executed(None)
    # Whole frames on the hot fleet (throttles engage and release): a
    # two-stage detector without launch overhead (zero work takes the
    # segment model's idle branch), with an idle gap and stage 2 refused
    # once; a one-stage detector with overhead and stage 1 refused once.
    for detector, overhead, idle_ms, refused in (
        ("faster_rcnn", 0.0, 5.0, 2), ("yolo_v5", 2.0, 0.0, 1),
    ):
        make = _environment(make_fleet, detector, overhead, idle_ms)
        yield (make, refused), _framed(kernel), _framed(None)
    yield (make_fleet, _requests(rng, make_fleet())), _requested(kernel), _requested(None)
    # Governors at each rounding half-way point, the step-down floor (the
    # current levels run up to the top), and non-finite utilisations, which
    # the kernel refuses.
    governors = (
        BatchedSchedutilGovernor(), BatchedSchedutilGovernor(margin=1.0, max_step_down=0),
        BatchedSchedutilGovernor(max_step_down=3), BatchedOndemandGovernor(),
        BatchedOndemandGovernor(0.6), BatchedSimpleOndemandGovernor(),
        batched_nvhost_podgov(),
    )
    for governor in governors:
        for num_levels in (1, 7, 12):
            utilisation = _utilisations(rng, governor, num_levels - 1)
            current = rng.integers(0, num_levels, utilisation.size)
            current[:2] = num_levels - 1
            inputs = (governor, utilisation, current, num_levels)
            yield inputs, _selected(kernel), _selected(None)
    refused = np.array([0.5, np.nan, np.inf, -np.inf])
    inputs = (governors[0], refused, np.zeros(4, dtype=np.int64), 7)
    yield inputs, _selected(kernel), _selected(None)
    # AR(1) values that land outside [lo, hi] on both sides.
    streams = (
        rng.normal(50.0, 30.0, 64), rng.normal(50.0, 10.0, 64),
        rng.uniform(0.2, 0.99, 64), rng.normal(0.0, 20.0, 64),
        np.full(64, 10.0), np.full(64, 90.0),
    )
    ar1 = in_place(lambda *arrays: kernel.fleet_ar1_advance(kernel.ar1_table(*arrays)))
    yield streams, ar1, in_place(ar1_advance)
    # Proposal tails with the half-way values (a round-half-away rint would
    # show) and values above the maximum, with and without the noise factor.
    scene = np.concatenate([[0.5, 1.5, 2.5, 3.5, 250.0, 1e4], rng.uniform(0, 400, 57)])
    counts = np.zeros(scene.size, dtype=np.int64)
    for factor in (None, np.exp(rng.normal(0.0, 0.2, scene.size))):
        inputs = (scene, 1.0, factor, 1.0, 300.0, counts)
        tail = in_place(
            lambda *arguments: kernel.fleet_proposal_tail(kernel.proposal_table(*arguments))
        )
        yield inputs, tail, in_place(proposal_tail)


def self_test(kernel: FleetKernels) -> bool:
    """Every fleet kernel against its owner's NumPy code."""
    with np.errstate(invalid="ignore", over="ignore"):
        return all(differential(*case) for case in _cases(kernel))
