"""The ``fleet`` family: the batched simulator's per-segment kernels.

Their references are ``DeviceFleet._execute_numpy``
(``fleet_device_execute``), ``BatchedExecutionModel._execute_numpy``
(``fleet_segment_model``), :func:`repro.workload.fleet.ar1_advance` and
:func:`repro.detection.fleet.proposal_tail`.
"""

from __future__ import annotations

import ctypes
import dataclasses

import numpy as np

from repro.kernels.build import (
    DEVICE_CONSTANT_LAYOUT,
    DEVICE_LAYOUT,
    SEGMENT_CONSTANTS,
    SEGMENT_SLOTS,
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
        self._segment_model = function(lib, "fleet_segment_model", long, pointer, pointer)
        self._ar1 = function(lib, "fleet_ar1_advance", None, long, *[pointer] * 6)
        self._proposal_tail = function(
            lib, "fleet_proposal_tail", None, long, pointer, double, long, pointer,
            double, double, pointer,
        )

    def device_table(self, arguments: dict) -> ArgumentTable:
        """The table of :meth:`fleet_device_execute` for one fleet: every
        ``DEVICE_LAYOUT`` and ``DEVICE_CONSTANT_LAYOUT`` name mapped."""
        return ArgumentTable(DEVICE_LAYOUT, DEVICE_CONSTANT_LAYOUT, arguments)

    def fleet_device_execute(self, table: ArgumentTable) -> None:
        """Run one segment of a device fleet through its argument table."""
        _obs.kernel_call("fleet_device_execute")
        self._device_execute(table.values_address, table.constants_address)

    def segment_table(self, arguments: dict) -> ArgumentTable:
        """The argument table of :meth:`fleet_segment_model` for one size."""
        return ArgumentTable(SEGMENT_SLOTS, SEGMENT_CONSTANTS, arguments)

    def fleet_segment_model(self, table: ArgumentTable) -> bool:
        """Latency and utilisation into the table's output buffers; ``False``,
        with nothing written, if a frequency is <= 0."""
        _obs.kernel_call("fleet_segment_model")
        return self._segment_model(table.values_address, table.constants_address) == 0

    def fleet_ar1_advance(self, current, mean, corr, innovations, minimum, maximum) -> None:
        """One clipped AR(1) step over per-session streams, ``current`` in place."""
        _obs.kernel_call("fleet_ar1_advance")
        arrays = (current, mean, corr, innovations, minimum, maximum)
        self._ar1(current.size, *[a.ctypes.data for a in arrays])

    def fleet_proposal_tail(
        self, scene_candidates, keep_ratio, factor, min_proposals, max_proposals, out
    ) -> None:
        """rint/clip tail of the batched proposal draw into int64 ``out``."""
        _obs.kernel_call("fleet_proposal_tail")
        self._proposal_tail(
            scene_candidates.size, scene_candidates.ctypes.data, keep_ratio,
            0 if factor is None else 1,
            0 if factor is None else factor.ctypes.data,
            min_proposals, max_proposals, out.ctypes.data,
        )


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


def self_test(kernel: FleetKernels) -> bool:
    """Every fleet kernel against its owner's NumPy code."""
    from repro.detection.fleet import BatchedExecutionModel, proposal_tail
    from repro.detection.latency import compute_profile_for
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
    cases = [((_device_fleet(rng), segments), _executed(kernel), _executed(None))]
    # The segment model's idle branch (zero work, zero launch overhead), NaN
    # and inf costs, then a zero frequency, which both sides must refuse.
    profile = compute_profile_for("jetson-orin-nano")
    profile = dataclasses.replace(profile, launch_overhead_ms=0.0)
    work, frequencies = rng.uniform(0.0, 5e4, (2, 29)), rng.uniform(1e5, 2e6, (2, 29))
    work[:, :4] = 0.0
    work[0, 4], work[1, 5], work[0, 6] = np.nan, np.nan, np.inf
    refused = frequencies.copy()
    refused[1, 14] = 0.0
    for f in (frequencies, refused):
        inputs = (lambda: BatchedExecutionModel(profile), [(*work, *f)])
        cases.append((inputs, _executed(kernel), _executed(None)))
    # AR(1) values that land outside [lo, hi] on both sides.
    streams = (
        rng.normal(50.0, 30.0, 64), rng.normal(50.0, 10.0, 64),
        rng.uniform(0.2, 0.99, 64), rng.normal(0.0, 20.0, 64),
        np.full(64, 10.0), np.full(64, 90.0),
    )
    cases.append((streams, in_place(kernel.fleet_ar1_advance), in_place(ar1_advance)))
    # Proposal tails with the half-way values (a round-half-away rint would
    # show) and values above the maximum, with and without the noise factor.
    scene = np.concatenate([[0.5, 1.5, 2.5, 3.5, 250.0, 1e4], rng.uniform(0, 400, 57)])
    counts = np.zeros(scene.size, dtype=np.int64)
    for factor in (None, np.exp(rng.normal(0.0, 0.2, scene.size))):
        inputs = (scene, 1.0, factor, 1.0, 300.0, counts)
        tails = in_place(kernel.fleet_proposal_tail), in_place(proposal_tail)
        cases.append((inputs, *tails))
    with np.errstate(invalid="ignore", over="ignore"):
        return all(differential(*case) for case in cases)
