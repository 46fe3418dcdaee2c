"""Batched device kernels: one struct-of-arrays fleet of identical devices.

:class:`DeviceFleet` advances N independent copies of one
:class:`~repro.hardware.device.EdgeDevice` in lock-step, replacing N Python
object graphs (thermal dicts, throttler objects, per-call dataclasses) with
a handful of NumPy arrays and vectorized kernels:

* RC thermal integration with per-session sub-stepping (sessions whose
  segment already finished take zero-length sub-steps, so one array loop
  integrates segments of different durations),
* the dynamic + leakage power model,
* trip-point throttling with hysteresis, and
* requested-level bookkeeping with throttle caps re-applied after every
  segment.

Every kernel performs the *same floating-point operations in the same
order* as the scalar classes, so a fleet session is bit-for-bit identical
to the equivalent scalar :class:`EdgeDevice` run — the only deliberate
subtlety is leakage power, which must use libm's ``exp`` as ``math.exp``
does (NumPy's vectorized ``exp`` differs from libm by an ULP on ~4 % of
inputs, which would break seed-for-seed trace equivalence).  The fused
``fleet_exp`` kernel calls libm's ``exp`` over the fleet in one C loop;
without it, ``math.exp`` runs per session.

All sessions share one device *description*; heterogeneous-hardware fleets
run one ``DeviceFleet`` per device group (the grouped sub-fleet path built
by :func:`repro.runtime.fleet.run_fleet_scenario`), with per-session
initial-ambient arrays so sessions inside a group may still start in
different environments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import DeviceError
from repro.hardware.device import CPU_NODE, GPU_NODE, EdgeDevice
from repro.rl.fused import fused_fleet
from repro.hardware.frequency import FrequencyTable
from repro.hardware.power import PowerModel
from repro.hardware.throttle import ThrottleConfig


def _exact_exp(exponents: np.ndarray) -> np.ndarray:
    """Elementwise ``math.exp``, matching the scalar power model bit-for-bit.

    The fused kernel calls the same libm ``exp`` in one C loop, writing
    over ``exponents``; the fallback calls ``math.exp`` per session.
    """
    kernel = fused_fleet()
    if kernel is not None:
        kernel.fleet_exp(exponents, exponents)
        return exponents
    return np.array([math.exp(value) for value in exponents.tolist()], dtype=float)


@dataclass(frozen=True)
class FleetTelemetry:
    """Per-session telemetry arrays returned after each executed segment.

    The array counterpart of
    :class:`~repro.hardware.device.DeviceTelemetry`: every attribute is a
    length-N array indexed by session.
    """

    cpu_temperature_c: np.ndarray
    gpu_temperature_c: np.ndarray
    cpu_level: np.ndarray
    gpu_level: np.ndarray
    cpu_power_w: np.ndarray
    gpu_power_w: np.ndarray
    energy_j: np.ndarray
    cpu_throttled: np.ndarray
    gpu_throttled: np.ndarray
    duration_ms: np.ndarray

    @property
    def any_throttled(self) -> np.ndarray:
        """Boolean array: whether either processor throttled, per session."""
        return self.cpu_throttled | self.gpu_throttled


class _DomainTables:
    """Frequency/voltage lookup tables and power constants for one domain."""

    def __init__(self, table: FrequencyTable, power: PowerModel):
        self.num_levels = table.num_levels
        self.max_level = table.max_level
        self.frequency_khz = np.array(table.frequencies_khz, dtype=float)
        # Squared voltages are tabulated with Python's scalar ``**`` so the
        # kernel never has to trust array ``**`` to round identically.
        self.voltage_sq_mv = np.array(
            [point.voltage_mv**2 for point in table], dtype=float
        )
        self.idle_power_w = power.idle_power_w
        self.leakage_power_w = power.leakage_power_w
        self.leakage_temp_coefficient = power.leakage_temp_coefficient
        self.leakage_reference_temp_c = power.leakage_reference_temp_c
        self.effective_capacitance = power.effective_capacitance

    def power_w(
        self, levels: np.ndarray, utilisation: np.ndarray, temperature_c: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`PowerModel.total_power_w` over the fleet."""
        utilisation = np.minimum(np.maximum(utilisation, 0.0), 1.0)
        dynamic = (
            self.effective_capacitance
            * self.voltage_sq_mv[levels]
            * self.frequency_khz[levels]
            * utilisation
        )
        exponent = np.minimum(
            self.leakage_temp_coefficient
            * (temperature_c - self.leakage_reference_temp_c),
            4.0,
        )
        leakage = self.leakage_power_w * _exact_exp(exponent)
        return self.idle_power_w + dynamic + leakage


class _ThrottlerArrays:
    """Vectorized trip-point throttler with hysteresis for one domain."""

    def __init__(self, config: ThrottleConfig, num_sessions: int):
        self.trip_temperature_c = config.trip_temperature_c
        self.release_temperature_c = config.trip_temperature_c - config.hysteresis_c
        self.throttled_level = config.throttled_level
        self.throttled = np.zeros(num_sessions, dtype=bool)
        self.engage_count = np.zeros(num_sessions, dtype=np.int64)

    def reset(self) -> None:
        self.throttled[:] = False
        self.engage_count[:] = 0

    def update(self, temperature_c: np.ndarray) -> np.ndarray:
        """Advance the hysteresis state machine; returns the throttled mask."""
        released = self.throttled & (temperature_c <= self.release_temperature_c)
        engaged = ~self.throttled & (temperature_c >= self.trip_temperature_c)
        self.throttled = (self.throttled & ~released) | engaged
        self.engage_count += engaged
        return self.throttled.copy()

    def cap_levels(self, requested: np.ndarray) -> np.ndarray:
        return np.where(
            self.throttled, np.minimum(requested, self.throttled_level), requested
        )


class DeviceFleet:
    """N lock-step instances of one edge device as struct-of-arrays state.

    Args:
        template: The device description all sessions share.  The template
            object itself is never mutated.
        num_sessions: Fleet size N.
        ambient_temperature_c: Initial ambient temperature — a scalar shared
            by the whole fleet, or a length-N array giving every session its
            own initial ambient (heterogeneous ambient schedules start each
            session in its own environment).  Defaults to the template's
            current ambient.
    """

    def __init__(
        self,
        template: EdgeDevice,
        num_sessions: int,
        ambient_temperature_c: float | np.ndarray | None = None,
    ):
        if num_sessions <= 0:
            raise DeviceError("a fleet needs at least one session")
        self.name = template.name
        self.num_sessions = num_sessions
        self.template = template
        self.cpu = _DomainTables(template.cpu.frequency_table, template.cpu.power_model)
        self.gpu = _DomainTables(template.gpu.frequency_table, template.gpu.power_model)

        thermal = template.thermal
        self._node_names: Tuple[str, ...] = thermal.node_names
        self._node_index = {name: i for i, name in enumerate(self._node_names)}
        self._cpu_node = self._node_index[CPU_NODE]
        self._gpu_node = self._node_index[GPU_NODE]
        self._heat_capacity = np.array(
            [node.heat_capacity_j_per_c for node in thermal.nodes], dtype=float
        )
        self._resistance = np.array(
            [node.resistance_to_ambient_c_per_w for node in thermal.nodes], dtype=float
        )
        self._initial_temperature = [
            node.initial_temperature_c for node in thermal.nodes
        ]
        # Normalized couplings in the same iteration order as the scalar
        # network's dict, so per-node accumulation sums in the same order.
        self._couplings = [
            (self._node_index[a], self._node_index[b], conductance)
            for (a, b), conductance in thermal.couplings.items()
        ]
        self.max_substep_s = thermal.max_substep_s
        # Flat coupling tables and work buffers for the fused thermal kernel
        # (kept even when the kernel is unavailable: they are tiny).
        self._coup_a = np.array([a for a, _, _ in self._couplings], dtype=np.int64)
        self._coup_b = np.array([b for _, b, _ in self._couplings], dtype=np.int64)
        self._coup_c = np.array([c for _, _, c in self._couplings], dtype=float)
        self._dt_scratch = np.empty(num_sessions)
        self._deltas_scratch = np.empty((len(self._node_names), num_sessions))
        # Rows of nodes other than CPU and GPU stay zero: no power enters there.
        self._power_scratch = np.zeros((len(self._node_names), num_sessions))
        self._remaining_scratch = np.empty(num_sessions)
        self._kernel_addresses: tuple | None = None

        self._cpu_throttler = _ThrottlerArrays(template.cpu_throttle, num_sessions)
        self._gpu_throttler = _ThrottlerArrays(template.gpu_throttle, num_sessions)
        self.cpu_throttle = template.cpu_throttle
        self.gpu_throttle = template.gpu_throttle

        ambient = (
            ambient_temperature_c
            if ambient_temperature_c is not None
            else thermal.ambient_temperature_c
        )
        self.ambient_temperature_c = np.broadcast_to(
            np.asarray(ambient, dtype=float), (num_sessions,)
        ).copy()
        self._temperatures = np.zeros((len(self._node_names), num_sessions))
        self._requested_cpu_level = np.zeros(num_sessions, dtype=np.int64)
        self._requested_gpu_level = np.zeros(num_sessions, dtype=np.int64)
        self.cpu_level = np.zeros(num_sessions, dtype=np.int64)
        self.gpu_level = np.zeros(num_sessions, dtype=np.int64)
        self.total_energy_j = np.zeros(num_sessions)
        self.elapsed_ms = np.zeros(num_sessions)
        self.reset()

    def __getstate__(self) -> dict:
        # Raw buffer addresses point into this object's arrays; a copy
        # (pickle or deepcopy) resolves its own on first use.
        state = self.__dict__.copy()
        state["_kernel_addresses"] = None
        return state

    def _thermal_args(self) -> tuple:
        """The thermal kernel's arguments before and after the ambient address.

        Every buffer here is owned by this fleet and never rebound, so its
        address is resolved once.  ``ambient_temperature_c`` is rebound by
        ``set_ambient``, ``reset`` and ``load_state_dict``, so the caller
        resolves it per call.
        """
        if self._kernel_addresses is None:
            nodes = len(self._node_names)
            self._kernel_addresses = (
                (
                    nodes, self.num_sessions, self._temperatures.ctypes.data,
                    self._power_scratch.ctypes.data,
                ),
                (
                    self._resistance.ctypes.data, self._heat_capacity.ctypes.data,
                    self._coup_a.size, self._coup_a.ctypes.data,
                    self._coup_b.ctypes.data, self._coup_c.ctypes.data,
                    self._remaining_scratch.ctypes.data, self.max_substep_s,
                    self._dt_scratch.ctypes.data, self._deltas_scratch.ctypes.data,
                ),
            )
        return self._kernel_addresses

    # -- lifecycle ----------------------------------------------------------------

    def reset(self, ambient_temperature_c: float | np.ndarray | None = None) -> None:
        """Return every session to a cold, un-throttled, max-frequency state."""
        if ambient_temperature_c is not None:
            self.ambient_temperature_c = np.broadcast_to(
                np.asarray(ambient_temperature_c, dtype=float), (self.num_sessions,)
            ).copy()
        for row, initial in enumerate(self._initial_temperature):
            self._temperatures[row] = (
                initial if initial is not None else self.ambient_temperature_c
            )
        self._cpu_throttler.reset()
        self._gpu_throttler.reset()
        self._requested_cpu_level[:] = self.cpu.max_level
        self._requested_gpu_level[:] = self.gpu.max_level
        self.cpu_level[:] = self.cpu.max_level
        self.gpu_level[:] = self.gpu.max_level
        self.total_energy_j[:] = 0.0
        self.elapsed_ms[:] = 0.0

    # -- observation ---------------------------------------------------------------

    @property
    def cpu_temperature_c(self) -> np.ndarray:
        """Per-session CPU die temperatures (a live view)."""
        return self._temperatures[self._cpu_node]

    @property
    def gpu_temperature_c(self) -> np.ndarray:
        """Per-session GPU die temperatures (a live view)."""
        return self._temperatures[self._gpu_node]

    @property
    def cpu_frequency_khz(self) -> np.ndarray:
        """Effective per-session CPU frequencies."""
        return self.cpu.frequency_khz[self.cpu_level]

    @property
    def gpu_frequency_khz(self) -> np.ndarray:
        """Effective per-session GPU frequencies."""
        return self.gpu.frequency_khz[self.gpu_level]

    @property
    def cpu_throttled(self) -> np.ndarray:
        """Boolean mask of sessions whose CPU cap is engaged."""
        return self._cpu_throttler.throttled

    @property
    def gpu_throttled(self) -> np.ndarray:
        """Boolean mask of sessions whose GPU cap is engaged."""
        return self._gpu_throttler.throttled

    @property
    def throttle_engage_count(self) -> np.ndarray:
        """Per-session total throttle events on either processor."""
        return self._cpu_throttler.engage_count + self._gpu_throttler.engage_count

    def set_ambient(self, ambient_temperature_c: float | np.ndarray) -> None:
        """Change the ambient temperature (scalar broadcasts to the fleet)."""
        self.ambient_temperature_c = np.broadcast_to(
            np.asarray(ambient_temperature_c, dtype=float), (self.num_sessions,)
        ).copy()

    # -- checkpointing --------------------------------------------------------------

    def state_dict(self) -> dict:
        """Complete snapshot of the fleet's mutable physical state.

        Captures everything :meth:`execute` reads or mutates — node
        temperatures, throttler hysteresis and engage counts, requested
        and effective levels, energy and elapsed time — so that
        save → load → continue is bit-identical to an uninterrupted run
        at any frame boundary.  Configuration (device model, tables,
        coupling) is not captured; the restoring fleet must be built from
        the same device template with the same session count.
        """
        return {
            "num_sessions": int(self.num_sessions),
            "ambient_temperature_c": self.ambient_temperature_c.copy(),
            "temperatures": self._temperatures.copy(),
            "cpu_throttled": self._cpu_throttler.throttled.copy(),
            "cpu_engage_count": self._cpu_throttler.engage_count.copy(),
            "gpu_throttled": self._gpu_throttler.throttled.copy(),
            "gpu_engage_count": self._gpu_throttler.engage_count.copy(),
            "requested_cpu_level": self._requested_cpu_level.copy(),
            "requested_gpu_level": self._requested_gpu_level.copy(),
            "cpu_level": self.cpu_level.copy(),
            "gpu_level": self.gpu_level.copy(),
            "total_energy_j": self.total_energy_j.copy(),
            "elapsed_ms": self.elapsed_ms.copy(),
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this fleet in place."""
        if int(payload["num_sessions"]) != self.num_sessions:
            raise DeviceError(
                f"snapshot was captured from a {payload['num_sessions']}-session "
                f"fleet but this fleet drives {self.num_sessions} sessions"
            )
        self.ambient_temperature_c = np.array(payload["ambient_temperature_c"], dtype=float)
        self._temperatures[:] = payload["temperatures"]
        self._cpu_throttler.throttled[:] = payload["cpu_throttled"]
        self._cpu_throttler.engage_count[:] = payload["cpu_engage_count"]
        self._gpu_throttler.throttled[:] = payload["gpu_throttled"]
        self._gpu_throttler.engage_count[:] = payload["gpu_engage_count"]
        self._requested_cpu_level[:] = payload["requested_cpu_level"]
        self._requested_gpu_level[:] = payload["requested_gpu_level"]
        self.cpu_level[:] = payload["cpu_level"]
        self.gpu_level[:] = payload["gpu_level"]
        self.total_energy_j[:] = payload["total_energy_j"]
        self.elapsed_ms[:] = payload["elapsed_ms"]

    # -- control --------------------------------------------------------------------

    def request_levels(
        self,
        cpu_levels: int | np.ndarray,
        gpu_levels: int | np.ndarray,
        mask: np.ndarray | None = None,
    ) -> None:
        """Request frequency levels; ``mask`` limits which sessions change."""
        cpu_levels = np.broadcast_to(
            np.asarray(cpu_levels, dtype=np.int64), (self.num_sessions,)
        )
        gpu_levels = np.broadcast_to(
            np.asarray(gpu_levels, dtype=np.int64), (self.num_sessions,)
        )
        if mask is None:
            check_cpu, check_gpu = cpu_levels, gpu_levels
        else:
            check_cpu, check_gpu = cpu_levels[mask], gpu_levels[mask]
        if check_cpu.size and (
            check_cpu.min() < 0 or check_cpu.max() >= self.cpu.num_levels
        ):
            raise DeviceError(
                f"cpu level out of range [0, {self.cpu.num_levels - 1}]"
            )
        if check_gpu.size and (
            check_gpu.min() < 0 or check_gpu.max() >= self.gpu.num_levels
        ):
            raise DeviceError(
                f"gpu level out of range [0, {self.gpu.num_levels - 1}]"
            )
        if mask is None:
            self._requested_cpu_level = cpu_levels.copy()
            self._requested_gpu_level = gpu_levels.copy()
        else:
            self._requested_cpu_level = np.where(
                mask, cpu_levels, self._requested_cpu_level
            )
            self._requested_gpu_level = np.where(
                mask, gpu_levels, self._requested_gpu_level
            )
        self._apply_caps()

    def _apply_caps(self) -> None:
        self.cpu_level = self._cpu_throttler.cap_levels(self._requested_cpu_level)
        self.gpu_level = self._gpu_throttler.cap_levels(self._requested_gpu_level)

    # -- execution --------------------------------------------------------------------

    def advance_thermal(
        self, duration_ms: np.ndarray, cpu_power_w: np.ndarray, gpu_power_w: np.ndarray
    ) -> None:
        """Advance the RC network with per-session durations and powers.

        The scalar network splits a segment into ``min(max_substep_s,
        remaining)`` sub-steps; here each session keeps its own remaining
        time, and sessions that finish early take zero-length sub-steps
        (``T += 0.0``) until the longest-running session completes — the
        sequence of non-zero sub-steps per session is exactly the scalar
        sequence.
        """
        if np.any(duration_ms < 0):
            raise DeviceError("durations must be non-negative")
        power = self._power_scratch
        power[self._cpu_node] = cpu_power_w
        power[self._gpu_node] = gpu_power_w
        remaining = np.divide(duration_ms, 1e3, out=self._remaining_scratch)
        kernel = fused_fleet()
        if kernel is not None:
            before, after = self._thermal_args()
            kernel.fleet_thermal_advance_raw(
                *before, self.ambient_temperature_c.ctypes.data, *after
            )
            return
        temps = self._temperatures
        while True:
            active = remaining > 1e-12
            if not active.any():
                break
            dt = np.where(active, np.minimum(self.max_substep_s, remaining), 0.0)
            deltas = np.empty_like(temps)
            for row in range(temps.shape[0]):
                to_ambient = (
                    temps[row] - self.ambient_temperature_c
                ) / self._resistance[row]
                coupled = np.zeros(self.num_sessions)
                for node_a, node_b, conductance in self._couplings:
                    if row == node_a:
                        coupled = coupled + conductance * (temps[row] - temps[node_b])
                    elif row == node_b:
                        coupled = coupled + conductance * (temps[row] - temps[node_a])
                net_flow_w = power[row] - to_ambient - coupled
                deltas[row] = net_flow_w / self._heat_capacity[row] * dt
            temps += deltas
            remaining = remaining - dt

    def execute(
        self,
        duration_ms: np.ndarray,
        cpu_utilisation: float | np.ndarray,
        gpu_utilisation: float | np.ndarray,
    ) -> FleetTelemetry:
        """Run every session for its own ``duration_ms`` at current levels.

        The vectorized counterpart of :meth:`EdgeDevice.execute`: powers are
        computed at pre-segment temperatures, the thermal network advances,
        throttlers re-evaluate and the (possibly capped) levels are
        re-applied.
        """
        duration_ms = np.broadcast_to(
            np.asarray(duration_ms, dtype=float), (self.num_sessions,)
        )
        if np.any(duration_ms < 0):
            raise DeviceError("durations must be non-negative")
        cpu_utilisation = np.broadcast_to(
            np.asarray(cpu_utilisation, dtype=float), (self.num_sessions,)
        )
        gpu_utilisation = np.broadcast_to(
            np.asarray(gpu_utilisation, dtype=float), (self.num_sessions,)
        )
        cpu_power = self.cpu.power_w(
            self.cpu_level, cpu_utilisation, self.cpu_temperature_c
        )
        gpu_power = self.gpu.power_w(
            self.gpu_level, gpu_utilisation, self.gpu_temperature_c
        )
        self.advance_thermal(duration_ms, cpu_power, gpu_power)

        cpu_throttled = self._cpu_throttler.update(self.cpu_temperature_c)
        gpu_throttled = self._gpu_throttler.update(self.gpu_temperature_c)
        self._apply_caps()

        energy = (cpu_power + gpu_power) * (duration_ms / 1e3)
        self.total_energy_j += energy
        self.elapsed_ms += duration_ms
        return FleetTelemetry(
            cpu_temperature_c=self.cpu_temperature_c.copy(),
            gpu_temperature_c=self.gpu_temperature_c.copy(),
            cpu_level=self.cpu_level.copy(),
            gpu_level=self.gpu_level.copy(),
            cpu_power_w=cpu_power,
            gpu_power_w=gpu_power,
            energy_j=energy,
            cpu_throttled=cpu_throttled,
            gpu_throttled=gpu_throttled,
            duration_ms=duration_ms.copy(),
        )

    def idle(self, duration_ms: np.ndarray) -> FleetTelemetry:
        """Let the fleet sit near-idle, mirroring :meth:`EdgeDevice.idle`."""
        return self.execute(duration_ms, cpu_utilisation=0.02, gpu_utilisation=0.0)

    # -- misc -------------------------------------------------------------------------

    def session_temperatures(self, session: int) -> dict:
        """Node temperatures of one session keyed by node name (debugging)."""
        return {
            name: float(self._temperatures[row, session])
            for name, row in self._node_index.items()
        }


def fleet_from_sessions(devices: Sequence[EdgeDevice]) -> DeviceFleet:
    """Build a fleet from N identically configured scalar devices.

    Convenience for tests: the first device acts as the template; all
    devices must share its name (the registry guarantees identical
    configuration for equal names).
    """
    if not devices:
        raise DeviceError("need at least one device")
    names = {device.name for device in devices}
    if len(names) != 1:
        raise DeviceError(f"fleet sessions must share one device model, got {names}")
    return DeviceFleet(devices[0], len(devices))
