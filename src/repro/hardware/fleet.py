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
inputs, which would break seed-for-seed trace equivalence).

With the ``fleet`` kernels (:mod:`repro.kernels`), :meth:`DeviceFleet.execute`
is one C call, ``fleet_device_execute``: power (with libm's ``exp``), RC
sub-stepping, throttling, caps and energy in the operand order of
``DeviceFleet._execute_numpy``, which is the kernel's reference and the
``REPRO_FUSED=0`` path.  :meth:`DeviceFleet.request_levels` is one call
too, ``fleet_request_levels`` (range check, masked write and caps; its
reference is ``DeviceFleet._request_numpy``), and the fleet environment's
phase kernels run ``fleet_device_execute`` on the fleet's buffers inside
each detector stage and idle gap.  The kernels read a per-fleet *argument
table* (:class:`~repro.kernels.ArgumentTable`) holding the addresses of
the fleet's state arrays, resolved once per fleet and dropped on pickle
or ``deepcopy``.  That is why the fleet's state is written **in place** on
both paths — ``set_ambient``, ``reset``, ``load_state_dict``,
``request_levels``, throttle updates and caps never rebind an array — and
why per-call inputs are copied into the fleet's own buffers and every
array :meth:`DeviceFleet.execute` returns is a fresh copy.  The live
attributes (``ambient_temperature_c``, ``cpu_level``, ``cpu_throttled``,
the temperature properties, ...) change under the caller after the next
call; copy what you keep.  Without the library, ``math.exp`` runs per
session and the rest runs as NumPy array operations on the same buffers.

All sessions share one device *description*; heterogeneous-hardware fleets
run one ``DeviceFleet`` per device group (the grouped sub-fleet path built
by :func:`repro.runtime.fleet.run_fleet_scenario`), with per-session
initial-ambient arrays so sessions inside a group may still start in
different environments.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import DeviceError
from repro.hardware.device import CPU_NODE, GPU_NODE, EdgeDevice
from repro.kernels import ArgumentTable, fused_fleet
from repro.hardware.frequency import FrequencyTable
from repro.hardware.power import PowerModel
from repro.hardware.throttle import ThrottleConfig


#: The utilisations of an idle gap (:meth:`DeviceFleet.idle`, as
#: :meth:`EdgeDevice.idle <repro.hardware.device.EdgeDevice.idle>`).
IDLE_CPU_UTILISATION = 0.02
IDLE_GPU_UTILISATION = 0.0


def _exact_exp(exponents: np.ndarray) -> np.ndarray:
    """Elementwise ``math.exp``, matching the scalar power model bit-for-bit."""
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

    def update(self, temperature_c: np.ndarray) -> None:
        """Advance the hysteresis state machine in place."""
        throttled = self.throttled
        released = throttled & (temperature_c <= self.release_temperature_c)
        engaged = ~throttled & (temperature_c >= self.trip_temperature_c)
        throttled &= ~released
        throttled |= engaged
        self.engage_count += engaged

    def cap_levels(self, requested: np.ndarray, out: np.ndarray) -> None:
        """Write ``requested`` capped by the throttle into ``out``."""
        out[:] = np.where(
            self.throttled, np.minimum(requested, self.throttled_level), requested
        )


def _check_shape(values: np.ndarray, num_sessions: int, what: str) -> None:
    if values.shape not in ((), (num_sessions,)):
        raise DeviceError(
            f"{what} must be a scalar or of shape ({num_sessions},), "
            f"got shape {values.shape}"
        )


def _out_of_range(name: str, domain: _DomainTables) -> str:
    return f"{name} level out of range [0, {domain.num_levels - 1}]"


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
        # Flat coupling tables and work buffers of the thermal step.
        self._coup_a = np.array([a for a, _, _ in self._couplings], dtype=np.int64)
        self._coup_b = np.array([b for _, b, _ in self._couplings], dtype=np.int64)
        self._coup_c = np.array([c for _, _, c in self._couplings], dtype=float)
        self._dt_scratch = np.empty(num_sessions)
        self._deltas_scratch = np.empty((len(self._node_names), num_sessions))
        # Rows of nodes other than CPU and GPU stay zero: no power enters there.
        self._power_scratch = np.zeros((len(self._node_names), num_sessions))
        self._remaining_scratch = np.empty(num_sessions)
        # Per-segment inputs are copied in and outputs copied out, so the
        # fused kernel always reads and writes the same buffers.
        self._duration_ms = np.zeros(num_sessions)
        self._cpu_utilisation = np.zeros(num_sessions)
        self._gpu_utilisation = np.zeros(num_sessions)
        self._cpu_power_w = np.zeros(num_sessions)
        self._gpu_power_w = np.zeros(num_sessions)
        self._energy_j = np.zeros(num_sessions)
        # A level request is staged here until the fused kernel accepts it.
        self._cpu_request = np.zeros(num_sessions, dtype=np.int64)
        self._gpu_request = np.zeros(num_sessions, dtype=np.int64)
        self._request_mask = np.zeros(num_sessions, dtype=bool)
        self._kernel_table: ArgumentTable | None = None

        self._cpu_throttler = _ThrottlerArrays(template.cpu_throttle, num_sessions)
        self._gpu_throttler = _ThrottlerArrays(template.gpu_throttle, num_sessions)
        self.cpu_throttle = template.cpu_throttle
        self.gpu_throttle = template.gpu_throttle

        self.ambient_temperature_c = np.zeros(num_sessions)
        self._temperatures = np.zeros((len(self._node_names), num_sessions))
        self._requested_cpu_level = np.zeros(num_sessions, dtype=np.int64)
        self._requested_gpu_level = np.zeros(num_sessions, dtype=np.int64)
        self.cpu_level = np.zeros(num_sessions, dtype=np.int64)
        self.gpu_level = np.zeros(num_sessions, dtype=np.int64)
        self.total_energy_j = np.zeros(num_sessions)
        self.elapsed_ms = np.zeros(num_sessions)
        self.reset(
            ambient_temperature_c
            if ambient_temperature_c is not None
            else thermal.ambient_temperature_c
        )

    def __getstate__(self) -> dict:
        # The kernel table holds raw addresses of this object's arrays; a
        # copy (pickle or deepcopy) builds its own on first use.
        state = self.__dict__.copy()
        state["_kernel_table"] = None
        return state

    def argument_table(self, kernel) -> ArgumentTable:
        """The fused kernels' arguments, resolved once per fleet.

        Every array here is owned by this fleet and only ever written in
        place (never rebound), so its address stays valid.  The
        environment's frame and stage tables point at this table.
        """
        if self._kernel_table is None:
            arguments = {
                "nodes": len(self._node_names),
                "sessions": self.num_sessions,
                "couplings": self._coup_a.size,
                "temperatures": self._temperatures,
                "power": self._power_scratch,
                "ambient": self.ambient_temperature_c,
                "resistance": self._resistance,
                "heat_capacity": self._heat_capacity,
                "coupling_a": self._coup_a,
                "coupling_b": self._coup_b,
                "conductance": self._coup_c,
                "remaining": self._remaining_scratch,
                "substep": self._dt_scratch,
                "deltas": self._deltas_scratch,
                "duration": self._duration_ms,
                "energy": self._energy_j,
                "total_energy": self.total_energy_j,
                "elapsed": self.elapsed_ms,
                "request_mask": self._request_mask,
                "max_substep": self.max_substep_s,
            }
            for (
                name, tables, throttler, node, request, requested, level, utilisation,
                power,
            ) in (
                (
                    "cpu", self.cpu, self._cpu_throttler, self._cpu_node,
                    self._cpu_request, self._requested_cpu_level, self.cpu_level,
                    self._cpu_utilisation, self._cpu_power_w,
                ),
                (
                    "gpu", self.gpu, self._gpu_throttler, self._gpu_node,
                    self._gpu_request, self._requested_gpu_level, self.gpu_level,
                    self._gpu_utilisation, self._gpu_power_w,
                ),
            ):
                domain = {
                    "node": node,
                    "throttled_level": throttler.throttled_level,
                    "num_levels": tables.num_levels,
                    "voltage_sq": tables.voltage_sq_mv,
                    "frequency": tables.frequency_khz,
                    "utilisation": utilisation,
                    "request": request,
                    "requested": requested,
                    "level": level,
                    "throttled": throttler.throttled,
                    "engage_count": throttler.engage_count,
                    "power": power,
                    "capacitance": tables.effective_capacitance,
                    "idle": tables.idle_power_w,
                    "leakage": tables.leakage_power_w,
                    "leakage_k": tables.leakage_temp_coefficient,
                    "leakage_ref": tables.leakage_reference_temp_c,
                    "trip": throttler.trip_temperature_c,
                    "release": throttler.release_temperature_c,
                }
                arguments.update((f"{name}_{key}", value) for key, value in domain.items())
            self._kernel_table = kernel.device_table(arguments)
        return self._kernel_table

    # -- lifecycle ----------------------------------------------------------------

    def reset(self, ambient_temperature_c: float | np.ndarray | None = None) -> None:
        """Return every session to a cold, un-throttled, max-frequency state."""
        if ambient_temperature_c is not None:
            self.ambient_temperature_c[:] = ambient_temperature_c
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
        """Change the ambient temperature (scalar broadcasts to the fleet).

        Writes ``ambient_temperature_c`` in place: the array is the fleet's
        own and keeps its identity for the fleet's lifetime.
        """
        self.ambient_temperature_c[:] = ambient_temperature_c

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
        for name, domain in (("cpu", self.cpu), ("gpu", self.gpu)):
            for key in (f"requested_{name}_level", f"{name}_level"):
                self._check_levels(np.asarray(payload[key]), domain, name)
        self.ambient_temperature_c[:] = payload["ambient_temperature_c"]
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
        """Request frequency levels; ``mask`` limits which sessions change.

        Levels are integers, each a scalar or a length-N array; ``mask`` is
        a boolean scalar or length-N array.  Only the sessions the request
        changes are checked against the level range, CPU first, and nothing
        changes unless all of them pass.  With the ``fleet`` kernels the
        range check, the masked write and both caps are one
        ``fleet_request_levels`` call on the fleet's own buffers.
        """
        self._request(fused_fleet(), cpu_levels, gpu_levels, mask)

    def _request(self, kernel, cpu_levels, gpu_levels, mask) -> None:
        """:meth:`request_levels` on the given ``fleet`` kernels, or NumPy for ``None``."""
        if (
            mask is None and kernel is not None and type(cpu_levels) is not np.ndarray
            and type(cpu_levels) is not bool and type(gpu_levels) is not bool
        ):
            # One integer per domain goes straight into the request buffers
            # (the kernel checks the range); anything else, or an integer
            # the buffers cannot hold, takes the checked path below.  CPU
            # level arrays skip the attempt: a caught TypeError costs about
            # a microsecond.
            try:
                self._cpu_request.fill(operator.index(cpu_levels))
                self._gpu_request.fill(operator.index(gpu_levels))
            except (TypeError, OverflowError):
                pass
            else:
                self._refuse(kernel.fleet_request_levels(self.argument_table(kernel), False))
                return
        n = self.num_sessions
        if mask is not None:
            mask = np.asarray(mask)
            if mask.dtype != np.bool_:
                raise DeviceError(f"the session mask must be boolean, got {mask.dtype}")
            _check_shape(mask, n, "the session mask")
        levels = []
        for values, name in ((cpu_levels, "cpu"), (gpu_levels, "gpu")):
            values = np.asarray(values)
            _check_shape(values, n, f"{name} levels")
            if values.dtype.kind not in "iu":
                raise DeviceError(f"{name} levels must be integers, got {values.dtype}")
            levels.append(values)
        if kernel is None:
            self._request_numpy(*levels, mask)
            return
        table = self.argument_table(kernel)
        self._cpu_request[:] = levels[0]
        self._gpu_request[:] = levels[1]
        if mask is not None:
            self._request_mask[:] = mask
        self._refuse(kernel.fleet_request_levels(table, mask is not None))

    def _refuse(self, refused: int) -> None:
        """Raise for ``fleet_request_levels``'s refusal code (0: accepted)."""
        if refused:
            domain = (self.cpu, self.gpu)[refused - 1]
            raise DeviceError(_out_of_range(("cpu", "gpu")[refused - 1], domain))

    def _request_numpy(self, cpu_levels, gpu_levels, mask) -> None:
        """The NumPy form of ``fleet_request_levels`` on checked requests."""
        n = self.num_sessions
        if mask is not None:
            mask = np.broadcast_to(mask, (n,))
        checked = []
        for levels, domain, name in (
            (cpu_levels, self.cpu, "cpu"), (gpu_levels, self.gpu, "gpu")
        ):
            levels = np.broadcast_to(levels, (n,))
            self._check_levels(levels if mask is None else levels[mask], domain, name)
            checked.append(levels)
        for levels, requested in zip(
            checked, (self._requested_cpu_level, self._requested_gpu_level)
        ):
            if mask is None:
                requested[:] = levels
            else:
                np.copyto(requested, levels, where=mask)
        self._apply_caps()

    @staticmethod
    def _check_levels(levels: np.ndarray, domain: _DomainTables, name: str) -> None:
        if levels.dtype.kind not in "iu":
            raise DeviceError(f"{name} levels must be integers, got {levels.dtype}")
        if levels.size and (levels.min() < 0 or levels.max() >= domain.num_levels):
            raise DeviceError(_out_of_range(name, domain))

    def _apply_caps(self) -> None:
        self._cpu_throttler.cap_levels(self._requested_cpu_level, out=self.cpu_level)
        self._gpu_throttler.cap_levels(self._requested_gpu_level, out=self.gpu_level)

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
        sequence.  This is the NumPy form of the thermal step that the
        fused ``fleet_device_execute`` runs in C.
        """
        if np.any(duration_ms < 0):
            raise DeviceError("durations must be non-negative")
        power = self._power_scratch
        power[self._cpu_node] = cpu_power_w
        power[self._gpu_node] = gpu_power_w
        remaining = np.divide(duration_ms, 1e3, out=self._remaining_scratch)
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
        re-applied.  With the ``fleet`` kernels all of it is one
        ``fleet_device_execute`` call over the fleet's argument table.
        Every returned array is a fresh copy.
        """
        kernel = fused_fleet()
        return self._execute(kernel, duration_ms, cpu_utilisation, gpu_utilisation)

    def _execute(self, kernel, duration_ms, cpu_utilisation, gpu_utilisation):
        """:meth:`execute` on the given ``fleet`` kernels, or NumPy for ``None``."""
        duration = self._duration_ms
        duration[:] = duration_ms
        if np.any(duration < 0):
            raise DeviceError("durations must be non-negative")
        self._cpu_utilisation[:] = cpu_utilisation
        self._gpu_utilisation[:] = gpu_utilisation
        if kernel is not None:
            kernel.fleet_device_execute(self.argument_table(kernel))
        else:
            self._execute_numpy()
        return FleetTelemetry(
            cpu_temperature_c=self.cpu_temperature_c.copy(),
            gpu_temperature_c=self.gpu_temperature_c.copy(),
            cpu_level=self.cpu_level.copy(),
            gpu_level=self.gpu_level.copy(),
            cpu_power_w=self._cpu_power_w.copy(),
            gpu_power_w=self._gpu_power_w.copy(),
            energy_j=self._energy_j.copy(),
            cpu_throttled=self._cpu_throttler.throttled.copy(),
            gpu_throttled=self._gpu_throttler.throttled.copy(),
            duration_ms=duration.copy(),
        )

    def _execute_numpy(self) -> None:
        """The NumPy form of ``fleet_device_execute``, on the same buffers."""
        duration = self._duration_ms
        cpu_power = self.cpu.power_w(
            self.cpu_level, self._cpu_utilisation, self.cpu_temperature_c
        )
        gpu_power = self.gpu.power_w(
            self.gpu_level, self._gpu_utilisation, self.gpu_temperature_c
        )
        self.advance_thermal(duration, cpu_power, gpu_power)
        self._cpu_throttler.update(self.cpu_temperature_c)
        self._gpu_throttler.update(self.gpu_temperature_c)
        self._apply_caps()
        self._cpu_power_w[:] = cpu_power
        self._gpu_power_w[:] = gpu_power
        np.multiply(cpu_power + gpu_power, duration / 1e3, out=self._energy_j)
        self.total_energy_j += self._energy_j
        self.elapsed_ms += duration

    def idle(self, duration_ms: np.ndarray) -> FleetTelemetry:
        """Let the fleet sit near-idle, mirroring :meth:`EdgeDevice.idle`."""
        return self.execute(
            duration_ms,
            cpu_utilisation=IDLE_CPU_UTILISATION,
            gpu_utilisation=IDLE_GPU_UTILISATION,
        )
