"""Optional C fused kernels for the DQN, optimizer and fleet hot loops (self-verified).

The Adam update is elementwise over five same-sized buffers; in NumPy it
takes ~14 whole-array passes (each a separate ufunc call reading and
writing memory).  A single C loop does the same arithmetic in one pass.
This module compiles that loop with gcc at first use — strictly IEEE
(``-ffp-contract=off``, no fast-math), with every floating-point operation
written in the exact operand pairing and order of the NumPy sequence in
:meth:`repro.rl.optimizer.Adam.step_flat` — and loads it via ctypes.

The same library also carries the batched *fleet* kernels (see
:func:`fused_fleet`):

* ``fleet_device_execute`` — all of one executed segment of
  :meth:`~repro.hardware.fleet.DeviceFleet.execute`: both domains' power
  (dynamic + libm-``exp`` leakage), ``fleet_thermal_advance``'s RC
  sub-stepping, trip/hysteresis throttling, level caps and energy;
* ``fleet_segment_model`` — the latency/utilisation model of
  :meth:`~repro.detection.fleet.BatchedExecutionModel.execute`;
* ``fleet_ar1_advance`` — the AR(1) scene-complexity advance
  (:meth:`~repro.workload.fleet.FleetFrameStream.next_frames`);
* ``fleet_proposal_tail`` — the proposal-count rint/clip tail
  (:func:`~repro.detection.fleet.propose_batch`);
* ``fleet_normal`` — the per-session normal draws;
* ``bias_relu`` — the bias-add + ReLU of the Q forward
  (:class:`~repro.rl.slimmable.SlimmableMLP`).

Two kernels run a whole :class:`~repro.rl.dqn.DqnLearner` call:
``dqn_train_step`` one ``train_batch`` (double-DQN targets from the stacked
online/target pass, training forward, Huber loss, backward, global-norm
clip and Adam) and ``dqn_greedy`` one greedy action.  Their matrix
products call the BLAS NumPy itself loaded (see ``_BLAS_SYMBOLS``, looked
up at run time, not linked) with the arguments ``np.matmul``/``np.dot``
pass, so every product is NumPy's bit for bit.  They resolve on their
own, when the first learner asks (:func:`fused_dqn`): a NumPy on another
BLAS or a failed self-test turns off only these two.

The per-segment and DQN kernels take no per-call pointers: each reads an
:class:`ArgumentTable` (an int64 table of sizes and buffer addresses plus
a float64 table of constants) that its owner resolves once and drops on
pickle or copy.  The owner copies per-call inputs into the table's
buffers (the DQN step reads its batch's states in place) and copies
outputs out, so one ctypes call with two arguments runs a whole segment
or train step.

Each kernel is exactly reproducible in C.  ``fleet_exp`` (the leakage
term of ``fleet_device_execute``) calls libm's ``exp``, the function
``math.exp`` calls (NumPy's vectorized ``np.exp`` may differ from it by an
ULP, so it is never replaced).  ``np.maximum``/``np.minimum`` are mirrored
with NumPy's NaN and tie rules.  ``fleet_normal`` calls NumPy's own
``random_normal``, statically linked from
``numpy/random/lib/libnpyrandom.a``, on each generator's ``bitgen_t``, so
every draw and every generator state matches ``rng.normal(0.0, scale)``;
:class:`SessionGenerators` keeps the generators' pointer table.  When that
archive or its header is missing, the library is built without
``fleet_normal`` and the draws stay in NumPy.

Safety model: the kernel is used only if (a) a C compiler is available,
(b) compilation succeeds, and (c) a load-time self-test reproduces the
NumPy reference **bit for bit** on random data.  Any failure silently
falls back to the pure-NumPy path, which is always present and produces
identical results.  Set ``REPRO_FUSED=0`` to force the fallback.

The compiled library is cached in a per-user, owner-only directory
(``$XDG_CACHE_HOME/repro-fused`` or ``~/.cache/repro-fused``), keyed by a
hash of the C source, the flags, the CPU, the NumPy version and the linked
archive, so each machine compiles once per NumPy install.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from repro.obs import bus as _obs

# Argument-table layouts of the two per-segment kernels.  An
# :class:`ArgumentTable` packs named values in this order (integers and
# buffer addresses into an int64 table, constants into a float64 table),
# and the C source gets one enum per layout generated from the same names,
# so the two sides cannot disagree on a slot.  A device's processor-domain
# slots repeat once per domain, CPU first, after the device's own slots.
_DEVICE_SLOTS = (
    "nodes", "sessions", "couplings", "temperatures", "power", "ambient",
    "resistance", "heat_capacity", "coupling_a", "coupling_b",
    "conductance", "remaining", "substep", "deltas", "duration", "energy",
    "total_energy", "elapsed",
)
_DOMAIN_SLOTS = (
    "node", "throttled_level", "voltage_sq", "frequency", "utilisation",
    "requested", "level", "throttled", "engage_count", "power",
)
_DEVICE_CONSTANTS = ("max_substep",)
_DOMAIN_CONSTANTS = (
    "capacitance", "idle", "leakage", "leakage_k", "leakage_ref", "trip",
    "release",
)
_SEGMENT_SLOTS = (
    "sessions", "cpu_kilocycles", "gpu_kilocycles", "cpu_frequency",
    "gpu_frequency", "latency", "cpu_busy", "gpu_busy", "cpu_utilisation",
    "gpu_utilisation",
)
_SEGMENT_CONSTANTS = (
    "cpu_efficiency", "gpu_efficiency", "launch_overhead", "host_activity",
)
_DOMAINS = ("cpu", "gpu")


def _repeated(own: tuple, prefixes, slots: tuple) -> tuple:
    return own + tuple(f"{prefix}_{slot}" for prefix in prefixes for slot in slots)


# The DQN kernels' layouts: a learner's own slots, then one block of layer
# slots per dense layer (see :func:`_layers`).  ``half`` is the distance in
# elements from an online parameter to its target twin in the pair buffer;
# the last four slots (the states' addresses and row strides) are written
# per step.
_DQN_SLOTS = (
    "gemm", "dot", "layers", "batch", "actions", "half", "grad_size",
    "targets", "losses", "grad_outputs", "grad", "rewards", "taken",
    "states", "states_ld", "next_states", "next_states_ld",
)
_DQN_LAYER_SLOTS = (
    "inputs", "outputs", "boot_outputs", "stride", "weight", "bias", "pre",
    "act", "delta", "pair", "weight_grad", "bias_grad", "weight_m",
    "weight_v", "bias_m", "bias_v",
)
_DQN_CONSTANTS = (
    "discount", "huber_delta", "count", "max_grad_norm", "learning_rate",
    "beta1", "beta2", "epsilon", "bias_correction1", "bias_correction2",
)
_GREEDY_SLOTS = ("gemv", "layers", "state")
_GREEDY_LAYER_SLOTS = ("inputs", "outputs", "stride", "weight", "bias", "act")
_BATCH_SLOTS = slice(_DQN_SLOTS.index("states"), len(_DQN_SLOTS))
_ADAM_CONSTANTS = slice(_DQN_CONSTANTS.index("learning_rate"), len(_DQN_CONSTANTS))


def _layers(own: tuple, slots: tuple, layers: int) -> tuple:
    return _repeated(own, (f"layer{i}" for i in range(layers)), slots)


_DEVICE_LAYOUT = _repeated(_DEVICE_SLOTS, _DOMAINS, _DOMAIN_SLOTS)
_DEVICE_CONSTANT_LAYOUT = _repeated(_DEVICE_CONSTANTS, _DOMAINS, _DOMAIN_CONSTANTS)


def _c_enum(prefix: str, names: tuple) -> str:
    slots = ", ".join(f"{prefix}_{name.upper()}" for name in names)
    return f"enum {{ {slots}, {prefix}_SLOTS }};\n"


_SOURCE = "".join(
    [
        _c_enum("FD", _DEVICE_SLOTS),
        _c_enum("D", _DOMAIN_SLOTS),
        _c_enum("FC", _DEVICE_CONSTANTS),
        _c_enum("DC", _DOMAIN_CONSTANTS),
        _c_enum("SM", _SEGMENT_SLOTS),
        _c_enum("SC", _SEGMENT_CONSTANTS),
        _c_enum("Q", _DQN_SLOTS),
        _c_enum("QL", _DQN_LAYER_SLOTS),
        _c_enum("QC", _DQN_CONSTANTS),
        _c_enum("G", _GREEDY_SLOTS),
        _c_enum("GL", _GREEDY_LAYER_SLOTS),
    ]
) + r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* A buffer address read from an int64 argument table. */
#define SLOT(type, table, slot) ((type *)(intptr_t)(table)[slot])

/* np.maximum / np.minimum of two doubles, operand order as written: a NaN
   first operand propagates, and otherwise the second operand wins ties, so
   maximum(-0.0, 0.0) is +0.0 as NumPy returns it. */
static inline double np_maximum(double a, double b) {
    return (isnan(a) || a > b) ? a : b;
}
static inline double np_minimum(double a, double b) {
    return (isnan(a) || a < b) ? a : b;
}

/* One fused Adam step over contiguous buffers.

   Per element, the operation pairings mirror the NumPy sequence exactly:
     m = (m * beta1) + (omb1 * g)
     v = (v * beta2) + (omb2 * (g * g))
     p -= (lr * (m / bc1)) / (sqrt(v / bc2) + eps)
   Compiled with -ffp-contract=off so no multiply-add contraction changes
   the rounding. */
void adam_step_flat(long n, double *p, const double *g, double *m, double *v,
                    double lr, double beta1, double beta2, double eps,
                    double bc1, double bc2) {
    double omb1 = 1.0 - beta1;
    double omb2 = 1.0 - beta2;
    for (long i = 0; i < n; i++) {
        double gi = g[i];
        double mi = (m[i] * beta1) + (omb1 * gi);
        double vi = (v[i] * beta2) + (omb2 * (gi * gi));
        m[i] = mi;
        v[i] = vi;
        p[i] -= (lr * (mi / bc1)) / (sqrt(vi / bc2) + eps);
    }
}

/* The same update over the active rectangle of a row-strided parameter:
   p/m/v address (rows x cols) blocks with a row stride (in elements),
   g is contiguous (rows x cols). */
void adam_step_region(long rows, long cols, long stride,
                      double *p, const double *g, double *m, double *v,
                      double lr, double beta1, double beta2, double eps,
                      double bc1, double bc2) {
    double omb1 = 1.0 - beta1;
    double omb2 = 1.0 - beta2;
    for (long r = 0; r < rows; r++) {
        double *pr = p + r * stride;
        double *mr = m + r * stride;
        double *vr = v + r * stride;
        const double *gr = g + r * cols;
        for (long c = 0; c < cols; c++) {
            double gi = gr[c];
            double mi = (mr[c] * beta1) + (omb1 * gi);
            double vi = (vr[c] * beta2) + (omb2 * (gi * gi));
            mr[c] = mi;
            vr[c] = vi;
            pr[c] -= (lr * (mi / bc1)) / (sqrt(vi / bc2) + eps);
        }
    }
}

/* A whole sliced optimizer step in one call: k row-strided regions
   (one per parameter array), pointer tables prepared once by the caller. */
void adam_step_multi(long k, const long *rows, const long *cols,
                     const long *strides, double **ps, double **gs,
                     double **ms, double **vs,
                     double lr, double beta1, double beta2, double eps,
                     double bc1, double bc2) {
    for (long i = 0; i < k; i++) {
        adam_step_region(rows[i], cols[i], strides[i], ps[i], gs[i],
                         ms[i], vs[i], lr, beta1, beta2, eps, bc1, bc2);
    }
}

/* ---- batched fleet kernels --------------------------------------------- */

/* RC thermal sub-stepping over a (nodes x n) fleet temperature matrix,
   mirroring DeviceFleet.advance_thermal exactly:

     while any(remaining > 1e-12):
         dt      = active ? min(max_substep, remaining) : 0      per session
         deltas  = ((power - (T - ambient)/R) - coupled) / C * dt
                   -- ALL rows from pre-step temps (two-pass via scratch)
         T      += deltas;  remaining -= dt

   Couplings are visited in list order per row (first as node_a, then as
   node_b), accumulating `coupled = coupled + c * (T_row - T_other)` in the
   same addition order as the NumPy loop.  Sessions that finish early take
   zero-length sub-steps until the longest-running session completes. */
void fleet_thermal_advance(long nodes, long n, double *temps,
                           const double *power, const double *ambient,
                           const double *resistance,
                           const double *heat_capacity,
                           long ncoup, const long *ca, const long *cb,
                           const double *cc, double *remaining,
                           double max_substep, double *dt, double *deltas) {
    for (;;) {
        int any_active = 0;
        for (long j = 0; j < n; j++) {
            double rem = remaining[j];
            if (rem > 1e-12) {
                any_active = 1;
                dt[j] = max_substep < rem ? max_substep : rem;
            } else {
                dt[j] = 0.0;
            }
        }
        if (!any_active) break;
        for (long r = 0; r < nodes; r++) {
            const double *tr = temps + r * n;
            const double *pr = power + r * n;
            double *dr = deltas + r * n;
            double res = resistance[r];
            double hc = heat_capacity[r];
            for (long j = 0; j < n; j++) {
                double to_ambient = (tr[j] - ambient[j]) / res;
                double coupled = 0.0;
                for (long k = 0; k < ncoup; k++) {
                    if (ca[k] == r) {
                        coupled = coupled + cc[k] * (tr[j] - temps[cb[k] * n + j]);
                    } else if (cb[k] == r) {
                        coupled = coupled + cc[k] * (tr[j] - temps[ca[k] * n + j]);
                    }
                }
                double net_flow = (pr[j] - to_ambient) - coupled;
                dr[j] = (net_flow / hc) * dt[j];
            }
        }
        for (long i = 0; i < nodes * n; i++) {
            temps[i] += deltas[i];
        }
        for (long j = 0; j < n; j++) {
            remaining[j] -= dt[j];
        }
    }
}

/* One AR(1) step per session, in place:
     v = (mean + corr * (current - mean)) + innovation; clip to [lo, hi]
   Clip as minimum(maximum(v, lo), hi) with NumPy's `in1 >= in2 ? in1 : in2`
   tie handling. */
void fleet_ar1_advance(long n, double *current, const double *mean,
                       const double *corr, const double *innov,
                       const double *lo, const double *hi) {
    for (long i = 0; i < n; i++) {
        double v = (mean[i] + corr[i] * (current[i] - mean[i])) + innov[i];
        v = v >= lo[i] ? v : lo[i];   /* maximum(v, lo) */
        v = v <= hi[i] ? v : hi[i];   /* minimum(., hi) */
        current[i] = v;
    }
}

/* Leakage exp: out[i] = exp(x[i]) with libm's exp, the very function
   Python's math.exp calls, so the result matches math.exp bit for bit.
   `out` may alias `x`. */
void fleet_exp(long n, const double *x, double *out) {
    for (long i = 0; i < n; i++) {
        out[i] = exp(x[i]);
    }
}

/* Proposal-count tail: expected = scene * keep_ratio [* noise_factor],
   counts = clip(rint(expected), min_p, max_p) as int64.  The noise factor
   (np.exp of the per-session draws) is computed by NumPy and passed in; C
   rint() under the default rounding mode is round-half-to-even, exactly
   np.rint.  The final cast is exact: the clipped value is integral. */
void fleet_proposal_tail(long n, const double *scene, double keep_ratio,
                         long has_factor, const double *factor,
                         double min_p, double max_p, long long *out) {
    for (long i = 0; i < n; i++) {
        double e = scene[i] * keep_ratio;
        if (has_factor) e = e * factor[i];
        double r = rint(e);
        r = r >= min_p ? r : min_p;
        r = r <= max_p ? r : max_p;
        out[i] = (long long)r;
    }
}

/* Fused bias add + ReLU for one layer of the Q forward:
     z[i][j] += b[j];  act[i][j] = maximum(z[i][j], 0.0)
   `act` may alias `z` (the inference path reuses the matmul output), and
   is NULL for the output layer (bias add only).  The ReLU is np_maximum,
   so a NaN propagates and a -0.0 pre-activation becomes +0.0, as in
   NumPy. */
void bias_relu(long rows, long cols, double *z, const double *b,
               double *act) {
    for (long r = 0; r < rows; r++) {
        double *zr = z + r * cols;
        for (long c = 0; c < cols; c++) {
            double zv = zr[c] + b[c];
            zr[c] = zv;
            if (act) act[r * cols + c] = np_maximum(zv, 0.0);
        }
    }
}

/* ---- one executed segment per call -------------------------------------- */

/* Power of one processor domain at pre-segment temperatures, mirroring
   _DomainTables.power_w:
     u = minimum(maximum(u, 0.0), 1.0)
     P = (idle + ((capacitance * V^2[level]) * f[level]) * u)
         + leakage * exp(minimum(k * (T - ref), 4.0))
   with fleet_exp (libm's exp, as math.exp) run over the exponents in the
   power buffer.  P goes to the domain's power buffer and to its node's row
   of the thermal power matrix. */
static void domain_power(long n, const long long *d, const double *c,
                         const double *temps, double *power_rows) {
    const double *voltage_sq = SLOT(const double, d, D_VOLTAGE_SQ);
    const double *frequency = SLOT(const double, d, D_FREQUENCY);
    const double *utilisation = SLOT(const double, d, D_UTILISATION);
    const long long *level = SLOT(const long long, d, D_LEVEL);
    double *power = SLOT(double, d, D_POWER);
    const double *t = temps + d[D_NODE] * n;
    double *row = power_rows + d[D_NODE] * n;
    for (long j = 0; j < n; j++) {
        power[j] = np_minimum(c[DC_LEAKAGE_K] * (t[j] - c[DC_LEAKAGE_REF]), 4.0);
    }
    fleet_exp(n, power, power);
    for (long j = 0; j < n; j++) {
        double u = np_minimum(np_maximum(utilisation[j], 0.0), 1.0);
        long long l = level[j];
        double dynamic = ((c[DC_CAPACITANCE] * voltage_sq[l]) * frequency[l]) * u;
        double p = (c[DC_IDLE] + dynamic) + c[DC_LEAKAGE] * power[j];
        power[j] = p;
        row[j] = p;
    }
}

/* Trip/hysteresis update and level cap of one domain, mirroring
   _ThrottlerArrays.update and cap_levels:
     released  = throttled & (T <= release)
     engaged   = ~throttled & (T >= trip)
     throttled = (throttled & ~released) | engaged;  engage_count += engaged
     level     = throttled ? minimum(requested, throttled_level) : requested */
static void domain_throttle(long n, const long long *d, const double *c,
                            const double *temps) {
    unsigned char *throttled = SLOT(unsigned char, d, D_THROTTLED);
    long long *engage_count = SLOT(long long, d, D_ENGAGE_COUNT);
    const long long *requested = SLOT(const long long, d, D_REQUESTED);
    long long *level = SLOT(long long, d, D_LEVEL);
    long long cap = d[D_THROTTLED_LEVEL];
    const double *t = temps + d[D_NODE] * n;
    for (long j = 0; j < n; j++) {
        int was = throttled[j];
        int released = was && t[j] <= c[DC_RELEASE];
        int engaged = !was && t[j] >= c[DC_TRIP];
        int now = (was && !released) || engaged;
        throttled[j] = (unsigned char)now;
        engage_count[j] += engaged;
        long long r = requested[j];
        level[j] = (now && cap < r) ? cap : r;
    }
}

/* All of DeviceFleet.execute for one segment, in its operand order: both
   domains' power at pre-segment temperatures, remaining = duration / 1e3,
   the RC sub-stepping of fleet_thermal_advance, both throttlers and caps,
   then energy = (P_cpu + P_gpu) * (duration / 1e3) accumulated into
   total_energy, and duration into elapsed.  `t` is the fleet's int64
   argument table (FD_* slots, then the CPU's and the GPU's D_* slots) and
   `c` its float64 constant table (FC_*, then DC_* per domain).  Every
   buffer is the fleet's own, resolved once; per-call inputs (duration,
   utilisations) are copied into them by the caller. */
void fleet_device_execute(const long long *t, const double *c) {
    long n = t[FD_SESSIONS];
    const long long *cpu = t + FD_SLOTS;
    const long long *gpu = t + FD_SLOTS + D_SLOTS;
    const double *cpu_c = c + FC_SLOTS;
    const double *gpu_c = c + FC_SLOTS + DC_SLOTS;
    double *temps = SLOT(double, t, FD_TEMPERATURES);
    double *power_rows = SLOT(double, t, FD_POWER);
    const double *duration = SLOT(const double, t, FD_DURATION);
    double *remaining = SLOT(double, t, FD_REMAINING);
    domain_power(n, cpu, cpu_c, temps, power_rows);
    domain_power(n, gpu, gpu_c, temps, power_rows);
    for (long j = 0; j < n; j++) {
        remaining[j] = duration[j] / 1e3;
    }
    fleet_thermal_advance(
        t[FD_NODES], n, temps, power_rows, SLOT(const double, t, FD_AMBIENT),
        SLOT(const double, t, FD_RESISTANCE),
        SLOT(const double, t, FD_HEAT_CAPACITY), t[FD_COUPLINGS],
        SLOT(const long, t, FD_COUPLING_A), SLOT(const long, t, FD_COUPLING_B),
        SLOT(const double, t, FD_CONDUCTANCE), remaining, c[FC_MAX_SUBSTEP],
        SLOT(double, t, FD_SUBSTEP), SLOT(double, t, FD_DELTAS));
    domain_throttle(n, cpu, cpu_c, temps);
    domain_throttle(n, gpu, gpu_c, temps);
    const double *cpu_power = SLOT(const double, cpu, D_POWER);
    const double *gpu_power = SLOT(const double, gpu, D_POWER);
    double *energy = SLOT(double, t, FD_ENERGY);
    double *total_energy = SLOT(double, t, FD_TOTAL_ENERGY);
    double *elapsed = SLOT(double, t, FD_ELAPSED);
    for (long j = 0; j < n; j++) {
        double e = (cpu_power[j] + gpu_power[j]) * (duration[j] / 1e3);
        energy[j] = e;
        total_energy[j] += e;
        elapsed[j] += duration[j];
    }
}

/* BatchedExecutionModel.execute over the SM_* buffers of `t`, with the
   SC_* constants of `c`:
     cpu_ms  = cpu_kc / (cpu_f * cpu_eff);  gpu_ms = gpu_kc / (gpu_f * gpu_eff)
     latency = (cpu_ms + gpu_ms) + launch_overhead
   and, where latency > 0 (else every output is 0.0, NaN latency included),
     cpu_util = minimum(1.0, (cpu_ms + host_activity * gpu_ms) / latency)
     gpu_util = minimum(1.0, gpu_ms / latency)
   Returns 1, before writing anything, when a frequency is <= 0. */
long fleet_segment_model(const long long *t, const double *c) {
    long n = t[SM_SESSIONS];
    const double *cpu_kc = SLOT(const double, t, SM_CPU_KILOCYCLES);
    const double *gpu_kc = SLOT(const double, t, SM_GPU_KILOCYCLES);
    const double *cpu_f = SLOT(const double, t, SM_CPU_FREQUENCY);
    const double *gpu_f = SLOT(const double, t, SM_GPU_FREQUENCY);
    double *latency = SLOT(double, t, SM_LATENCY);
    double *cpu_busy = SLOT(double, t, SM_CPU_BUSY);
    double *gpu_busy = SLOT(double, t, SM_GPU_BUSY);
    double *cpu_util = SLOT(double, t, SM_CPU_UTILISATION);
    double *gpu_util = SLOT(double, t, SM_GPU_UTILISATION);
    for (long j = 0; j < n; j++) {
        if (cpu_f[j] <= 0.0 || gpu_f[j] <= 0.0) return 1;
    }
    for (long j = 0; j < n; j++) {
        double cpu_ms = cpu_kc[j] / (cpu_f[j] * c[SC_CPU_EFFICIENCY]);
        double gpu_ms = gpu_kc[j] / (gpu_f[j] * c[SC_GPU_EFFICIENCY]);
        double l = (cpu_ms + gpu_ms) + c[SC_LAUNCH_OVERHEAD];
        if (l > 0.0) {
            double busy = cpu_ms + c[SC_HOST_ACTIVITY] * gpu_ms;
            latency[j] = l;
            cpu_busy[j] = cpu_ms;
            gpu_busy[j] = gpu_ms;
            cpu_util[j] = np_minimum(1.0, busy / l);
            gpu_util[j] = np_minimum(1.0, gpu_ms / l);
        } else {
            latency[j] = 0.0;
            cpu_busy[j] = 0.0;
            gpu_busy[j] = 0.0;
            cpu_util[j] = 0.0;
            gpu_util[j] = 0.0;
        }
    }
    return 0;
}

/* ---- a whole DQN train step, or a greedy action, per call ---------------- */

/* NumPy's own ILP64 CBLAS entry points (addresses in the argument tables,
   see _numpy_blas) and cblas.h's enum values.  Every product passes the
   arguments np.matmul or np.dot passes for the same operands, so each
   result is NumPy's bit for bit. */
typedef void (*dgemm_fn)(int, int, int, int64_t, int64_t, int64_t, double,
                         const double *, int64_t, const double *, int64_t,
                         double, double *, int64_t);
typedef void (*dgemv_fn)(int, int, int64_t, int64_t, double, const double *,
                         int64_t, const double *, int64_t, double, double *,
                         int64_t);
typedef double (*ddot_fn)(int64_t, const double *, int64_t, const double *,
                          int64_t);
enum { ROW_MAJOR = 101, NO_TRANS = 111, TRANS = 112 };

/* np.argmax over row[c] (+ bias[c] when bias is not NULL): the first
   maximum, or the first NaN. */
static long np_argmax(long n, const double *row, const double *bias) {
    long best = 0;
    double top = bias ? row[0] + bias[0] : row[0];
    if (isnan(top)) return 0;
    for (long c = 1; c < n; c++) {
        double v = bias ? row[c] + bias[c] : row[c];
        if (isnan(v)) return c;
        if (v > top) { top = v; best = c; }
    }
    return best;
}

/* out (m x n, row stride n) = op(A) @ op(B) as np.matmul issues it for
   row-major operands: A is (m x k) with row stride lda, or stored (k x m)
   when ta is TRANS; B is (k x n) with row stride ldb, or stored (n x k). */
static void matmul(const long long *t, int ta, int tb, int64_t m, int64_t n,
                   int64_t k, const double *a, int64_t lda, const double *b,
                   int64_t ldb, double *out) {
    ((dgemm_fn)(intptr_t)t[Q_GEMM])(ROW_MAJOR, ta, tb, m, n, k, 1.0, a, lda,
                                    b, ldb, 0.0, out, n);
}

/* One DqnLearner.train_batch step (double-DQN targets, Huber loss, Adam)
   over the Q_* slots of `t`, a QL_* block per layer after them and the
   QC_* constants of `c`, in the NumPy path's operand order:
     1. the online and target networks (the pair buffer's halves, `half`
        elements apart) on next_states at the bootstrap width, one gemm per
        half per layer; per sample the online argmax a* and
        targets = (target_q[a*] * discount) + rewards;
     2. the training forward at the train width into pre/act;
     3. Huber loss and clipped gradient of the taken actions' Q-values,
        scattered into the zeroed (batch x actions) grad_outputs;
     4. backward per layer: ReLU mask, weight gradient U^T g, bias gradient
        (a column sum from +0.0, as np.add.reduce), propagated g W^T;
     5. the global-norm clip (0.0 + ddot, as np.dot) and the Adam update of
        every active region.
   Returns 1, before writing anything, when a taken action is out of
   range. */
long dqn_train_step(const long long *t, const double *c) {
#define LAYER(l) (t + Q_SLOTS + (l) * QL_SLOTS)
    long layers = t[Q_LAYERS], n = t[Q_BATCH], actions = t[Q_ACTIONS];
    int64_t half = t[Q_HALF], in = LAYER(0)[QL_INPUTS], out;
    const long long *taken = SLOT(const long long, t, Q_TAKEN);
    for (long i = 0; i < n; i++) {
        if (taken[i] < 0 || taken[i] >= actions) return 1;
    }
    const double *x = SLOT(const double, t, Q_NEXT_STATES);
    int64_t ldx = t[Q_NEXT_STATES_LD], x_half = 0;
    for (long l = 0; l < layers; l++) {
        const long long *y = LAYER(l);
        const double *w = SLOT(const double, y, QL_WEIGHT);
        const double *b = SLOT(const double, y, QL_BIAS);
        double *z = SLOT(double, y, QL_PAIR);
        out = y[QL_BOOT_OUTPUTS];
        for (long h = 0; h < 2; h++) {
            double *zh = z + h * n * out;
            matmul(t, NO_TRANS, NO_TRANS, n, out, in, x + h * x_half, ldx,
                   w + h * half, y[QL_STRIDE], zh);
            if (l < layers - 1) bias_relu(n, out, zh, b + h * half, zh);
        }
        x = z; ldx = out; x_half = n * out; in = out;
    }
    const double *bias = SLOT(const double, LAYER(layers - 1), QL_BIAS);
    const double *rewards = SLOT(const double, t, Q_REWARDS);
    double *targets = SLOT(double, t, Q_TARGETS);
    for (long i = 0; i < n; i++) {
        long best = np_argmax(actions, x + i * actions, bias);
        double q = x[(n + i) * actions + best] + bias[half + best];
        targets[i] = (q * c[QC_DISCOUNT]) + rewards[i];
    }

    const double *states = SLOT(const double, t, Q_STATES);
    x = states; ldx = t[Q_STATES_LD]; in = LAYER(0)[QL_INPUTS];
    for (long l = 0; l < layers; l++) {
        const long long *y = LAYER(l);
        double *pre = SLOT(double, y, QL_PRE);
        double *act = l < layers - 1 ? SLOT(double, y, QL_ACT) : NULL;
        out = y[QL_OUTPUTS];
        matmul(t, NO_TRANS, NO_TRANS, n, out, in, x, ldx,
               SLOT(const double, y, QL_WEIGHT), y[QL_STRIDE], pre);
        bias_relu(n, out, pre, SLOT(const double, y, QL_BIAS), act);
        x = act; ldx = out; in = out;
    }

    const double *q = SLOT(const double, LAYER(layers - 1), QL_PRE);
    double *losses = SLOT(double, t, Q_LOSSES);
    double *g = SLOT(double, t, Q_GRAD_OUTPUTS);
    double delta = c[QC_HUBER_DELTA];
    for (long i = 0; i < n * actions; i++) g[i] = 0.0;
    for (long i = 0; i < n; i++) {
        long k = i * actions + taken[i];
        double e = q[k] - targets[i];
        double a = fabs(e);
        double m = np_minimum(a, delta);
        losses[i] = ((m * m) * 0.5) + ((a - m) * delta);
        g[k] = np_minimum(np_maximum(e, -delta), delta) / c[QC_COUNT];
    }

    for (long l = layers - 1; l >= 0; l--) {
        const long long *y = LAYER(l);
        in = y[QL_INPUTS];
        out = y[QL_OUTPUTS];
        if (l < layers - 1) {
            const double *pre = SLOT(const double, y, QL_PRE);
            for (long k = 0; k < n * out; k++) {
                g[k] = g[k] * (pre[k] > 0.0 ? 1.0 : 0.0);
            }
        }
        const double *u = l ? SLOT(const double, LAYER(l - 1), QL_ACT) : states;
        matmul(t, TRANS, NO_TRANS, in, out, n, u, l ? in : t[Q_STATES_LD],
               g, out, SLOT(double, y, QL_WEIGHT_GRAD));
        double *bg = SLOT(double, y, QL_BIAS_GRAD);
        for (long j = 0; j < out; j++) bg[j] = 0.0;
        for (long r = 0; r < n; r++) {
            for (long j = 0; j < out; j++) bg[j] = bg[j] + g[r * out + j];
        }
        if (l > 0) {
            double *d = SLOT(double, y, QL_DELTA);
            matmul(t, NO_TRANS, TRANS, n, in, out, g, out,
                   SLOT(const double, y, QL_WEIGHT), y[QL_STRIDE], d);
            g = d;
        }
    }

    double *grad = SLOT(double, t, Q_GRAD);
    int64_t size = t[Q_GRAD_SIZE];
    double max_norm = c[QC_MAX_GRAD_NORM];
    if (max_norm > 0.0) {
        double sq = 0.0;
        sq += ((ddot_fn)(intptr_t)t[Q_DOT])(size, grad, 1, grad, 1);
        double total = sqrt(sq);
        if (total > max_norm && total > 0.0) {
            double scale = max_norm / total;
            for (int64_t i = 0; i < size; i++) grad[i] = grad[i] * scale;
        }
    }
    for (long l = 0; l < layers; l++) {
        const long long *y = LAYER(l);
        out = y[QL_OUTPUTS];
        adam_step_region(y[QL_INPUTS], out, y[QL_STRIDE],
                         SLOT(double, y, QL_WEIGHT),
                         SLOT(const double, y, QL_WEIGHT_GRAD),
                         SLOT(double, y, QL_WEIGHT_M),
                         SLOT(double, y, QL_WEIGHT_V), c[QC_LEARNING_RATE],
                         c[QC_BETA1], c[QC_BETA2], c[QC_EPSILON],
                         c[QC_BIAS_CORRECTION1], c[QC_BIAS_CORRECTION2]);
        adam_step_region(1, out, out, SLOT(double, y, QL_BIAS),
                         SLOT(const double, y, QL_BIAS_GRAD),
                         SLOT(double, y, QL_BIAS_M), SLOT(double, y, QL_BIAS_V),
                         c[QC_LEARNING_RATE], c[QC_BETA1], c[QC_BETA2],
                         c[QC_EPSILON], c[QC_BIAS_CORRECTION1],
                         c[QC_BIAS_CORRECTION2]);
    }
    return 0;
#undef LAYER
}

/* DqnLearner.greedy_action for the state in the G_* slots of `t`, with a
   GL_* block per layer: per layer one gemv, as np.matmul issues it for a
   (1 x in) row times a row-strided (in x out) weight view, then the bias
   add (+ ReLU on hidden layers) in the layer's act buffer; returns the
   np.argmax of the last one. */
long dqn_greedy(const long long *t) {
    long layers = t[G_LAYERS];
    int64_t out = 0;
    const double *x = SLOT(const double, t, G_STATE);
    for (long l = 0; l < layers; l++) {
        const long long *y = t + G_SLOTS + l * GL_SLOTS;
        double *act = SLOT(double, y, GL_ACT);
        out = y[GL_OUTPUTS];
        ((dgemv_fn)(intptr_t)t[G_GEMV])(
            ROW_MAJOR, TRANS, y[GL_INPUTS], out, 1.0,
            SLOT(const double, y, GL_WEIGHT), y[GL_STRIDE], x, 1, 0.0, act, 1);
        bias_relu(1, out, act, SLOT(const double, y, GL_BIAS),
                  l < layers - 1 ? act : NULL);
        x = act;
    }
    return np_argmax(out, x, NULL);
}

#ifdef REPRO_NPYRANDOM
/* One normal(0.0, scale[i]) draw from each session's own generator.
   random_normal is NumPy's own C distribution function (linked from
   libnpyrandom.a), the one Generator.normal calls for a scalar draw, so
   every value is bit-identical and every generator advances exactly as
   rng.normal(0.0, scale[i]) would advance it.  Scales are validated by the
   caller (Generator.normal's `scale < 0` check); the generators' Python
   locks are not taken, so a generator must not be used from two threads. */
#include <numpy/random/bitgen.h>

double random_normal(bitgen_t *bitgen_state, double loc, double scale);

void fleet_normal(long n, bitgen_t **gens, const double *scale, double *out) {
    for (long i = 0; i < n; i++) {
        out[i] = random_normal(gens[i], 0.0, scale[i]);
    }
}
#endif
"""

# -ffp-contract=off: no multiply-add fusion (rounding must match NumPy's
# two-step ops).  -fno-math-errno: allows sqrt to vectorize (sqrtpd is still
# correctly rounded; only errno bookkeeping is dropped).  SIMD div/sqrt are
# IEEE-exact per element, so vectorization cannot change results.
_CFLAGS = [
    "-O3",
    "-march=native",
    "-fno-math-errno",
    "-ffp-contract=off",
    "-shared",
    "-fPIC",
]

#: NumPy's random C library (the distribution code ``Generator`` runs) and
#: the include directory of the header declaring its ``bitgen_t``.  When
#: either is missing, the library is built without ``fleet_normal`` and the
#: per-session draws stay in NumPy.
_NPYRANDOM_INCLUDE = Path(np.get_include())
_NPYRANDOM_ARCHIVE = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"

def check_scales(scale) -> np.ndarray:
    """Normal-draw scales as contiguous float64, checked as NumPy checks them.

    ``Generator.normal`` raises ``ValueError("scale < 0")`` for a scale
    whose sign bit is set, ``-0.0`` included (NaN passes).  The fused draw
    does no check of its own, so every scale array it reads is built here.
    """
    scale = np.ascontiguousarray(scale, dtype=float)
    if (np.signbit(scale) & ~np.isnan(scale)).any():
        raise ValueError("scale < 0")
    return scale


def _bitgen_table(rngs: Sequence[np.random.Generator]):
    """A ctypes array of the generators' ``bitgen_t`` addresses."""
    return (ctypes.c_void_p * len(rngs))(
        *[rng.bit_generator.ctypes.bit_generator.value for rng in rngs]
    )


class SessionGenerators(Sequence):
    """One generator per session, drawn from together by the fused kernel.

    A read-only sequence of the generators.  :meth:`normal` draws one
    ``normal(0.0, scale)`` value from each generator, through the C kernel
    when the fused library has it and through ``Generator.normal`` when it
    does not, with bit-identical values and generator states either way.

    The kernel reads each generator's ``bitgen_t`` through a pointer table
    built on the first draw.  The table is derived state: pickling and
    ``copy.deepcopy`` drop it, so a copy rebuilds it from its own
    generators and never draws from its original's.  Setting
    ``bit_generator.state`` writes the generator in place, so restoring a
    checkpoint keeps the table valid.
    """

    def __init__(self, rngs: Iterable[np.random.Generator]):
        self._rngs = tuple(rngs)
        self._table = None
        self._shared_scales: dict = {}

    def __len__(self) -> int:
        return len(self._rngs)

    def __getitem__(self, index):
        return self._rngs[index]

    def __iter__(self):
        return iter(self._rngs)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_table"] = None
        return state

    def normal(self, scale: float | np.ndarray) -> np.ndarray:
        """One ``rng.normal(0.0, scale)`` draw per session, bit for bit.

        ``scale`` is one float shared by every session, or a per-session
        array built by :func:`check_scales`.
        """
        n = len(self._rngs)
        if not isinstance(scale, np.ndarray):
            shared = self._shared_scales.get(scale)
            if shared is None:
                shared = self._shared_scales[scale] = check_scales(np.full(n, scale))
            scale = shared
        elif (
            scale.shape != (n,)
            or scale.dtype != np.float64
            or not scale.flags.c_contiguous
        ):
            raise ValueError(
                f"need {n} contiguous float64 scales, got {scale.dtype} {scale.shape}"
            )
        kernel = fused_fleet()
        if kernel is not None and kernel.draws_normals:
            if self._table is None:
                self._table = _bitgen_table(self._rngs)
            out = np.empty(n)
            kernel.fleet_normal(self._table, scale, out)
            return out
        return np.array(
            [rng.normal(0.0, value) for rng, value in zip(self._rngs, scale.tolist())]
        )


class ArgumentTable:
    """A per-segment kernel's persistent arguments, resolved once.

    ``slots`` names the int64 table's entries in order: an integer value is
    stored as is, an array by the address of its first element.
    ``constants`` names the float64 table's entries.  The table keeps every
    array it points into alive (``buffers``, by name), so the owner must
    write those arrays only in place: rebinding an attribute to a new array
    would leave the kernel reading the old one.  Addresses are only valid in
    this process, so owners drop their tables when pickled or copied.
    """

    __slots__ = ("buffers", "values", "constants", "values_address", "constants_address")

    def __init__(self, slots: tuple, constants: tuple, arguments: dict):
        expected = set(slots) | set(constants)
        if set(arguments) != expected:
            raise ValueError(
                f"argument table needs {sorted(expected)}, got {sorted(arguments)}"
            )
        self.buffers = {}
        values = []
        for name in slots:
            value = arguments[name]
            if isinstance(value, np.ndarray):
                if not (value.flags.c_contiguous and value.flags.writeable):
                    raise ValueError(f"{name} must be a writeable C-contiguous array")
                self.buffers[name] = value
                values.append(value.ctypes.data)
            else:
                values.append(int(value))
        self.values = np.array(values, dtype=np.int64)
        self.constants = np.array([arguments[name] for name in constants], dtype=float)
        self.values_address = self.values.ctypes.data
        self.constants_address = self.constants.ctypes.data


class AdamPlan:
    """Pointer/dimension tables for one fused multi-region Adam step."""

    __slots__ = ("k", "rows", "cols", "strides", "ps", "gs", "ms", "vs", "keepalive")

    def __init__(self, k, rows, cols, strides, ps, gs, ms, vs, keepalive):
        self.k = k
        self.rows = rows
        self.cols = cols
        self.strides = strides
        self.ps = ps
        self.gs = gs
        self.ms = ms
        self.vs = vs
        self.keepalive = keepalive


class _FusedAdam:
    """ctypes wrapper around the compiled kernels.

    All pointer arguments are typed ``c_void_p`` so callers can pass raw
    integer addresses (``array.ctypes.data``); the per-segment and DQN
    kernels read theirs from an :class:`ArgumentTable` resolved once.
    """

    def __init__(self, lib: ctypes.CDLL):
        self._flat = lib.adam_step_flat
        self._flat.restype = None
        self._flat.argtypes = [
            ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double,
            ctypes.c_double, ctypes.c_double,
        ]
        self._multi = lib.adam_step_multi
        self._multi.restype = None
        self._multi.argtypes = [
            ctypes.c_long,
            ctypes.POINTER(ctypes.c_long), ctypes.POINTER(ctypes.c_long),
            ctypes.POINTER(ctypes.c_long),
            ctypes.POINTER(ctypes.c_void_p), ctypes.POINTER(ctypes.c_void_p),
            ctypes.POINTER(ctypes.c_void_p), ctypes.POINTER(ctypes.c_void_p),
            ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double,
            ctypes.c_double, ctypes.c_double,
        ]
        self._fleet_thermal = lib.fleet_thermal_advance
        self._fleet_thermal.restype = None
        self._fleet_thermal.argtypes = [
            ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p,
        ]
        self._fleet_exp = lib.fleet_exp
        self._fleet_exp.restype = None
        self._fleet_exp.argtypes = [ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
        self._device_execute = lib.fleet_device_execute
        self._device_execute.restype = None
        self._device_execute.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
        self._segment_model = lib.fleet_segment_model
        self._segment_model.restype = ctypes.c_long
        self._segment_model.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
        # Built only when NumPy's random library was found (see _compile).
        self._fleet_normal = getattr(lib, "fleet_normal", None)
        self.draws_normals = self._fleet_normal is not None
        if self.draws_normals:
            self._fleet_normal.restype = None
            self._fleet_normal.argtypes = [
                ctypes.c_long, ctypes.POINTER(ctypes.c_void_p), ctypes.c_void_p,
                ctypes.c_void_p,
            ]
        self._fleet_ar1 = lib.fleet_ar1_advance
        self._fleet_ar1.restype = None
        self._fleet_ar1.argtypes = [
            ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ]
        self._proposal_tail = lib.fleet_proposal_tail
        self._proposal_tail.restype = None
        self._proposal_tail.argtypes = [
            ctypes.c_long, ctypes.c_void_p, ctypes.c_double,
            ctypes.c_long, ctypes.c_void_p,
            ctypes.c_double, ctypes.c_double, ctypes.c_void_p,
        ]
        self._bias_relu = lib.bias_relu
        self._bias_relu.restype = None
        self._bias_relu.argtypes = [
            ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_void_p,
        ]
        self._train_step = lib.dqn_train_step
        self._train_step.restype = ctypes.c_long
        self._train_step.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
        self._greedy = lib.dqn_greedy
        self._greedy.restype = ctypes.c_long
        self._greedy.argtypes = [ctypes.c_void_p]
        # NumPy's own (dgemm, dgemv, ddot) addresses, and whether the DQN
        # kernels run: None until the first learner asks (see fused_dqn).
        self.blas: tuple | None = None
        self.runs_dqn: bool | None = None

    @staticmethod
    def _ptr(array: np.ndarray) -> int:
        return array.ctypes.data

    def make_plan(
        self,
        param_views: list,
        grads: list,
        m_views: list,
        v_views: list,
    ) -> "AdamPlan":
        """Precompute the pointer/dimension tables for ``step_multi``.

        All arrays must stay alive and in place for the plan's lifetime
        (the plan holds references to guarantee the former; the callers—
        flat-backed networks and optimizer state—guarantee the latter).
        """
        k = len(param_views)
        rows, cols, strides = [], [], []
        for a in param_views:
            if a.ndim == 1:
                rows.append(1)
                cols.append(a.shape[0])
                strides.append(a.shape[0])
            else:
                rows.append(a.shape[0])
                cols.append(a.shape[1])
                strides.append(a.strides[0] // a.itemsize)
        return AdamPlan(
            k=k,
            rows=(ctypes.c_long * k)(*rows),
            cols=(ctypes.c_long * k)(*cols),
            strides=(ctypes.c_long * k)(*strides),
            ps=(ctypes.c_void_p * k)(*[a.ctypes.data for a in param_views]),
            gs=(ctypes.c_void_p * k)(*[a.ctypes.data for a in grads]),
            ms=(ctypes.c_void_p * k)(*[a.ctypes.data for a in m_views]),
            vs=(ctypes.c_void_p * k)(*[a.ctypes.data for a in v_views]),
            keepalive=(param_views, grads, m_views, v_views),
        )

    def step_multi(
        self,
        plan: "AdamPlan",
        lr: float,
        beta1: float,
        beta2: float,
        eps: float,
        bc1: float,
        bc2: float,
    ) -> None:
        _obs.kernel_call("step_multi")
        self._multi(
            plan.k, plan.rows, plan.cols, plan.strides,
            plan.ps, plan.gs, plan.ms, plan.vs,
            lr, beta1, beta2, eps, bc1, bc2,
        )

    # -- fleet kernels -------------------------------------------------------

    def fleet_thermal_advance(
        self,
        temps: np.ndarray,
        power: np.ndarray,
        ambient: np.ndarray,
        resistance: np.ndarray,
        heat_capacity: np.ndarray,
        coup_a: np.ndarray,
        coup_b: np.ndarray,
        coup_c: np.ndarray,
        remaining: np.ndarray,
        max_substep: float,
        dt_scratch: np.ndarray,
        deltas_scratch: np.ndarray,
    ) -> None:
        """Advance a ``(nodes, n)`` fleet thermal matrix in place.

        ``remaining`` (seconds, length n) is consumed in place; ``dt_scratch``
        (length n) and ``deltas_scratch`` (``(nodes, n)``) are caller-owned
        work buffers.  All arrays must be C-contiguous float64 (coupling
        endpoint indices int64).
        """
        _obs.kernel_call("fleet_thermal_advance")
        nodes, n = temps.shape
        self._fleet_thermal(
            nodes, n, self._ptr(temps), self._ptr(power), self._ptr(ambient),
            self._ptr(resistance), self._ptr(heat_capacity),
            coup_a.size, self._ptr(coup_a), self._ptr(coup_b),
            self._ptr(coup_c), self._ptr(remaining), max_substep,
            self._ptr(dt_scratch), self._ptr(deltas_scratch),
        )

    def fleet_exp(self, x: np.ndarray, out: np.ndarray) -> None:
        """``out = exp(x)`` with libm's ``exp``, i.e. ``math.exp`` bit for bit.

        Contiguous float64 arrays of one size; ``out`` may be ``x``.
        """
        _obs.kernel_call("fleet_exp")
        addr = self._ptr(x)
        self._fleet_exp(x.size, addr, addr if out is x else self._ptr(out))

    def device_table(self, arguments: dict) -> "ArgumentTable":
        """The argument table of :meth:`fleet_device_execute` for one fleet.

        ``arguments`` maps every device slot name, and every domain slot
        name prefixed ``cpu_`` and ``gpu_``, to its value (see
        ``_DEVICE_SLOTS`` and ``_DOMAIN_SLOTS`` and their constants).
        """
        return ArgumentTable(_DEVICE_LAYOUT, _DEVICE_CONSTANT_LAYOUT, arguments)

    def fleet_device_execute(self, table: "ArgumentTable") -> None:
        """Run one segment of a device fleet through its argument table."""
        _obs.kernel_call("fleet_device_execute")
        self._device_execute(table.values_address, table.constants_address)

    def segment_table(self, arguments: dict) -> "ArgumentTable":
        """The argument table of :meth:`fleet_segment_model` for one size."""
        return ArgumentTable(_SEGMENT_SLOTS, _SEGMENT_CONSTANTS, arguments)

    def fleet_segment_model(self, table: "ArgumentTable") -> bool:
        """Latency and utilisation of one segment; ``False`` if a frequency is <= 0.

        Inputs and outputs are the table's ``*_kilocycles``/``*_frequency``
        and ``latency``/``*_busy``/``*_utilisation`` buffers; on ``False``
        the outputs are left unwritten.
        """
        _obs.kernel_call("fleet_segment_model")
        return self._segment_model(table.values_address, table.constants_address) == 0

    def fleet_normal(self, table, scale: np.ndarray, out: np.ndarray) -> None:
        """``out[i] = normal(0.0, scale[i])`` drawn from generator ``i``.

        ``table`` is a ctypes array of the generators' ``bitgen_t``
        addresses (kept by :class:`SessionGenerators`); ``scale`` comes from
        :func:`check_scales`; both arrays hold ``len(table)`` float64 values.
        """
        _obs.kernel_call("fleet_normal")
        self._fleet_normal(len(table), table, self._ptr(scale), self._ptr(out))

    def fleet_ar1_advance(
        self,
        current: np.ndarray,
        mean: np.ndarray,
        corr: np.ndarray,
        innovations: np.ndarray,
        minimum: np.ndarray,
        maximum: np.ndarray,
    ) -> None:
        """One clipped AR(1) step over per-session streams, in place."""
        _obs.kernel_call("fleet_ar1_advance")
        self._fleet_ar1(
            current.size, self._ptr(current), self._ptr(mean),
            self._ptr(corr), self._ptr(innovations),
            self._ptr(minimum), self._ptr(maximum),
        )

    def fleet_proposal_tail(
        self,
        scene_candidates: np.ndarray,
        keep_ratio: float,
        factor: np.ndarray | None,
        min_proposals: float,
        max_proposals: float,
        out: np.ndarray,
    ) -> None:
        """rint/clip tail of the batched proposal draw into int64 ``out``."""
        _obs.kernel_call("fleet_proposal_tail")
        self._proposal_tail(
            scene_candidates.size, self._ptr(scene_candidates), keep_ratio,
            0 if factor is None else 1,
            0 if factor is None else self._ptr(factor),
            min_proposals, max_proposals, self._ptr(out),
        )

    def bias_relu(self, z: np.ndarray, b: np.ndarray, act: np.ndarray) -> None:
        """``z += b`` then ``act = maximum(z, 0)`` for one hidden layer.

        ``z`` and ``act`` are ``(batch, units)`` C-contiguous float64 and may
        be the same array; ``b`` is the contiguous active bias slice.
        """
        _obs.kernel_call("bias_relu")
        rows, cols = z.shape
        self._bias_relu(rows, cols, self._ptr(z), self._ptr(b), self._ptr(act))

    # -- DQN kernels -----------------------------------------------------------

    def train_table(
        self, weights, biases, moments, train, boot, batch, half, constants
    ) -> "ArgumentTable":
        """The argument table of :meth:`dqn_train_step` for one learner.

        ``weights``/``biases`` are the online network's full parameters,
        each ``half`` elements before its target twin; ``moments`` holds
        Adam's first and second moment lists (weights and biases
        interleaved); ``train``/``boot`` are the active units per layer
        boundary at the train and bootstrap widths; ``constants`` maps
        ``discount``, ``huber_delta`` and ``max_grad_norm``.
        """
        (first, second), layers, actions = moments, len(weights), train[-1]
        grad = np.zeros(sum(i * o + o for i, o in zip(train[:-1], train[1:])))
        arguments = {
            "gemm": self.blas[0], "dot": self.blas[2], "layers": layers,
            "batch": batch, "actions": actions, "half": half,
            "grad_size": grad.size, "targets": np.zeros(batch),
            "losses": np.zeros(batch), "grad_outputs": np.zeros((batch, actions)),
            "grad": grad, "rewards": np.zeros(batch),
            "taken": np.zeros(batch, dtype=np.int64), "states": 0,
            "states_ld": 0, "next_states": 0, "next_states_ld": 0,
            "count": float(batch), **constants,
            **dict.fromkeys(_DQN_CONSTANTS[_ADAM_CONSTANTS], 0.0),
        }
        offset = 0
        for i in range(layers):
            ins, outs = train[i], train[i + 1]
            end = offset + ins * outs
            layer = {
                "inputs": ins, "outputs": outs, "boot_outputs": boot[i + 1],
                "stride": weights[i].shape[1], "weight": weights[i],
                "bias": biases[i], "pre": np.zeros((batch, outs)),
                "act": np.zeros((batch, outs)), "delta": np.zeros((batch, ins)),
                "pair": np.zeros((2, batch, boot[i + 1])),
                "weight_grad": grad[offset:end], "bias_grad": grad[end : end + outs],
                "weight_m": first[2 * i], "weight_v": second[2 * i],
                "bias_m": first[2 * i + 1], "bias_v": second[2 * i + 1],
            }
            offset = end + outs
            arguments.update((f"layer{i}_{key}", value) for key, value in layer.items())
        return ArgumentTable(
            _layers(_DQN_SLOTS, _DQN_LAYER_SLOTS, layers), _DQN_CONSTANTS, arguments
        )

    def dqn_train_step(
        self, table: "ArgumentTable", states, next_states, rewards, actions, adam
    ) -> bool:
        """One DQN train step through ``table`` (see :meth:`train_table`).

        ``states``/``next_states`` are float64 ``(batch, inputs)`` arrays
        with unit column stride, read in place with their row strides as
        ``np.matmul`` reads them; ``adam`` is ``(learning_rate, beta1,
        beta2, epsilon, bias_correction1, bias_correction2)``.  Returns
        ``False``, with nothing updated, when an action is out of range.
        """
        table.buffers["rewards"][...] = rewards
        table.buffers["taken"][...] = actions
        table.values[_BATCH_SLOTS] = (
            states.ctypes.data, states.strides[0] // 8,
            next_states.ctypes.data, next_states.strides[0] // 8,
        )
        table.constants[_ADAM_CONSTANTS] = adam
        _obs.kernel_call("dqn_train_step")
        return self._train_step(table.values_address, table.constants_address) == 0

    def greedy_table(self, weights, biases, units) -> "ArgumentTable":
        """The argument table of :meth:`dqn_greedy` for one network width."""
        layers = len(weights)
        arguments = {"gemv": self.blas[1], "layers": layers, "state": np.zeros(units[0])}
        for i in range(layers):
            layer = {
                "inputs": units[i], "outputs": units[i + 1],
                "stride": weights[i].shape[1], "weight": weights[i],
                "bias": biases[i], "act": np.zeros(units[i + 1]),
            }
            arguments.update((f"layer{i}_{key}", value) for key, value in layer.items())
        return ArgumentTable(
            _layers(_GREEDY_SLOTS, _GREEDY_LAYER_SLOTS, layers), (), arguments
        )

    def dqn_greedy(self, table: "ArgumentTable", state: np.ndarray) -> int:
        """``np.argmax`` of the Q-values of one float64 ``state``.

        The Q-values are left in the last layer's ``act`` buffer.
        """
        table.buffers["state"][...] = state
        _obs.kernel_call("dqn_greedy")
        return self._greedy(table.values_address)

    def step_flat(
        self,
        params: np.ndarray,
        grads: np.ndarray,
        m: np.ndarray,
        v: np.ndarray,
        lr: float,
        beta1: float,
        beta2: float,
        eps: float,
        bc1: float,
        bc2: float,
    ) -> None:
        _obs.kernel_call("step_flat")
        self._flat(
            params.size, self._ptr(params), self._ptr(grads),
            self._ptr(m), self._ptr(v), lr, beta1, beta2, eps, bc1, bc2,
        )


def _reference_step(p, g, m, v, lr, beta1, beta2, eps, bc1, bc2):
    """The NumPy op sequence the kernel must reproduce bit for bit."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    s = m / bc1
    s *= lr
    denom = np.sqrt(v / bc2)
    denom += eps
    s /= denom
    p -= s


def _reference_thermal(
    temps, power, ambient, resistance, heat_capacity, couplings, remaining,
    max_substep,
):
    """The DeviceFleet.advance_thermal NumPy loop, advancing ``temps`` in place."""
    nodes, n = temps.shape
    while True:
        active = remaining > 1e-12
        if not active.any():
            break
        dt = np.where(active, np.minimum(max_substep, remaining), 0.0)
        deltas = np.empty_like(temps)
        for row in range(nodes):
            to_ambient = (temps[row] - ambient) / resistance[row]
            coupled = np.zeros(n)
            for node_a, node_b, conductance in couplings:
                if row == node_a:
                    coupled = coupled + conductance * (temps[row] - temps[node_b])
                elif row == node_b:
                    coupled = coupled + conductance * (temps[row] - temps[node_a])
            net_flow_w = power[row] - to_ambient - coupled
            deltas[row] = net_flow_w / heat_capacity[row] * dt
        temps += deltas
        remaining = remaining - dt


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.dtype.kind == "f":
        return np.array_equal(a.view(np.int64), b.view(np.int64))
    return np.array_equal(a, b)


def _device_self_test(kernel: _FusedAdam, rng: np.random.Generator) -> bool:
    """``fleet_device_execute`` vs. the DeviceFleet.execute NumPy sequence.

    A small three-node fleet whose temperatures start around both domains'
    trip points, so sessions engage and release over a few segments, with
    zero durations and utilisations outside [0, 1].
    """
    nodes, n, levels = 3, 23, 5
    couplings = [(0, 1, 0.8), (1, 2, 0.35), (0, 2, 0.1)]
    state = {
        "temperatures": rng.uniform(60.0, 80.0, size=(nodes, n)),
        "ambient": rng.uniform(20.0, 45.0, size=n),
        "total_energy": rng.uniform(0.0, 5.0, size=n),
        "elapsed": rng.uniform(0.0, 100.0, size=n),
    }
    arguments = {
        "nodes": nodes, "sessions": n, "couplings": len(couplings),
        "power": np.zeros((nodes, n)),
        "resistance": rng.uniform(1.0, 4.0, size=nodes),
        "heat_capacity": rng.uniform(0.5, 3.0, size=nodes),
        "coupling_a": np.array([a for a, _, _ in couplings], dtype=np.int64),
        "coupling_b": np.array([b for _, b, _ in couplings], dtype=np.int64),
        "conductance": np.array([c for _, _, c in couplings]),
        "remaining": np.empty(n), "substep": np.empty(n),
        "deltas": np.empty((nodes, n)), "duration": np.empty(n),
        "energy": np.empty(n), "max_substep": 0.05,
        **{name: value.copy() for name, value in state.items()},
    }
    domains = {}
    for node, name in enumerate(_DOMAINS):
        domain = {
            "node": node, "throttled_level": 1,
            "voltage_sq": rng.uniform(0.5, 1.2, size=levels) ** 2,
            "frequency": rng.uniform(2e5, 2e6, size=levels),
            "utilisation": np.empty(n),
            "requested": rng.integers(0, levels, size=n),
            "level": np.empty(n, dtype=np.int64),
            "throttled": rng.random(n) < 0.5,
            "engage_count": rng.integers(0, 3, size=n),
            "power": np.empty(n),
            "capacitance": 1e-6 * rng.uniform(1.0, 3.0), "idle": 0.4,
            "leakage": 0.3, "leakage_k": 0.02, "leakage_ref": 25.0,
            "trip": 70.0, "release": 66.0,
        }
        domain["level"][:] = np.where(
            domain["throttled"], np.minimum(domain["requested"], 1), domain["requested"]
        )
        domains[name] = domain
        arguments.update((f"{name}_{key}", value) for key, value in domain.items())
    table = ArgumentTable(_DEVICE_LAYOUT, _DEVICE_CONSTANT_LAYOUT, arguments)
    reference = {name: value.copy() for name, value in state.items()}
    for name, domain in domains.items():
        for key in ("requested", "level", "throttled", "engage_count"):
            reference[f"{name}_{key}"] = domain[key].copy()
    for _ in range(4):
        duration = rng.uniform(0.0, 400.0, size=n)
        duration[rng.random(n) < 0.2] = 0.0
        table.buffers["duration"][:] = duration
        # The reference sequence, as in DeviceFleet._execute_numpy.
        temps = reference["temperatures"]
        power_rows = np.zeros((nodes, n))
        powers = {}
        for name, domain in domains.items():
            utilisation = rng.uniform(-0.3, 1.3, size=n)
            utilisation[0] = -0.0
            table.buffers[f"{name}_utilisation"][:] = utilisation
            level = reference[f"{name}_level"]
            u = np.minimum(np.maximum(utilisation, 0.0), 1.0)
            dynamic = (
                domain["capacitance"] * domain["voltage_sq"][level]
                * domain["frequency"][level] * u
            )
            exponent = np.minimum(
                domain["leakage_k"] * (temps[domain["node"]] - domain["leakage_ref"]),
                4.0,
            )
            leakage = domain["leakage"] * np.array(
                [math.exp(value) for value in exponent.tolist()]
            )
            powers[name] = domain["idle"] + dynamic + leakage
            power_rows[domain["node"]] = powers[name]
        _reference_thermal(
            temps, power_rows, reference["ambient"], arguments["resistance"],
            arguments["heat_capacity"], couplings, duration / 1e3, 0.05,
        )
        for name, domain in domains.items():
            throttled = reference[f"{name}_throttled"]
            t = temps[domain["node"]]
            released = throttled & (t <= domain["release"])
            engaged = ~throttled & (t >= domain["trip"])
            throttled[:] = (throttled & ~released) | engaged
            reference[f"{name}_engage_count"] += engaged
            requested = reference[f"{name}_requested"]
            reference[f"{name}_level"][:] = np.where(
                throttled, np.minimum(requested, 1), requested
            )
        energy = (powers["cpu"] + powers["gpu"]) * (duration / 1e3)
        reference["total_energy"] += energy
        reference["elapsed"] += duration
        kernel.fleet_device_execute(table)
        if not (
            _bits_equal(energy, table.buffers["energy"])
            and all(
                _bits_equal(powers[name], table.buffers[f"{name}_power"])
                for name in _DOMAINS
            )
            and all(
                _bits_equal(value, table.buffers[name])
                for name, value in reference.items()
            )
        ):
            return False
    return True


def _segment_self_test(kernel: _FusedAdam, rng: np.random.Generator) -> bool:
    """``fleet_segment_model`` vs. the BatchedExecutionModel NumPy body.

    With a zero launch overhead, so zero-work sessions take the idle
    branch, plus NaN costs and an infinite one; then a zero frequency,
    which must be refused.
    """
    n = 29
    cpu_eff, gpu_eff, launch, host = 0.9, 0.7, 0.0, 0.15
    cpu_kc = rng.uniform(0.0, 5e4, size=n)
    gpu_kc = rng.uniform(0.0, 5e4, size=n)
    cpu_kc[:4] = gpu_kc[:4] = 0.0
    cpu_kc[4], gpu_kc[5], cpu_kc[6] = np.nan, np.nan, np.inf
    cpu_f = rng.uniform(1e5, 2e6, size=n)
    gpu_f = rng.uniform(1e5, 2e6, size=n)
    table = ArgumentTable(
        _SEGMENT_SLOTS,
        _SEGMENT_CONSTANTS,
        {
            "sessions": n, "cpu_kilocycles": cpu_kc.copy(),
            "gpu_kilocycles": gpu_kc.copy(), "cpu_frequency": cpu_f.copy(),
            "gpu_frequency": gpu_f.copy(), "latency": np.empty(n),
            "cpu_busy": np.empty(n), "gpu_busy": np.empty(n),
            "cpu_utilisation": np.empty(n), "gpu_utilisation": np.empty(n),
            "cpu_efficiency": cpu_eff, "gpu_efficiency": gpu_eff,
            "launch_overhead": launch, "host_activity": host,
        },
    )
    cpu_ms = cpu_kc / (cpu_f * cpu_eff)
    gpu_ms = gpu_kc / (gpu_f * gpu_eff)
    latency = cpu_ms + gpu_ms + launch
    positive = latency > 0
    safe = np.where(positive, latency, 1.0)
    expected = {
        "latency": np.where(positive, latency, 0.0),
        "cpu_busy": np.where(positive, cpu_ms, 0.0),
        "gpu_busy": np.where(positive, gpu_ms, 0.0),
        "gpu_utilisation": np.where(positive, np.minimum(1.0, gpu_ms / safe), 0.0),
    }
    with np.errstate(invalid="ignore"):  # inf / inf, as NumPy warns
        expected["cpu_utilisation"] = np.where(
            positive, np.minimum(1.0, (cpu_ms + host * gpu_ms) / safe), 0.0
        )
    if not kernel.fleet_segment_model(table) or not all(
        _bits_equal(value, table.buffers[name]) for name, value in expected.items()
    ):
        return False
    table.buffers["gpu_frequency"][n // 2] = 0.0
    return not kernel.fleet_segment_model(table)


def _dqn_self_test(kernel: _FusedAdam, rng: np.random.Generator) -> bool:
    """``dqn_train_step`` and ``dqn_greedy`` vs. the NumPy path of DqnLearner.

    On a small pair buffer: the step trains at a reduced width (row-strided
    weight views) and bootstraps at the full one, reads row-strided states
    as replay samples are, has a dead hidden unit and clips; the greedy
    action runs at the reduced width on the updated parameters.
    """
    full, train = [5, 6, 5, 3], [5, 4, 3, 3]
    batch, delta, discount, max_norm = 7, 1.0, 0.9, 0.05
    adam = (0.01, 0.9, 0.99, 1e-8, 1.0 - 0.9**3, 1.0 - 0.99**3)
    half = sum(i * o + o for i, o in zip(full[:-1], full[1:]))

    def views(flat, offset=0):
        # [w0, b0, w1, b1, ...] of one network in the flat parameter layout.
        out = []
        for fan_in, fan_out in zip(full[:-1], full[1:]):
            end = offset + fan_in * fan_out
            out += [flat[offset:end].reshape(fan_in, fan_out), flat[end : end + fan_out]]
            offset = end + fan_out
        return out

    def forward(x, params, units):
        pre, act = [], []
        for i, (w, b) in enumerate(zip(params[::2], params[1::2])):
            z = x @ w[: units[i], : units[i + 1]]
            z += b[: units[i + 1]]
            pre.append(z)
            x = np.maximum(z, 0.0) if i < len(full) - 2 else z
            act.append(x)
        return pre, act

    pair = rng.normal(size=2 * half)
    pair[full[0] * full[1] + 1] = -1e3  # hidden unit 1 never fires
    moments = np.concatenate([rng.normal(size=half) * 0.1, rng.normal(size=half) ** 2])
    samples = rng.normal(size=(batch, 2 * full[0]))
    states, next_states = samples[:, : full[0]], samples[:, full[0] :]
    rewards, actions = rng.normal(size=batch), rng.integers(full[-1], size=batch)
    # The NumPy reference, op for op.
    ref, ref_m, ref_v = pair.copy(), moments[:half].copy(), moments[half:].copy()
    params, rows = views(ref), np.arange(batch)
    online = forward(next_states, params, full)[1][-1]
    target = forward(next_states, views(ref, half), full)[1][-1]
    targets = target[rows, online.argmax(axis=1)] * discount + rewards
    pre, act = forward(states, params, train)
    error = act[-1][rows, actions] - targets
    magnitude = np.abs(error)
    quadratic = np.minimum(magnitude, delta)
    losses = quadratic * quadratic * 0.5 + (magnitude - quadratic) * delta
    g = np.zeros((batch, full[-1]))
    g[rows, actions] = np.minimum(np.maximum(error, -delta), delta) / batch
    grads = []
    for i in reversed(range(len(full) - 1)):
        if i < len(full) - 2:
            g = g * (pre[i] > 0.0)
        upstream = states if i == 0 else act[i - 1]
        grads[:0] = [upstream.T @ g, np.add.reduce(g, axis=0)]
        if i:
            g = g @ params[2 * i][: train[i], : train[i + 1]].T
    flat = np.concatenate([grad.ravel() for grad in grads])
    norm = float(np.sqrt(np.dot(flat, flat)))
    if norm > max_norm:
        flat *= max_norm / norm
    offset = 0
    for i, (p, m, v) in enumerate(zip(params, views(ref_m), views(ref_v))):
        region = (slice(0, train[i // 2]), slice(0, train[i // 2 + 1]))[-p.ndim :]
        grad = flat[offset : offset + grads[i].size].reshape(grads[i].shape)
        _reference_step(p[region], grad, m[region], v[region], *adam)
        offset += grads[i].size
    # The kernels on copies of the same buffers.
    live, live_moments = pair.copy(), moments.copy()
    net = views(live)
    table = kernel.train_table(
        net[::2], net[1::2], (views(live_moments), views(live_moments, half)),
        train, full, batch, half,
        {"discount": discount, "huber_delta": delta, "max_grad_norm": max_norm},
    )
    if not (
        kernel.dqn_train_step(table, states, next_states, rewards, actions, adam)
        and _bits_equal(table.buffers["losses"], losses)
        and _bits_equal(live, ref)
        and _bits_equal(live_moments, np.concatenate([ref_m, ref_v]))
    ):
        return False
    state = rng.normal(size=full[0])
    q = forward(state[None, :], params, train)[1][-1][0]
    greedy = kernel.greedy_table(net[::2], net[1::2], train)
    return kernel.dqn_greedy(greedy, state) == int(np.argmax(q)) and _bits_equal(
        greedy.buffers[f"layer{len(full) - 2}_act"], q
    )


def _self_test(kernel: _FusedAdam) -> bool:
    rng = np.random.default_rng(12345)
    n = 1337
    p0 = rng.normal(size=n)
    g0 = rng.normal(size=n)
    m0 = rng.normal(size=n) * 0.1
    v0 = np.abs(rng.normal(size=n)) * 0.01
    args = (0.003, 0.9, 0.99, 1e-8, 0.3, 0.05)
    p_ref, m_ref, v_ref = p0.copy(), m0.copy(), v0.copy()
    _reference_step(p_ref, g0, m_ref, v_ref, *args)
    p_c, m_c, v_c = p0.copy(), m0.copy(), v0.copy()
    kernel.step_flat(p_c, g0, m_c, v_c, *args)
    if not (
        np.array_equal(p_ref, p_c)
        and np.array_equal(m_ref, m_c)
        and np.array_equal(v_ref, v_c)
    ):
        return False
    # Plan/multi plumbing: a strided matrix region plus a vector in one call.
    pw = rng.normal(size=(10, 16))
    mw = rng.normal(size=(10, 16)) * 0.1
    vw = np.abs(rng.normal(size=(10, 16))) * 0.01
    gw = rng.normal(size=(8, 12)).copy()
    pb = rng.normal(size=20)
    mb = rng.normal(size=20) * 0.1
    vb = np.abs(rng.normal(size=20)) * 0.01
    gb = rng.normal(size=14).copy()
    refs = [a.copy() for a in (pw, mw, vw, pb, mb, vb)]
    _reference_step(refs[0][:8, :12], gw, refs[1][:8, :12], refs[2][:8, :12], *args)
    _reference_step(refs[3][:14], gb, refs[4][:14], refs[5][:14], *args)
    plan = kernel.make_plan(
        [pw[:8, :12], pb[:14]],
        [gw, gb],
        [mw[:8, :12], mb[:14]],
        [vw[:8, :12], vb[:14]],
    )
    kernel.step_multi(plan, *args)
    if not all(
        np.array_equal(ref, live)
        for ref, live in zip(refs, (pw, mw, vw, pb, mb, vb))
    ):
        return False
    # Fleet thermal sub-stepping vs. the DeviceFleet.advance_thermal NumPy
    # loop: mixed durations (zero, sub-step-sized, multi-step) so sessions
    # finish at different iterations.
    nodes, n = 3, 11
    temps0 = rng.normal(45.0, 10.0, size=(nodes, n))
    power = np.abs(rng.normal(4.0, 2.0, size=(nodes, n)))
    ambient = rng.normal(25.0, 3.0, size=n)
    resistance = np.abs(rng.normal(2.0, 0.5, size=nodes)) + 0.1
    heat_capacity = np.abs(rng.normal(20.0, 5.0, size=nodes)) + 1.0
    couplings = [(0, 1, 0.8), (1, 2, 0.35)]
    max_substep = 0.05
    remaining0 = np.concatenate(
        [np.zeros(2), rng.uniform(0.0, 0.3, size=n - 2)]
    )
    t_ref = temps0.copy()
    _reference_thermal(
        t_ref, power, ambient, resistance, heat_capacity, couplings,
        remaining0.copy(), max_substep,
    )
    t_c = temps0.copy()
    kernel.fleet_thermal_advance(
        t_c, power, ambient, resistance, heat_capacity,
        np.array([a for a, _, _ in couplings], dtype=np.int64),
        np.array([b for _, b, _ in couplings], dtype=np.int64),
        np.array([c for _, _, c in couplings], dtype=float),
        remaining0.copy(), max_substep, np.empty(n), np.empty((nodes, n)),
    )
    if not np.array_equal(t_ref.view(np.int64), t_c.view(np.int64)):
        return False
    # AR(1) advance vs. the FleetFrameStream.next_frames op sequence,
    # including values that land outside [lo, hi] on both sides.
    cur0 = rng.normal(50.0, 30.0, size=64)
    mean = rng.normal(50.0, 10.0, size=64)
    corr = rng.uniform(0.2, 0.99, size=64)
    innov = rng.normal(0.0, 20.0, size=64)
    lo = np.full(64, 10.0)
    hi = np.full(64, 90.0)
    ar_ref = np.clip(mean + corr * (cur0 - mean) + innov, lo, hi)
    ar_c = cur0.copy()
    kernel.fleet_ar1_advance(ar_c, mean, corr, innov, lo, hi)
    if not np.array_equal(ar_ref.view(np.int64), ar_c.view(np.int64)):
        return False
    # Proposal tail vs. rint/clip/astype, with explicit half-way values so
    # a round-half-away rint would be caught, with and without the noise
    # factor.
    scene = np.concatenate(
        [np.array([0.5, 1.5, 2.5, 3.5, 250.0, 1e4]), rng.uniform(0, 400, 57)]
    )
    keep_ratio, min_p, max_p = 1.0, 1.0, 300.0
    factor = np.exp(rng.normal(0.0, 0.2, size=scene.size))
    for fac in (None, factor):
        expected = scene * keep_ratio
        if fac is not None:
            expected = expected * fac
        counts_ref = np.clip(np.rint(expected), min_p, max_p).astype(np.int64)
        counts_c = np.empty(scene.size, dtype=np.int64)
        kernel.fleet_proposal_tail(scene, keep_ratio, fac, min_p, max_p, counts_c)
        if not np.array_equal(counts_ref, counts_c):
            return False
    # Bias add + ReLU vs. `z += b; maximum(z, 0)`, separate-output and
    # aliased (act is z) forms, with a -0.0 pre-activation and a NaN.
    z0 = rng.normal(size=(17, 23))
    bias = rng.normal(size=23)
    z0[0, 0] = bias[0] = -0.0
    z0[1, 1] = np.nan
    z_ref = z0.copy()
    z_ref += bias
    act_ref = np.maximum(z_ref, 0.0)
    z_c = z0.copy()
    act_c = np.empty_like(z_c)
    kernel.bias_relu(z_c, bias, act_c)
    if not (
        np.array_equal(z_ref.view(np.int64), z_c.view(np.int64))
        and np.array_equal(act_ref.view(np.int64), act_c.view(np.int64))
    ):
        return False
    z_alias = z0.copy()
    kernel.bias_relu(z_alias, bias, z_alias)
    if not np.array_equal(act_ref.view(np.int64), z_alias.view(np.int64)):
        return False
    # Leakage exp vs. math.exp (one libm, both sides), over the leakage
    # exponent range up to its 4.0 cap plus the edges of exp's domain.
    exponents = np.concatenate(
        [rng.uniform(-40.0, 4.0, 251), [0.0, -0.0, -745.0, 709.0, np.nan]]
    )
    exp_ref = np.array([math.exp(value) for value in exponents.tolist()])
    exp_c = np.empty_like(exponents)
    kernel.fleet_exp(exponents, exp_c)
    if not np.array_equal(exp_ref.view(np.int64), exp_c.view(np.int64)):
        return False
    kernel.fleet_exp(exponents, exponents)  # in place
    if not np.array_equal(exp_ref.view(np.int64), exponents.view(np.int64)):
        return False
    if not (_device_self_test(kernel, rng) and _segment_self_test(kernel, rng)):
        return False
    if not kernel.draws_normals:
        return True
    # Normal draws vs. per-session Generator.normal, on two bit-generator
    # families, zero and mixed scales, twice (so the second draw starts
    # from the first's state): values and generator states must agree.
    def generators():
        return [np.random.default_rng(seed) for seed in range(5)] + [
            np.random.Generator(np.random.Philox(seed)) for seed in range(3)
        ]

    scales = check_scales([0.0, 1.0, 0.2, 35.0, 1e-3, 7.5, 0.0, 2.0])
    reference, fused = generators(), generators()
    table = _bitgen_table(fused)
    for _ in range(2):
        normal_ref = np.array(
            [r.normal(0.0, s) for r, s in zip(reference, scales.tolist())]
        )
        normal_c = np.empty(scales.size)
        kernel.fleet_normal(table, scales, normal_c)
        if not np.array_equal(normal_ref.view(np.int64), normal_c.view(np.int64)):
            return False
    return all(
        _same_state(r.bit_generator.state, c.bit_generator.state)
        for r, c in zip(reference, fused)
    )


def _same_state(a, b) -> bool:
    """Equality of two ``bit_generator.state`` values (nested dicts of arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


def _cache_dir() -> Path:
    """Per-user, owner-only cache directory for the compiled library.

    Never a shared world-writable location: loading a ``.so`` from a path
    another local user can pre-create would be code injection.  The
    directory is created 0700 and its ownership verified before use.
    """
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    path = Path(base) / "repro-fused"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    stat = path.stat()
    if hasattr(os, "getuid") and stat.st_uid != os.getuid():
        raise PermissionError(f"{path} is not owned by the current user")
    if stat.st_mode & 0o022:
        raise PermissionError(f"{path} is writable by other users")
    return path


def _cpu_tag() -> str:
    """A string identifying the CPU the kernel is compiled for.

    ``-march=native`` bakes the build host's ISA extensions into the
    binary, so the cache key must change when the CPU does (think NFS home
    directories shared across heterogeneous cluster nodes — loading an
    AVX-512 build on an older core would SIGILL, which no Python-level
    fallback can catch).
    """
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith(("flags", "Features")):
                    return line.strip()
    except OSError:
        pass
    import platform

    return platform.machine() + platform.processor()


def _npyrandom_build() -> tuple[list, list, str]:
    """``(flags, link inputs, cache-key part)`` for NumPy's random library.

    The library is linked statically into the ``.so``, so the cache key
    carries the NumPy version and the archive's hash: a NumPy upgrade then
    compiles afresh instead of loading a stale library that fails the
    self-test (which would disable every kernel, Adam included).  With the
    header or the archive missing, nothing is linked and ``fleet_normal``
    is left out.
    """
    header = _NPYRANDOM_INCLUDE / "numpy" / "random" / "bitgen.h"
    if not (header.is_file() and _NPYRANDOM_ARCHIVE.is_file()):
        return [], [], "no-npyrandom"
    archive_hash = hashlib.sha256(_NPYRANDOM_ARCHIVE.read_bytes()).hexdigest()
    return (
        ["-DREPRO_NPYRANDOM", f"-I{_NPYRANDOM_INCLUDE}"],
        [str(_NPYRANDOM_ARCHIVE)],
        archive_hash,
    )


#: The CBLAS functions NumPy's matmul and dot call, (dgemm, dgemv, ddot), as
#: the ILP64 scipy-openblas build bundled with NumPy's wheels exports them.
#: A NumPy built on another BLAS exports none of them.
_BLAS_SYMBOLS = (
    "scipy_cblas_dgemm64_", "scipy_cblas_dgemv64_", "scipy_cblas_ddot64_",
)


def _numpy_blas() -> tuple | None:
    """Addresses of the BLAS functions NumPy calls, or ``None`` if missing.

    Looked up through NumPy's core extension, which links the BLAS library:
    the copy NumPy has already loaded.
    """
    from numpy._core import _multiarray_umath

    lib = ctypes.CDLL(_multiarray_umath.__file__)
    try:
        return tuple(
            ctypes.cast(getattr(lib, name), ctypes.c_void_p).value
            for name in _BLAS_SYMBOLS
        )
    except AttributeError:
        return None


def _compile() -> ctypes.CDLL | None:
    flags, archives, archive_key = _npyrandom_build()
    digest = hashlib.sha256(
        " ".join(
            [_SOURCE, *_CFLAGS, *flags, _cpu_tag(), np.__version__, archive_key]
        ).encode()
    ).hexdigest()[:16]
    cache_dir = _cache_dir()
    lib_path = cache_dir / f"adam_{digest}.so"
    if not lib_path.exists():
        src_path = cache_dir / f"adam_{digest}.c"
        src_path.write_text(_SOURCE)
        tmp_path = cache_dir / f"adam_{digest}.{os.getpid()}.so"
        # Archives resolve only symbols referenced before them: source first.
        result = subprocess.run(
            ["cc", *_CFLAGS, *flags, "-o", str(tmp_path), str(src_path), *archives, "-lm"],
            capture_output=True,
            timeout=60,
        )
        if result.returncode != 0 or not tmp_path.exists():
            return None
        os.replace(tmp_path, lib_path)  # atomic for concurrent processes
    return ctypes.CDLL(str(lib_path))


_kernel: _FusedAdam | None = None
_resolved = False


def fused_adam() -> _FusedAdam | None:
    """The verified fused-Adam kernel, or ``None`` if unavailable.

    Resolution (compile + bitwise self-test) happens once per process; the
    result is cached, including negative results.
    """
    global _kernel, _resolved
    if _resolved:
        return _kernel
    _resolved = True
    if os.environ.get("REPRO_FUSED", "1") == "0":
        _obs.event("fused.resolved", status="disabled")
        return None
    try:
        lib = _compile()
        if lib is not None:
            kernel = _FusedAdam(lib)
            if _self_test(kernel):
                _kernel = kernel
    except Exception:
        _kernel = None
    _obs.event(
        "fused.resolved", status="fused" if _kernel is not None else "numpy"
    )
    return _kernel


def fused_fleet() -> _FusedAdam | None:
    """The verified fleet kernels, or ``None`` if unavailable.

    The fleet kernels live in the same compiled library as the Adam ones
    and share its resolution: one compile + bitwise self-test per process,
    one ``REPRO_FUSED=0`` kill switch for everything.  The separate entry
    point exists so fleet call sites (:mod:`repro.hardware.fleet`,
    :mod:`repro.workload.fleet`, :mod:`repro.detection.fleet`,
    :mod:`repro.rl.slimmable`) read as requesting fleet kernels, not an
    optimizer.
    """
    return fused_adam()


def fused_dqn() -> _FusedAdam | None:
    """The verified kernels with ``dqn_train_step`` and ``dqn_greedy``, or ``None``.

    Resolved once per process, when a learner first asks, so a process that
    trains no DQN never makes the self-test's BLAS calls.  Any failure
    (symbols missing, a mismatch, an error) turns off only these two; a
    ``fused.resolved`` obs event with ``family="dqn"`` reports the outcome.
    """
    kernel = fused_adam()
    if kernel is None:
        return None
    if kernel.runs_dqn is None:
        try:
            kernel.blas = _numpy_blas()
            kernel.runs_dqn = kernel.blas is not None and _dqn_self_test(
                kernel, np.random.default_rng(2024)
            )
        except Exception:
            kernel.runs_dqn = False
        _obs.event(
            "fused.resolved", family="dqn",
            status="fused" if kernel.runs_dqn else "numpy",
        )
    return kernel if kernel.runs_dqn else None


def kernel_status() -> str:
    """Kernel selection state without forcing a compile.

    One of ``"disabled"`` (``REPRO_FUSED=0``), ``"unresolved"`` (no call
    site has asked for a kernel yet this process), ``"fused"`` (compiled
    and bitwise-verified) or ``"numpy"`` (resolution ran and fell back).
    Used by the obs sink to stamp run summaries; unlike
    :func:`fused_adam` it never triggers compilation.
    """
    if os.environ.get("REPRO_FUSED", "1") == "0":
        return "disabled"
    if not _resolved:
        return "unresolved"
    return "fused" if _kernel is not None else "numpy"
