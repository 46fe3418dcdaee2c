/* The fleet family: one executed segment of DeviceFleet.execute, one
   detector stage of BatchedInferenceEnvironment (stage costs, segment model,
   device segment and frame energy), DeviceFleet.request_levels, the batched
   governors' select_levels, and the AR(1) and proposal-count tails of the
   batched workload and detector. */
#include "kernels.h"

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
static void thermal_advance(long nodes, long n, double *temps,
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
void fleet_ar1_advance(const long long *t) {
    long n = t[AR_SESSIONS];
    double *current = SLOT(double, t, AR_CURRENT);
    const double *mean = SLOT(const double, t, AR_MEAN);
    const double *corr = SLOT(const double, t, AR_CORRELATION);
    const double *innov = SLOT(const double, t, AR_INNOVATIONS);
    const double *lo = SLOT(const double, t, AR_MINIMUM);
    const double *hi = SLOT(const double, t, AR_MAXIMUM);
    for (long i = 0; i < n; i++) {
        double v = (mean[i] + corr[i] * (current[i] - mean[i])) + innov[i];
        v = v >= lo[i] ? v : lo[i];   /* maximum(v, lo) */
        v = v <= hi[i] ? v : hi[i];   /* minimum(., hi) */
        current[i] = v;
    }
}

/* Proposal-count tail: expected = scene * keep_ratio [* noise_factor],
   counts = clip(rint(expected), min_p, max_p) as int64.  The noise factor
   (np.exp of the per-session draws) is computed by NumPy and passed in; C
   rint() under the default rounding mode is round-half-to-even, exactly
   np.rint.  The final cast is exact: the clipped value is integral. */
void fleet_proposal_tail(const long long *t, const double *c) {
    long n = t[PT_SESSIONS];
    long has_factor = t[PT_HAS_FACTOR];
    const double *scene = SLOT(const double, t, PT_SCENE);
    const double *factor = SLOT(const double, t, PT_FACTOR);
    long long *out = SLOT(long long, t, PT_COUNTS);
    double keep_ratio = c[PC_KEEP_RATIO];
    double min_p = c[PC_MIN_PROPOSALS], max_p = c[PC_MAX_PROPOSALS];
    for (long i = 0; i < n; i++) {
        double e = scene[i] * keep_ratio;
        if (has_factor) e = e * factor[i];
        double r = rint(e);
        r = r >= min_p ? r : min_p;
        r = r <= max_p ? r : max_p;
        out[i] = (long long)r;
    }
}

/* ---- one executed segment per call -------------------------------------- */

/* Power of one processor domain at pre-segment temperatures, mirroring
   _DomainTables.power_w:
     u = minimum(maximum(u, 0.0), 1.0)
     P = (idle + ((capacitance * V^2[level]) * f[level]) * u)
         + leakage * exp(minimum(k * (T - ref), 4.0))
   with libm's exp (the function math.exp calls; NumPy's vectorized np.exp
   may differ from it by an ULP) run over the exponents in the power
   buffer.  P goes to the domain's power buffer and to its node's row
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
    for (long j = 0; j < n; j++) power[j] = exp(power[j]);
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
   the RC sub-stepping of thermal_advance, both throttlers and caps,
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
    thermal_advance(
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

/* BatchedExecutionModel.execute for one session, with the SC_* constants
   of `c`:
     cpu_ms  = cpu_kc / (cpu_f * cpu_eff);  gpu_ms = gpu_kc / (gpu_f * gpu_eff)
     latency = (cpu_ms + gpu_ms) + launch_overhead
   and, where latency > 0 (else both outputs are 0.0, NaN latency included),
     cpu_util = minimum(1.0, (cpu_ms + host_activity * gpu_ms) / latency)
     gpu_util = minimum(1.0, gpu_ms / latency) */
static void segment_model(double cpu_kc, double gpu_kc, double cpu_f, double gpu_f,
                          const double *c, double *latency, double *cpu_util,
                          double *gpu_util) {
    double cpu_ms = cpu_kc / (cpu_f * c[SC_CPU_EFFICIENCY]);
    double gpu_ms = gpu_kc / (gpu_f * c[SC_GPU_EFFICIENCY]);
    double l = (cpu_ms + gpu_ms) + c[SC_LAUNCH_OVERHEAD];
    if (l > 0.0) {
        double busy = cpu_ms + c[SC_HOST_ACTIVITY] * gpu_ms;
        *latency = l;
        *cpu_util = np_minimum(1.0, busy / l);
        *gpu_util = np_minimum(1.0, gpu_ms / l);
    } else {
        *latency = 0.0;
        *cpu_util = 0.0;
        *gpu_util = 0.0;
    }
}

/* One detector stage of BatchedInferenceEnvironment.run_first_stage or
   run_second_stage over the ST_* slots of `t` and the SC_* constants of
   `c`, per session:
     costs   -- stage1_cost_arrays / stage2_cost_arrays: sums run over the
                stages left to right from +0.0, a stage's fixed cost times
                the image scale where it scales with the image, and (stage
                2, `per_proposal`) plus per_proposal * proposals;
     segment -- segment_model at the frequencies of the current levels;
   then the segment's latency and utilisations go to the fleet's duration
   and utilisation buffers, fleet_device_execute runs the fleet's own
   tables, and the segment energy is added to the frame energy.  Returns 1,
   before writing anything, when a frequency is <= 0. */
long fleet_stage(const long long *t, const double *c) {
    const long long *device = SLOT(const long long, t, ST_DEVICE);
    const long long *cpu = device + FD_SLOTS;
    const long long *gpu = device + FD_SLOTS + D_SLOTS;
    long n = device[FD_SESSIONS];
    const double *cpu_frequency = SLOT(const double, cpu, D_FREQUENCY);
    const double *gpu_frequency = SLOT(const double, gpu, D_FREQUENCY);
    const long long *cpu_level = SLOT(const long long, cpu, D_LEVEL);
    const long long *gpu_level = SLOT(const long long, gpu, D_LEVEL);
    for (long j = 0; j < n; j++) {
        if (cpu_frequency[cpu_level[j]] <= 0.0 || gpu_frequency[gpu_level[j]] <= 0.0) {
            return 1;
        }
    }
    long stages = t[ST_STAGES];
    long per_proposal = t[ST_PER_PROPOSAL];
    const long long *scales = SLOT(const long long, t, ST_SCALES);
    const double *fixed_cpu = SLOT(const double, t, ST_FIXED_CPU);
    const double *fixed_gpu = SLOT(const double, t, ST_FIXED_GPU);
    const double *proposal_cpu = SLOT(const double, t, ST_PROPOSAL_CPU);
    const double *proposal_gpu = SLOT(const double, t, ST_PROPOSAL_GPU);
    const double *image_scale = SLOT(const double, t, ST_IMAGE_SCALE);
    const long long *proposals = SLOT(const long long, t, ST_PROPOSALS);
    double *latency = SLOT(double, t, ST_LATENCY);
    double *cpu_util = SLOT(double, t, ST_CPU_UTILISATION);
    double *gpu_util = SLOT(double, t, ST_GPU_UTILISATION);
    double *duration = SLOT(double, device, FD_DURATION);
    double *cpu_in = SLOT(double, cpu, D_UTILISATION);
    double *gpu_in = SLOT(double, gpu, D_UTILISATION);
    for (long j = 0; j < n; j++) {
        double scale = image_scale[j];
        double count = per_proposal ? (double)proposals[j] : 0.0;
        double cpu_kc = 0.0, gpu_kc = 0.0;
        for (long s = 0; s < stages; s++) {
            double fc = scales[s] ? fixed_cpu[s] * scale : fixed_cpu[s];
            double fg = scales[s] ? fixed_gpu[s] * scale : fixed_gpu[s];
            if (per_proposal) {
                cpu_kc = cpu_kc + (fc + proposal_cpu[s] * count);
                gpu_kc = gpu_kc + (fg + proposal_gpu[s] * count);
            } else {
                cpu_kc = cpu_kc + fc;
                gpu_kc = gpu_kc + fg;
            }
        }
        segment_model(cpu_kc, gpu_kc, cpu_frequency[cpu_level[j]],
                      gpu_frequency[gpu_level[j]], c, &latency[j], &cpu_util[j],
                      &gpu_util[j]);
        duration[j] = latency[j];
        cpu_in[j] = cpu_util[j];
        gpu_in[j] = gpu_util[j];
    }
    fleet_device_execute(device, SLOT(const double, t, ST_DEVICE_CONSTANTS));
    const double *energy = SLOT(const double, device, FD_ENERGY);
    double *frame_energy = SLOT(double, t, ST_FRAME_ENERGY);
    for (long j = 0; j < n; j++) {
        frame_energy[j] = frame_energy[j] + energy[j];
    }
    return 0;
}

/* Whether a domain's D_REQUEST levels all lie in [0, num_levels) where the
   request applies (`mask` NULL: everywhere). */
static int request_in_range(long n, const long long *d, const unsigned char *mask) {
    const long long *request = SLOT(const long long, d, D_REQUEST);
    long long num_levels = d[D_NUM_LEVELS];
    for (long j = 0; j < n; j++) {
        if ((mask == NULL || mask[j]) && (request[j] < 0 || request[j] >= num_levels)) {
            return 0;
        }
    }
    return 1;
}

/* DeviceFleet.request_levels over the fleet's table, once the caller has
   copied the request into the FD_REQUEST_MASK and D_REQUEST buffers: the
   CPU's applied levels are range-checked, then the GPU's, and only if both
   pass are they written into D_REQUESTED (where the mask is set, or
   everywhere when `masked` is 0) and both domains' caps re-applied:
     level = throttled ? minimum(requested, throttled_level) : requested
   Returns 0, or 1 (CPU) / 2 (GPU) for the first domain out of range, before
   writing anything. */
long fleet_request_levels(const long long *t, long masked) {
    long n = t[FD_SESSIONS];
    const unsigned char *mask = masked ? SLOT(const unsigned char, t, FD_REQUEST_MASK) : NULL;
    const long long *domains[2] = {t + FD_SLOTS, t + FD_SLOTS + D_SLOTS};
    for (int k = 0; k < 2; k++) {
        if (!request_in_range(n, domains[k], mask)) return k + 1;
    }
    for (int k = 0; k < 2; k++) {
        const long long *d = domains[k];
        const long long *request = SLOT(const long long, d, D_REQUEST);
        long long *requested = SLOT(long long, d, D_REQUESTED);
        long long *level = SLOT(long long, d, D_LEVEL);
        const unsigned char *throttled = SLOT(const unsigned char, d, D_THROTTLED);
        long long cap = d[D_THROTTLED_LEVEL];
        for (long j = 0; j < n; j++) {
            if (mask == NULL || mask[j]) requested[j] = request[j];
            long long r = requested[j];
            level[j] = (throttled[j] && cap < r) ? cap : r;
        }
    }
    return 0;
}

/* int64 arithmetic that wraps, as NumPy's does. */
static inline long long wrapping_add(long long a, long long b) {
    return (long long)((unsigned long long)a + (unsigned long long)b);
}

/* select_levels of the batched governor whose GV_* slots and GC_*
   constants are `t` and `c`, into GV_LEVELS, for `num_levels` levels
   (top = num_levels - 1).  Every kind first clips the utilisation,
   u = minimum(maximum(u, 0.0), 1.0); np.round is rint (half to even) and
   astype(int64) truncates an integral value:
     schedutil:  target = int(minimum(top, rint(minimum(1.0, margin * u) * top
                          + 0.49))); with a step, target < current - step
                          becomes current - step; then clip(target, 0, top)
     ondemand:   target = u >= up ? top : int(rint(u / up * top));
                 clip(target, 0, top)
     simple_ondemand: u >= up ? minimum(top, current + step)
                      : u <= down ? maximum(0, current - 1) : current
   Returns 1, before writing anything, when a utilisation is not finite. */
long fleet_select_levels(const long long *t, const double *c, long num_levels) {
    long n = t[GV_SESSIONS];
    const double *utilisation = SLOT(const double, t, GV_UTILISATION);
    const long long *current = SLOT(const long long, t, GV_CURRENT);
    long long *out = SLOT(long long, t, GV_LEVELS);
    long long step = t[GV_STEP];
    long long top = (long long)num_levels - 1;
    double top_f = (double)top;
    for (long j = 0; j < n; j++) {
        if (!isfinite(utilisation[j])) return 1;
    }
    for (long j = 0; j < n; j++) {
        double u = np_minimum(np_maximum(utilisation[j], 0.0), 1.0);
        long long target;
        switch (t[GV_KIND]) {
        case GK_SCHEDUTIL: {
            double fraction = np_minimum(1.0, c[GC_MARGIN] * u);
            target = (long long)np_minimum(top_f, rint(fraction * top_f + 0.49));
            if (step) {
                long long floor = wrapping_add(current[j], -step);
                if (target < floor) target = floor;
            }
            break;
        }
        case GK_ONDEMAND:
            target = u >= c[GC_UP_THRESHOLD] ? top
                                             : (long long)rint(u / c[GC_UP_THRESHOLD] * top_f);
            break;
        default: {
            long long up = wrapping_add(current[j], step);
            long long down = wrapping_add(current[j], -1);
            out[j] = u >= c[GC_UP_THRESHOLD] ? (top < up ? top : up)
                     : u <= c[GC_DOWN_THRESHOLD] ? (down > 0 ? down : 0)
                                                 : current[j];
            continue;
        }
        }
        target = target > 0 ? target : 0;
        out[j] = target < top ? target : top;
    }
    return 0;
}
