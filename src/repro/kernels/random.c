/* The random family: per-session normal draws.

   Built only when NumPy's random library was found (REPRO_NPYRANDOM, see
   build.py).  random_normal is NumPy's own C distribution function (linked
   from libnpyrandom.a), the one Generator.normal calls for a scalar draw,
   so every value is bit-identical and every generator advances exactly as
   rng.normal(0.0, scale[i]) would advance it.  Scales are validated by the
   caller (Generator.normal's `scale < 0` check); the generators' Python
   locks are not taken, so a generator must not be used from two threads. */
#ifdef REPRO_NPYRANDOM
#include <numpy/random/bitgen.h>

double random_normal(bitgen_t *bitgen_state, double loc, double scale);

void fleet_normal(long n, bitgen_t **gens, const double *scale, double *out) {
    for (long i = 0; i < n; i++) {
        out[i] = random_normal(gens[i], 0.0, scale[i]);
    }
}
#endif
