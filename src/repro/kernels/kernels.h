/* Helpers shared by the kernel families.  Every floating-point operation in
   the kernels is written in the operand pairing and order of the NumPy code
   it replaces, and -ffp-contract=off keeps the rounding: each kernel
   reproduces its owner's NumPy path bit for bit. */
#ifndef REPRO_KERNELS_H
#define REPRO_KERNELS_H

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

#endif
