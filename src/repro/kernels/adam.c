/* The adam family: the kernels a DQN learner on the NumPy path uses. */
#include "kernels.h"

/* A whole sliced optimizer step in one call: k row-strided regions (one
   per parameter array), pointer tables prepared once by the caller. */
void adam_step_multi(long k, const long *rows, const long *cols,
                     const long *strides, double **ps, double **gs,
                     double **ms, double **vs,
                     double lr, double beta1, double beta2, double eps,
                     double bc1, double bc2) {
    for (long i = 0; i < k; i++) {
        adam_region(rows[i], cols[i], strides[i], ps[i], gs[i], ms[i], vs[i],
                    lr, beta1, beta2, eps, bc1, bc2);
    }
}

/* One Adam step over the active rectangle of a row-strided parameter:
   p/m/v address (rows x cols) blocks with a row stride (in elements), g is
   contiguous (rows x cols).  Per element, as Adam.step_sliced:
     m = (m * beta1) + (omb1 * g)
     v = (v * beta2) + (omb2 * (g * g))
     p -= (lr * (m / bc1)) / (sqrt(v / bc2) + eps) */
void adam_region(long rows, long cols, long stride, double *p, const double *g,
                 double *m, double *v, double lr, double beta1, double beta2,
                 double eps, double bc1, double bc2) {
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

/* Bias add + ReLU for one layer of the Q forward (SlimmableMLP's hidden
   layers, and every layer of the dqn kernels):
     z[i][j] += b[j];  act[i][j] = maximum(z[i][j], 0.0)
   `act` may alias `z`, and is NULL for the output layer (bias add only).
   The ReLU is np_maximum, so a NaN propagates and a -0.0 pre-activation
   becomes +0.0, as in NumPy. */
void bias_relu(long rows, long cols, double *z, const double *b, double *act) {
    for (long r = 0; r < rows; r++) {
        double *zr = z + r * cols;
        for (long c = 0; c < cols; c++) {
            double zv = zr[c] + b[c];
            zr[c] = zv;
            if (act) act[r * cols + c] = np_maximum(zv, 0.0);
        }
    }
}
