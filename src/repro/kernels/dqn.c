/* The dqn family: a whole DqnLearner.train_batch step, or a greedy
   action, per call. */
#include "kernels.h"

/* NumPy's own ILP64 CBLAS entry points (addresses in the argument tables,
   see build.numpy_blas) and cblas.h's enum values.  Every product passes the
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
        adam_region(y[QL_INPUTS], out, y[QL_STRIDE],
                         SLOT(double, y, QL_WEIGHT),
                         SLOT(const double, y, QL_WEIGHT_GRAD),
                         SLOT(double, y, QL_WEIGHT_M),
                         SLOT(double, y, QL_WEIGHT_V), c[QC_LEARNING_RATE],
                         c[QC_BETA1], c[QC_BETA2], c[QC_EPSILON],
                         c[QC_BIAS_CORRECTION1], c[QC_BIAS_CORRECTION2]);
        adam_region(1, out, out, SLOT(double, y, QL_BIAS),
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
