/* All arithmetic on econocast's nets: per-pattern steps, epochs, the
   epoch-end error and the forward pass that predicts. econocast.mlp builds
   it at the first training or prediction and loads it through ctypes.

   A net of L layers has sizes[0..L]. Every layer but the last is logistic,
   the last is linear. Its parameters lie in one flat buffer: per layer the
   (out, in) weights in row order, then the out biases. A gradient has the
   same layout.

   Each operation is the one numpy makes for a lone net, so the bits are
   numpy's. A product is the BLAS call numpy's dot makes on the same views:
   an elementwise multiply where the contraction has length one, ddot for a
   single output row, dgemv otherwise, with numpy's order and transpose. The
   exp is numpy's own float64 loop, run on the contiguous layer vector as
   np.exp runs it. The forward pass over every row is numpy's 2-D pass, each
   layer's a @ w.T np.matmul's own float64 loop, so numpy's choice of dgemm,
   dgemv, ddot or no BLAS is made here too; the error's sum of squares is
   np.add's own float64 loop in its reduce form, the pairwise sum np.mean
   runs. Every other step is one IEEE operation in numpy's order.
   Build with -ffp-contract=off: a fused multiply-add rounds once where
   numpy rounds twice. */

#include <math.h>
#include <stdint.h>

#include <Python.h>
#include <numpy/ndarraytypes.h>
#include <numpy/ufuncobject.h>

typedef BLAS_INT blasint;
typedef void dgemv_fn(int order, int trans, blasint m, blasint n, double alpha,
                      const double *a, blasint lda, const double *x, blasint incx,
                      double beta, double *y, blasint incy);
typedef double ddot_fn(blasint n, const double *x, blasint incx, const double *y,
                       blasint incy);

enum { ROW_MAJOR = 101, COL_MAJOR = 102, NO_TRANS = 111 };

static dgemv_fn *dgemv;
static ddot_fn *ddot;
static PyUFuncGenericFunction exp_loop, matmul_loop, add_loop;
static void *exp_data, *matmul_data, *add_data;

/* Reads into loop and data the loop of ufunc whose every operand is float64.
   Returns 0, or -1 if it has none. */
static int float64_loop(PyObject *ufunc, PyUFuncGenericFunction *loop, void **data)
{
    PyUFuncObject *u = (PyUFuncObject *)ufunc;
    for (int i = 0; i < u->ntypes; i++) {
        int k = 0;
        while (k < u->nargs && u->types[i * u->nargs + k] == NPY_DOUBLE)
            k++;
        if (k == u->nargs) {
            *loop = u->functions[i];
            *data = u->data ? u->data[i] : NULL;
            return 0;
        }
    }
    return -1;
}

/* Takes numpy's cblas_dgemv and cblas_ddot, and np.exp, np.matmul and
   np.add. Returns 0, or the position among the three of the first with no
   float64 loop. */
int bind(void *gemv, void *dot, PyObject *exp, PyObject *matmul, PyObject *add)
{
    dgemv = (dgemv_fn *)gemv;
    ddot = (ddot_fn *)dot;
    if (float64_loop(exp, &exp_loop, &exp_data))
        return 1;
    if (float64_loop(matmul, &matmul_loop, &matmul_data))
        return 2;
    if (float64_loop(add, &add_loop, &add_data))
        return 3;
    return 0;
}

/* z = w x, w (m, n) in row order. numpy's dot on one row takes a ddot into
   a sum that starts at +0. */
static void product(const double *w, int64_t m, int64_t n, const double *x, double *z)
{
    if (n == 1)
        for (int64_t j = 0; j < m; j++)
            z[j] = w[j] * x[0];
    else if (m == 1)
        z[0] = 0.0 + ddot(n, w, 1, x, 1);
    else
        dgemv(ROW_MAJOR, NO_TRANS, m, n, 1.0, w, n, x, 1, 0.0, z, 1);
}

/* z = w^T d, w (m, n) in row order: numpy's dot on the transposed view,
   which is column-major. */
static void product_t(const double *w, int64_t m, int64_t n, const double *d, double *z)
{
    if (m == 1)
        for (int64_t i = 0; i < n; i++)
            z[i] = w[i] * d[0];
    else if (n == 1)
        z[0] = 0.0 + ddot(m, w, 1, d, 1);
    else
        dgemv(COL_MAJOR, NO_TRANS, n, m, 1.0, w, n, d, 1, 0.0, z, 1);
}

/* Overwrites z with its logistic: 1 / (1 + e) for z >= 0 and e / (1 + e)
   below, with e = exp(-|z|), which never overflows. The numerator
   fmax(e, sign(z)) is 1 for z >= 0 (as e <= 1 there) and e below. e is
   scratch of z's size. */
static void logistic(double *z, double *e, int64_t m)
{
    char *args[2] = {(char *)e, (char *)e};
    npy_intp count = m, steps[2] = {sizeof(double), sizeof(double)};
    for (int64_t j = 0; j < m; j++)
        e[j] = copysign(z[j], -1.0);
    exp_loop(args, &count, steps, exp_data);
    for (int64_t j = 0; j < m; j++) {
        double sign = z[j] > 0 ? 1.0 : z[j] < 0 ? -1.0 : z[j];
        z[j] = fmax(e[j], sign) / (e[j] + 1.0);
    }
}

/* The gradient of E = 1/2 * sum((out - t)^2) for the pattern x, by reverse
   accumulation, into g. Each delta dE/dz is written as its layer's bias
   gradient. work holds 2 * (sizes[1] + ... + sizes[layers]) doubles: each
   layer's activation, then scratch for its logistic. */
void gradient(const int64_t *sizes, int64_t layers, const double *p, const double *x,
              const double *t, double *g, double *work)
{
    int64_t off[layers];
    double *act[layers];
    for (int64_t l = 0, o = 0; l < layers; l++) {
        int64_t n = sizes[l], m = sizes[l + 1];
        double *z = act[l] = l ? act[l - 1] + 2 * n : work;
        const double *b = p + o + m * n;
        off[l] = o;
        product(p + o, m, n, l ? act[l - 1] : x, z);
        for (int64_t j = 0; j < m; j++)
            z[j] = z[j] + b[j];
        if (l < layers - 1)
            logistic(z, z + m, m);
        o += m * n + m;
    }
    for (int64_t l = layers - 1; l >= 0; l--) {
        int64_t n = sizes[l], m = sizes[l + 1];
        const double *a = act[l], *below = l ? act[l - 1] : x;
        double *dw = g + off[l], *d = dw + m * n;
        if (l == layers - 1)
            for (int64_t j = 0; j < m; j++)
                d[j] = a[j] - t[j];
        else
            for (int64_t j = 0; j < m; j++)
                d[j] = d[j] * (a[j] * (1.0 - a[j]));
        for (int64_t j = 0; j < m; j++)
            for (int64_t i = 0; i < n; i++)
                dw[j * n + i] = d[j] * below[i];
        if (l)
            product_t(p + off[l], m, n, d, dw - n); /* the delta below is its bias gradient */
    }
}

/* One epoch: for each row of X with its target row of Y, in order, its
   gradient, then the update g = g * eta; p = p - g of all size parameters.
   An overflow shows only in the loss, which the caller reads. The
   floating-point flags it raises need no clearing: numpy clears them before
   each operation that checks them. */
void epoch(const int64_t *sizes, int64_t layers, double *p, double *g, int64_t size,
           const double *X, const double *Y, int64_t rows, double eta, double *work)
{
    for (int64_t r = 0; r < rows; r++) {
        gradient(sizes, layers, p, X + r * sizes[0], Y + r * sizes[layers], g, work);
        for (int64_t k = 0; k < size; k++) {
            g[k] = g[k] * eta;
            p[k] = p[k] - g[k];
        }
    }
}

/* The (rows, sizes[layers]) outputs of the net for the rows of X, in buf:
   numpy's 2-D pass, per layer a @ w.T + b, then the logistic but at the
   last. buf holds rows * 2 * (sizes[1] + ... + sizes[layers]) doubles: each
   layer's activations of every row, then scratch for its logistic. */
double *forward(const int64_t *sizes, int64_t layers, const double *p, const double *X,
                int64_t rows, double *buf)
{
    const double *a = X;
    double *z = buf;
    for (int64_t l = 0, o = 0; l < layers; l++) {
        int64_t n = sizes[l], m = sizes[l + 1];
        const double *w = p + o, *b = w + m * n;
        /* a (rows, n) in row order times the transposed view of w (m, n):
           the dimensions and strides np.matmul passes its loop. */
        char *args[3] = {(char *)a, (char *)w, (char *)z};
        npy_intp dims[4] = {1, rows, n, m};
        npy_intp steps[9] = {0, 0, 0, n * sizeof(double), sizeof(double), sizeof(double),
                             n * sizeof(double), m * sizeof(double), sizeof(double)};
        matmul_loop(args, dims, steps, matmul_data);
        for (int64_t r = 0; r < rows; r++)
            for (int64_t j = 0; j < m; j++)
                z[r * m + j] = z[r * m + j] + b[j];
        if (l < layers - 1)
            logistic(z, z + rows * m, rows * m);
        a = z;
        z += 2 * rows * m;
        o += m * n + m;
    }
    return z - 2 * rows * sizes[layers];
}

/* np.mean((out - Y) ** 2) of forward's outputs, in its buf, whose last
   layer's logistic scratch holds the squares. */
static double loss(const int64_t *sizes, int64_t layers, const double *p, const double *X,
                   const double *Y, int64_t rows, double *buf)
{
    double *out = forward(sizes, layers, p, X, rows, buf);
    int64_t count = rows * sizes[layers];
    double *sq = out + count, acc = 0.0;
    for (int64_t k = 0; k < count; k++) {
        double d = out[k] - Y[k];
        sq[k] = d * d;
    }
    /* np.add.reduce: the loop adds the pairwise sum of sq into acc, which
       starts at add's identity. */
    char *args[3] = {(char *)&acc, (char *)sq, (char *)&acc};
    npy_intp n = count, steps[3] = {0, sizeof(double), 0};
    add_loop(args, &n, steps, add_data);
    return acc / count;
}

/* Trains a net: epochs, each followed by its error over every row, until
   the error reaches target_error or is not finite (divergence), or
   max_epochs have run. Writes the last error to *error and returns the
   epochs run. buf is the scratch of loss. */
int64_t train(const int64_t *sizes, int64_t layers, double *p, double *g, int64_t size,
              const double *X, const double *Y, int64_t rows, double eta, double *work,
              double *buf, int64_t max_epochs, double target_error, double *error)
{
    int64_t epochs = 0;
    do {
        epoch(sizes, layers, p, g, size, X, Y, rows, eta, work);
        *error = loss(sizes, layers, p, X, Y, rows, buf);
    } while (++epochs < max_epochs && *error > target_error && isfinite(*error));
    return epochs;
}
