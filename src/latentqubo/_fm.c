/* One epoch of per-sample Adagrad for a second-order factorization machine.
 *
 * The inner loop of latentqubo.fm.fm_train in C.  Rows are visited in the
 * given order; at each row x (n bits, row-major uint8) with target y:
 *
 *   s_f  = sum_i V_if x_i
 *   pred = w0 + sum_i w_i x_i + 0.5 * (sum_f s_f^2 - sum_i sum_f V_if^2 x_i)
 *   r2   = 2 * (pred - y)
 *
 * and the squared-error gradients are r2 for w0, r2 x_i for w_i and
 * r2 x_i (s_f - V_if) for V_if.  Each gradient's square is added to its
 * accumulator and the parameter steps by lr * g / (sqrt(acc) + 1e-8), as in
 * the numpy loop.  A bit with x_i = 0 has zero gradient and leaves w_i, V_i
 * and their accumulators as they are, so only set bits are visited.
 *
 * The sums run in index order where numpy's dot products and pairwise sums
 * may group the same terms otherwise, so the parameters agree with the numpy
 * loop to rounding, not bit for bit.  Compile with -ffp-contract=off.
 * s is scratch of k doubles.  ptrdiff_t matches numpy's intp.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

void fm_epoch(ptrdiff_t n, ptrdiff_t k, ptrdiff_t rows, const ptrdiff_t *order,
              const uint8_t *X, const double *Y, double lr,
              double *w0, double *w, double *V,
              double *acc_w0, double *acc_w, double *acc_V, double *s)
{
    const double eps = 1e-8;
    for (ptrdiff_t r = 0; r < rows; r++) {
        const uint8_t *x = X + order[r] * n;
        double linear = 0.0, squares = 0.0;
        for (ptrdiff_t f = 0; f < k; f++)
            s[f] = 0.0;
        for (ptrdiff_t i = 0; i < n; i++) {
            if (!x[i])
                continue;
            const double *v = V + i * k;
            linear += w[i];
            for (ptrdiff_t f = 0; f < k; f++) {
                s[f] += v[f];
                squares += v[f] * v[f];
            }
        }
        double pairs = 0.0;
        for (ptrdiff_t f = 0; f < k; f++)
            pairs += s[f] * s[f];
        const double pred = *w0 + linear + 0.5 * (pairs - squares);
        const double r2 = 2.0 * (pred - Y[order[r]]);

        *acc_w0 += r2 * r2;
        *w0 -= lr * r2 / (sqrt(*acc_w0) + eps);
        for (ptrdiff_t i = 0; i < n; i++) {
            if (!x[i])
                continue;
            acc_w[i] += r2 * r2;
            w[i] -= lr * r2 / (sqrt(acc_w[i]) + eps);
            double *v = V + i * k, *acc = acc_V + i * k;
            for (ptrdiff_t f = 0; f < k; f++) {
                const double g = r2 * (s[f] - v[f]);
                acc[f] += g * g;
                v[f] -= lr * g / (sqrt(acc[f]) + eps);
            }
        }
    }
}
