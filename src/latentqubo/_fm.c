/* Per-sample Adagrad for a second-order factorization machine, all epochs.
 *
 * The training loop of latentqubo.fm.fm_train in C.  It visits the rows in
 * orders, one shuffle per epoch (epochs x rows, row-major).  At each row x
 * (n bits, row-major uint8) with target y:
 *
 *   s_f  = sum_i V_if x_i
 *   pred = w0 + sum_i w_i x_i + 0.5 * (sum_f s_f^2 - sum_i sum_f V_if^2 x_i)
 *   r2   = 2 * (pred - y)
 *
 * and the squared-error gradients are r2 for w0, r2 x_i for w_i and
 * r2 x_i (s_f - V_if) for V_if.  Each gradient's square is added to its
 * accumulator and the parameter steps by lr * g / (sqrt(acc) + 1e-8).  A bit
 * with x_i = 0 has zero gradient and leaves w_i, V_i and their accumulators
 * as they are, so only set bits are visited: each row's set-bit indices are
 * written once, in ascending order and without a branch, into the list on,
 * and both the prediction and the update run over that list (a test per bit
 * mispredicts on random rows, which cost a third of the call).
 *
 * Every sum starts at 0.0 and adds its terms in index order (the squares
 * over i, then f), as fm._fit_numpy does, so both give the same bits.
 * A set bit's k factors are updated under omp simd simdlen(2) (the package
 * builds with -fopenmp-simd): the compiler takes two factors a vector, each
 * lane rounding as the scalar lines do, and its epilogue takes an odd last
 * factor.  The update is bound by the divider and the square root, which then
 * take two factors per instruction; at the host's full width of 8, a rank-8
 * fit ran 6-14 % slower on an AVX-512 x86-64.  Compile with -ffp-contract=off,
 * and with -fno-math-errno so that sqrt is one instruction.  s is k doubles
 * and on n indices of scratch; ptrdiff_t is numpy's intp.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

void fm_fit(ptrdiff_t n, ptrdiff_t k, ptrdiff_t epochs, ptrdiff_t rows,
            const ptrdiff_t *orders, const uint8_t *X, const double *Y, double lr,
            double *w0, double *w, double *V,
            double *acc_w0, double *acc_w, double *acc_V, double *s, ptrdiff_t *on)
{
    const double eps = 1e-8;
    for (ptrdiff_t r = 0; r < epochs * rows; r++) {
        const uint8_t *x = X + orders[r] * n;
        ptrdiff_t count = 0;
        for (ptrdiff_t i = 0; i < n; i++) {
            on[count] = i;
            count += x[i] != 0;
        }
        double linear = 0.0, squares = 0.0;
        for (ptrdiff_t f = 0; f < k; f++)
            s[f] = 0.0;
        for (ptrdiff_t c = 0; c < count; c++) {
            const ptrdiff_t i = on[c];
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
        const double r2 = 2.0 * (pred - Y[orders[r]]);

        *acc_w0 += r2 * r2;
        *w0 -= lr * r2 / (sqrt(*acc_w0) + eps);
        for (ptrdiff_t c = 0; c < count; c++) {
            const ptrdiff_t i = on[c];
            acc_w[i] += r2 * r2;
            w[i] -= lr * r2 / (sqrt(acc_w[i]) + eps);
            double *v = V + i * k, *acc = acc_V + i * k;
#pragma omp simd simdlen(2)
            for (ptrdiff_t f = 0; f < k; f++) {
                const double g = r2 * (s[f] - v[f]);
                acc[f] += g * g;
                v[f] -= lr * g / (sqrt(acc[f]) + eps);
            }
        }
    }
}
