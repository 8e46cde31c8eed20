/* The decoder half of the binary autoencoder, in a fixed summation order.
 *
 * The forward pass of latentqubo.bvae.decode in C: for each row of a batch of
 * binary latent vectors, the decoder's three dense layers give that row's
 * head logits, one per pixel.  Unit u of a layer with inputs in and weights W
 * (fan_in x units, row-major) is
 *
 *   (+0.0 + sum over inputs j in ascending order of in[j] * W[j, u]) + b[u],
 *
 * then v > 0 ? v : +0.0 in the two hidden layers, and as it is in the head.
 * Each row is computed alone, so its bits do not depend on the batch it came
 * in, nor on a BLAS; bvae._decode_numpy sums in the same order and gives the
 * same bits.
 *
 * Zero inputs are skipped: a layer first lists the indices of its nonzero
 * inputs, and the sums run over that list.  That is bit-identical to the
 * sum over every input: the weights are finite, so a zero input's term is
 * +0.0 or -0.0, which leaves a nonzero sum unchanged and a +0.0 sum +0.0, and
 * a sum that starts at +0.0 never reaches -0.0 when rounding to nearest.
 *
 * Sixteen units at a time are kept in 16 accumulators, whose loops run under
 * omp simd (the package builds with -fopenmp-simd), so the compiler holds
 * them in vectors of the target's width.  Each unit sums its own terms in the
 * order above, so the width changes the speed and never a bit.  The units past
 * the last whole block of 16 go through the same sums in scalars: a block of
 * variable width that took them too ran 40-50 % slower.  The caller owns every
 * buffer: x (n doubles), h1 (d1), h2 (d2) and nonzero (max(n, d1, d2)
 * indices), so the kernel allocates nothing.
 *
 * Compile without -ffast-math and with -ffp-contract=off, so that each sum
 * keeps its order and no multiply and add fuse; the package builds it with
 * -march=native, which sets the width and nothing else that a result depends
 * on.  ptrdiff_t matches numpy's intp.
 */
#include <stddef.h>
#include <stdint.h>

#define BLOCK 16

/* One dense layer for one row: out = in W + b in the order above, then the ReLU where relu is set. */
static void layer(ptrdiff_t fan_in, ptrdiff_t units, const double *in, const double *w,
                  const double *b, int relu, ptrdiff_t *nonzero, double *out)
{
    ptrdiff_t count = 0;
    for (ptrdiff_t j = 0; j < fan_in; j++) {
        nonzero[count] = j; /* kept only where in[j] is nonzero, without a branch */
        count += in[j] != 0.0;
    }
    ptrdiff_t u = 0;
    for (; u + BLOCK <= units; u += BLOCK) {
        double a[BLOCK] = {0}; /* one accumulator a unit, kept in vector registers */
        for (ptrdiff_t t = 0; t < count; t++) {
            const double *row = w + nonzero[t] * units + u;
#pragma omp simd
            for (int m = 0; m < BLOCK; m++)
                a[m] += in[nonzero[t]] * row[m];
        }
#pragma omp simd
        for (int m = 0; m < BLOCK; m++)
            out[u + m] = a[m] + b[u + m];
    }
    for (; u < units; u++) {
        double a = 0.0;
        for (ptrdiff_t t = 0; t < count; t++)
            a += in[nonzero[t]] * w[nonzero[t] * units + u];
        out[u] = a + b[u];
    }
    if (relu)
        for (u = 0; u < units; u++)
            out[u] = out[u] > 0.0 ? out[u] : 0.0;
}

/* heads[r, :] for each of the rows: the decoder's head logits for latent row bits[r, :]. */
void decode_heads(ptrdiff_t rows, ptrdiff_t n, ptrdiff_t d1, ptrdiff_t d2, ptrdiff_t pixels,
                  const uint8_t *bits, const double *w1, const double *b1, const double *w2,
                  const double *b2, const double *w3, const double *b3, double *x, double *h1,
                  double *h2, ptrdiff_t *nonzero, double *heads)
{
    for (ptrdiff_t r = 0; r < rows; r++) {
        for (ptrdiff_t j = 0; j < n; j++)
            x[j] = bits[r * n + j];
        layer(n, d1, x, w1, b1, 1, nonzero, h1);
        layer(d1, d2, h1, w2, b2, 1, nonzero, h2);
        layer(d2, pixels, h2, w3, b3, 0, nonzero, heads + r * pixels);
    }
}
