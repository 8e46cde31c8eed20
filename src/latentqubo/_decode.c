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
 * Sixteen units at a time are kept in eight 2-wide vector accumulators
 * (baseline SSE2 on x86-64), as _anneal.c's dense_field does; the units past
 * the last whole block of 16 go through the same sums in scalars.  The caller
 * owns every buffer: x (n doubles), h1 (d1), h2 (d2) and nonzero
 * (max(n, d1, d2) indices), so the kernel allocates nothing.
 *
 * Compile without -ffast-math and with -ffp-contract=off, so that each sum
 * keeps its order and no multiply and add fuse.  ptrdiff_t matches numpy's
 * intp.
 */
#include <stddef.h>
#include <stdint.h>

#define BLOCK 16

/* unaligned 2-wide vectors: numpy guarantees only 8-byte alignment */
typedef double f64x2 __attribute__((vector_size(16), aligned(8)));

/* One dense layer for one row: out = in W + b in the order above, then the ReLU where relu is set. */
static void layer(ptrdiff_t fan_in, ptrdiff_t units, const double *in, const double *w,
                  const double *b, int relu, ptrdiff_t *nonzero, double *out)
{
    ptrdiff_t count = 0;
    for (ptrdiff_t j = 0; j < fan_in; j++)
        if (in[j] != 0.0)
            nonzero[count++] = j;
    ptrdiff_t u = 0;
    for (; u + BLOCK <= units; u += BLOCK) {
        /* eight named accumulators, so that each stays in a register */
        f64x2 a0 = {0.0, 0.0}, a1 = a0, a2 = a0, a3 = a0, a4 = a0, a5 = a0, a6 = a0, a7 = a0;
        for (ptrdiff_t t = 0; t < count; t++) {
            const ptrdiff_t j = nonzero[t];
            const f64x2 c = {in[j], in[j]}, *row = (const f64x2 *)(w + j * units + u);
            a0 += c * row[0];
            a1 += c * row[1];
            a2 += c * row[2];
            a3 += c * row[3];
            a4 += c * row[4];
            a5 += c * row[5];
            a6 += c * row[6];
            a7 += c * row[7];
        }
        const f64x2 *bias = (const f64x2 *)(b + u);
        f64x2 *v = (f64x2 *)(out + u);
        v[0] = a0 + bias[0], v[1] = a1 + bias[1], v[2] = a2 + bias[2], v[3] = a3 + bias[3];
        v[4] = a4 + bias[4], v[5] = a5 + bias[5], v[6] = a6 + bias[6], v[7] = a7 + bias[7];
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
