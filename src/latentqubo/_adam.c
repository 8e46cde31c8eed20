/* One Adam step (Kingma & Ba, ICLR 2015) over every parameter of a model.
 *
 * The optimizer step of latentqubo.bvae.bvae_train in C.  The parameters p,
 * the two moment estimates m and v and the gradient g are each one flat
 * vector of size doubles, and one pass updates every element in place:
 *
 *   m = b1 * m + (1 - b1) * g
 *   v = b2 * v + (1 - b2) * (g * g)
 *   p = p - lr * (m / c1) / (sqrt(v / c2) + eps)
 *
 * c1 = 1 - b1^t and c2 = 1 - b2^t are the caller's bias corrections for step
 * t.  Each operation rounds once, in the written order, as the ufuncs of
 * bvae._adam_numpy do, so the two give the same bits.  Pairs of elements go
 * through 2-wide vectors (baseline SSE2 on x86-64), and an odd last element
 * through the same expressions in scalars.
 *
 * Compile with -ffp-contract=off, so that no multiply and add fuse, and with
 * -fno-math-errno, so that sqrt is one instruction; that flag only spares
 * sqrt of a negative number from setting errno, and v is never negative.
 */
#include <math.h>
#include <stddef.h>

/* unaligned 2-wide vectors: numpy guarantees only 8-byte alignment */
typedef double f64x2 __attribute__((vector_size(16), aligned(8)));

void adam_step(ptrdiff_t size, double *p, double *m, double *v, const double *g,
               double lr, double b1, double b2, double c1, double c2, double eps)
{
    ptrdiff_t i = 0;
    for (; i + 2 <= size; i += 2) {
        f64x2 *pp = (f64x2 *)(p + i), *mm = (f64x2 *)(m + i), *vv = (f64x2 *)(v + i);
        const f64x2 gg = *(const f64x2 *)(g + i);
        const f64x2 mi = b1 * *mm + (1.0 - b1) * gg;
        const f64x2 vi = b2 * *vv + (1.0 - b2) * (gg * gg);
        const f64x2 scaled = vi / c2;
        const f64x2 root = {sqrt(scaled[0]), sqrt(scaled[1])};
        *mm = mi;
        *vv = vi;
        *pp = *pp - lr * (mi / c1) / (root + eps);
    }
    for (; i < size; i++) {
        m[i] = b1 * m[i] + (1.0 - b1) * g[i];
        v[i] = b2 * v[i] + (1.0 - b2) * (g[i] * g[i]);
        p[i] = p[i] - lr * (m[i] / c1) / (sqrt(v[i] / c2) + eps);
    }
}
