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
 * bvae._adam_numpy do, so the two give the same bits.  The loop is written
 * once, in scalars, under omp simd (the package builds with -fopenmp-simd):
 * the compiler runs it at the target's vector width, each lane rounding as
 * the scalar lines do, and its epilogue takes the elements past the last
 * whole vector.  omp simd takes it as given that the four arrays do not
 * overlap, as bvae_train's never do.
 *
 * Compile with -ffp-contract=off, so that no multiply and add fuse, and with
 * -fno-math-errno, so that sqrt is one instruction; that flag only spares
 * sqrt of a negative number from setting errno, and v is never negative.
 */
#include <math.h>
#include <stddef.h>

void adam_step(ptrdiff_t size, double *p, double *m, double *v, const double *g,
               double lr, double b1, double b2, double c1, double c2, double eps)
{
#pragma omp simd
    for (ptrdiff_t i = 0; i < size; i++) {
        m[i] = b1 * m[i] + (1.0 - b1) * g[i];
        v[i] = b2 * v[i] + (1.0 - b2) * (g[i] * g[i]);
        p[i] = p[i] - lr * (m[i] / c1) / (sqrt(v[i] / c2) + eps);
    }
}
