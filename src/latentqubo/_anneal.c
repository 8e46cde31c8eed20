/* Metropolis sweeps of one simulated-annealing read over a dense QUBO.
 *
 * The sweep loop of latentqubo.samplers.simulated_annealing_sample in C,
 * after Isakov et al., "Optimised simulated annealing code for spin glasses",
 * Comput. Phys. Commun. 192 (2015).  Each sweep visits the bits in index
 * order, as dwave-neal does, so the read's only draws are its uniforms
 * (sweeps x n, row-major; no visiting orders).  It takes the numpy loop's
 * steps: the local field is linear[i] + sum_j coupling[i, j] * x[j], and the
 * flip of bit i in sweep t is accepted when
 * uniforms[t * n + i] < exp(min(0, -beta * delta)).  The field is summed
 * from 0.0 in index order and exp is the C library's on both paths, so the
 * two give the same reads bit for bit.
 *
 * The sum visits only the set bits of x, in index order, from a bitmask of
 * x that the step keeps current (one bit flips with each accepted flip).
 * This is bit-identical to the dense index-order sum: x[j] is exactly 0.0
 * or 1.0, so a skipped term coupling[i, j] * 0.0 is +-0.0, and adding +-0.0
 * leaves a nonzero sum unchanged and a +0.0 sum +0.0 (the dense sum starts
 * at +0.0 and, rounding to nearest, never reaches -0.0).  The caller owns the
 * mask, (n + 63) / 64 words, so the kernel allocates nothing.
 *
 * Compile without -ffast-math and with -ffp-contract=off, so the sum keeps
 * its order and exp stays the C library's.  ptrdiff_t matches numpy's intp.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

void anneal_read(ptrdiff_t n, ptrdiff_t sweeps, const double *linear,
                 const double *coupling, const double *betas,
                 const double *uniforms, double *x, uint64_t *mask)
{
    const ptrdiff_t words = (n + 63) / 64;
    for (ptrdiff_t w = 0; w < words; w++)
        mask[w] = 0;
    for (ptrdiff_t j = 0; j < n; j++)
        if (x[j] != 0.0)
            mask[j / 64] |= (uint64_t)1 << (j % 64);
    for (ptrdiff_t t = 0; t < sweeps; t++) {
        const double beta = betas[t];
        for (ptrdiff_t i = 0; i < n; i++) {
            const double *row = coupling + i * n;
            double field = 0.0;
            for (ptrdiff_t w = 0; w < words; w++)
                for (uint64_t bits = mask[w]; bits; bits &= bits - 1)
                    field += row[w * 64 + __builtin_ctzll(bits)];
            const double delta = (1.0 - 2.0 * x[i]) * (linear[i] + field);
            const double exponent = -beta * delta;
            if (uniforms[t * n + i] < exp(exponent < 0.0 ? exponent : 0.0)) {
                x[i] = 1.0 - x[i];
                mask[i / 64] ^= (uint64_t)1 << (i % 64);
            }
        }
    }
}
