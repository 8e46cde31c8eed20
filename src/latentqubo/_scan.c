/* Energies of one chunk of QUBO states, walked in Gray-code order.
 *
 * The screen of latentqubo.samplers.brute_force_sample, after Bouman et al.,
 * "Fast exhaustive search for polynomial systems in F2", CHES 2010.  State s
 * sets x_i = (s >> i) & 1.  A chunk is the 2^low states start + g, g < 2^low,
 * with start a multiple of 2^low, so its bits from low up are fixed.  The walk
 * visits g in Gray-code order, g(t) = t ^ (t >> 1): step t flips the one bit
 * b = ctz(t), which changes the energy by (1 - 2 x_b) * f_b, where
 * f_j = linear[j] + sum_i coupling[j, i] * x_i is the local field, and each
 * low field f_j by (1 - 2 x_b) * coupling[j, b].  So each state costs O(low).
 * energies[g] receives the energy of state start + g.
 *
 * The energy and the fields are summed from scratch at the start of every
 * chunk, so rounding drift spans at most 2^low - 1 updates; samplers.py
 * derives the bound on it.  coupling is the dense symmetric zero-diagonal
 * n x n matrix, and field holds low doubles of the caller's scratch, so the
 * kernel allocates nothing.  ptrdiff_t matches numpy's intp.
 */
#include <stddef.h>

void gray_scan(ptrdiff_t n, ptrdiff_t low, ptrdiff_t start, const double *linear,
               const double *coupling, double offset, double *field, double *energies)
{
    double energy = offset;
    for (ptrdiff_t i = low; i < n; i++) {
        if (!(start >> i & 1))
            continue;
        energy += linear[i];
        for (ptrdiff_t j = low; j < i; j++)
            if (start >> j & 1)
                energy += coupling[i * n + j];
    }
    for (ptrdiff_t j = 0; j < low; j++) {
        double f = linear[j];
        for (ptrdiff_t i = low; i < n; i++)
            if (start >> i & 1)
                f += coupling[j * n + i];
        field[j] = f;
    }
    energies[0] = energy;
    ptrdiff_t g = 0;
    for (ptrdiff_t t = 1; t < (ptrdiff_t)1 << low; t++) {
        const int b = __builtin_ctzll((unsigned long long)t);
        const double sign = g >> b & 1 ? -1.0 : 1.0;
        const double *row = coupling + b * n;
        energy += sign * field[b];
        g ^= (ptrdiff_t)1 << b;
        for (ptrdiff_t j = 0; j < low; j++)
            field[j] += sign * row[j];
        energies[g] = energy;
    }
}
