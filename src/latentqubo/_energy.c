/* Energies of a run of QUBO states, each summed over its set bits in index order.
 *
 * The kernel of latentqubo.samplers.brute_force_sample.  State s sets
 * x_i = (s >> i) & 1, and out[t] receives the energy of state start + t:
 *
 *     (0.0 + offset) + sum over set i of field_i,
 *     field_i = (0.0 + linear[i]) + sum over set j > i of upper[i][j]
 *
 * with every sum taken in ascending index order.  That order is the
 * definition of latentqubo.qubo.qubo_energy, so each energy is bit-identical
 * to it.  Each state costs O(set bits^2); ctz finds the next set bit.
 * upper is the dense strictly upper-triangular n x n matrix, and the kernel
 * allocates nothing.  ptrdiff_t matches numpy's intp.
 */
#include <stddef.h>
#include <stdint.h>

void qubo_energies(ptrdiff_t n, ptrdiff_t start, ptrdiff_t count, const double *linear,
                   const double *upper, double offset, double *out)
{
    for (ptrdiff_t t = 0; t < count; t++) {
        double energy = 0.0 + offset;
        for (uint64_t rest = (uint64_t)(start + t); rest;) {
            const int i = __builtin_ctzll(rest);
            const double *row = upper + i * n;
            double field = 0.0 + linear[i];
            rest &= rest - 1;
            for (uint64_t above = rest; above; above &= above - 1)
                field += row[__builtin_ctzll(above)];
            energy += field;
        }
        out[t] = energy;
    }
}
