/* Energies of QUBO states, each summed over its set bits in index order.
 *
 * qubo_energies is the kernel of latentqubo.samplers.brute_force_sample.
 * State s sets x_i = (s >> i) & 1, and out[t] receives the energy of state
 * start + t:
 *
 *     (0.0 + offset) + sum over set i of field_i,
 *     field_i = (0.0 + linear[i]) + sum over set j > i of upper[i][j]
 *
 * with every sum taken in ascending index order.  That order is the
 * definition of latentqubo.qubo.qubo_energy, so each energy is bit-identical
 * to it.  field_i depends only on the bits above i, and from state s - 1 to
 * s those bits are unchanged for every i >= ctz(s), while the bits below
 * ctz(s) are cleared.  So the fields of set bits are kept from state to
 * state, and each state sums only the field of its new bit ctz(s), then its
 * energy: O(set bits) per state after the first.  ctz finds the next set
 * bit.
 *
 * qubo_row_energies is the kernel of latentqubo.qubo.qubo_energy: the same
 * sums for each row of a matrix of 0/1 bytes, over the list of the row's set
 * bits, O(set bits^2) a row.
 *
 * upper is the dense strictly upper-triangular n x n matrix.  The caller owns
 * every buffer, so neither kernel allocates anything.  ptrdiff_t matches
 * numpy's intp.
 */
#include <stddef.h>
#include <stdint.h>

void qubo_energies(ptrdiff_t n, ptrdiff_t start, ptrdiff_t count, const double *linear,
                   const double *upper, double offset, double *out)
{
    double field[64]; /* field[i] for each set bit i of the current state */
    for (ptrdiff_t t = 0; t < count; t++) {
        const uint64_t state = (uint64_t)(start + t);
        /* the first state sums every field; each later one only its lowest set bit's */
        for (uint64_t fresh = t ? state & -state : state; fresh; fresh &= fresh - 1) {
            const int i = __builtin_ctzll(fresh);
            const double *row = upper + i * n;
            double sum = 0.0 + linear[i];
            for (uint64_t above = state & ~(fresh ^ (fresh - 1)); above; above &= above - 1)
                sum += row[__builtin_ctzll(above)];
            field[i] = sum;
        }
        double energy = 0.0 + offset;
        for (uint64_t rest = state; rest; rest &= rest - 1)
            energy += field[__builtin_ctzll(rest)];
        out[t] = energy;
    }
}

/* out[r] = the energy of row r of bits (rows x n, each 0 or 1); nonzero: n indices of scratch. */
void qubo_row_energies(ptrdiff_t rows, ptrdiff_t n, const uint8_t *bits, const double *linear,
                       const double *upper, double offset, ptrdiff_t *nonzero, double *out)
{
    for (ptrdiff_t r = 0; r < rows; r++) {
        ptrdiff_t count = 0;
        for (ptrdiff_t j = 0; j < n; j++)
            if (bits[r * n + j])
                nonzero[count++] = j;
        double energy = 0.0 + offset;
        for (ptrdiff_t a = 0; a < count; a++) {
            const double *row = upper + nonzero[a] * n;
            double field = 0.0 + linear[nonzero[a]];
            for (ptrdiff_t b = a + 1; b < count; b++)
                field += row[nonzero[b]];
            energy += field;
        }
        out[r] = energy;
    }
}
