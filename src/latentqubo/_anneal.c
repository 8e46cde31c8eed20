/* Metropolis sweeps of a block of up to 16 simulated-annealing reads over a
 * dense QUBO.
 *
 * The sweep loop of latentqubo.samplers.simulated_annealing_sample in C,
 * after Isakov et al., "Optimised simulated annealing code for spin glasses",
 * Comput. Phys. Commun. 192 (2015).  Each sweep visits the bits in index
 * order, as dwave-neal does, so a read's only draws are its start state and
 * one uniform per step.  It takes the numpy loop's steps: the local field is
 * linear[i] + sum_j coupling[i, j] * x[j], and the flip of bit i in sweep t
 * is accepted when u < exp(min(0, -beta * delta)), u being the read's next
 * uniform.  The field is summed from 0.0 in index order and exp is the C
 * library's on both paths, so the two give the same reads bit for bit.
 *
 * Draws.  Each read's uniforms come from its own numpy PCG64 stream, drawn
 * here in (sweep, bit) order: the caller passes the generator's 128-bit state
 * and increment after it drew the start state, and each draw steps
 * state = state * 0x2360ED051FC65DA44385DF649FCCF645 + inc (mod 2^128), then
 * takes rotr64(hi ^ lo, state >> 122) >> 11, times 2^-53.  That is numpy's
 * PCG64 (XSL-RR) next64 and Generator.random, so the uniforms are the ones
 * numpy would draw, bit for bit, and no buffer of them is ever made.  The
 * 128-bit state needs unsigned __int128 (GCC and Clang on 64-bit targets).
 *
 * Lanes.  Read l of the block sits in lane l.  masks[j * 16 + l] is all ones
 * when bit j of read l is set and zero otherwise, so lane l's term for bit j
 * is one AND of coupling[i, j]'s bits with that word; the caller passes each
 * coefficient twice in a row, so one load fills both lanes of a pair.  Eight
 * 2-wide vector accumulators (baseline SSE2 on x86-64) hold the 16 lanes'
 * fields, and each lane sums its own terms in index order, so a lane's field
 * is the sum over all j of (bit j set ? coupling[i, j] : +0.0).  That is
 * bit-identical to the sum over the set bits alone, and to the dense sum of
 * coupling[i, j] * x[j]: adding +0.0 (or a -0.0 term) leaves a nonzero sum
 * unchanged and a +0.0 sum +0.0, and a sum that starts at +0.0 never
 * reaches -0.0 when rounding to nearest.  Lanes past the block's reads hold
 * zero masks and are never read.  The caller owns the masks, n * 16 words,
 * so the kernel allocates nothing.
 *
 * Compile without -ffast-math and with -ffp-contract=off, so each sum keeps
 * its order and exp stays the C library's.  ptrdiff_t matches numpy's intp.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define LANES 16
#define SIGN_BIT 0x8000000000000000ULL

/* unaligned 2-wide vectors: numpy guarantees only 8-byte alignment */
typedef double f64x2 __attribute__((vector_size(16), aligned(8)));
typedef uint64_t u64x2 __attribute__((vector_size(16), aligned(8)));
typedef unsigned __int128 u128;

static double pcg64_random(u128 *state, u128 inc)
{
    const u128 mult = (u128)0x2360ED051FC65DA4ULL << 64 | 0x4385DF649FCCF645ULL;
    *state = *state * mult + inc;
    const uint64_t word = (uint64_t)(*state >> 64) ^ (uint64_t)*state;
    const unsigned rot = (unsigned)(*state >> 122);
    const uint64_t v = word >> rot | word << ((64 - rot) & 63);
    return (double)(v >> 11) * (1.0 / 9007199254740992.0);
}

/* pairs: n x 2n, coupling[i, j] twice at [i, 2j] and [i, 2j + 1].
 * streams: lanes x 4 words, each read's PCG64 state then increment, low word first.
 * x: lanes x n start states in, final states out.  masks: n x 16 words of scratch. */
void anneal_block(ptrdiff_t n, ptrdiff_t sweeps, ptrdiff_t lanes, const double *linear,
                  const double *pairs, const double *betas, const uint64_t *streams,
                  double *x, uint64_t *masks)
{
    u128 state[LANES], inc[LANES];
    for (ptrdiff_t l = 0; l < lanes; l++) {
        state[l] = (u128)streams[4 * l + 1] << 64 | streams[4 * l];
        inc[l] = (u128)streams[4 * l + 3] << 64 | streams[4 * l + 2];
    }
    for (ptrdiff_t j = 0; j < n; j++)
        for (ptrdiff_t l = 0; l < LANES; l++)
            masks[j * LANES + l] = l < lanes && x[l * n + j] != 0.0 ? UINT64_MAX : 0;
    for (ptrdiff_t t = 0; t < sweeps; t++) {
        const double beta = betas[t];
        for (ptrdiff_t i = 0; i < n; i++) {
            const u64x2 *row = (const u64x2 *)(pairs + 2 * i * n);
            /* eight named accumulators, so that each stays in a register */
            f64x2 a0 = {0.0, 0.0}, a1 = a0, a2 = a0, a3 = a0, a4 = a0, a5 = a0, a6 = a0, a7 = a0;
            for (ptrdiff_t j = 0; j < n; j++) {
                const u64x2 c = row[j], *word = (const u64x2 *)(masks + j * LANES);
                a0 += (f64x2)(c & word[0]);
                a1 += (f64x2)(c & word[1]);
                a2 += (f64x2)(c & word[2]);
                a3 += (f64x2)(c & word[3]);
                a4 += (f64x2)(c & word[4]);
                a5 += (f64x2)(c & word[5]);
                a6 += (f64x2)(c & word[6]);
                a7 += (f64x2)(c & word[7]);
            }
            const f64x2 field[LANES / 2] = {a0, a1, a2, a3, a4, a5, a6, a7};
            /* Every lane draws its uniform; a downhill or level step (exponent >= 0)
             * flips without exp, since exp(0.0) is 1.0 and u < 1.0.  Only the uphill
             * lanes call exp, after the branch-free pass over all lanes. */
            uint64_t *bit = masks + i * LANES;
            double u[LANES], exponent[LANES];
            unsigned uphill = 0;
            for (ptrdiff_t l = 0; l < lanes; l++) {
                u[l] = pcg64_random(&state[l], inc[l]);
                /* delta is (1 - 2 x[i]) * (linear[i] + field): the sign bit flips where x[i] is set */
                union { double f; uint64_t bits; } delta = {linear[i] + field[l / 2][l % 2]};
                delta.bits ^= bit[l] & SIGN_BIT;
                exponent[l] = -beta * delta.f;
                const unsigned up = exponent[l] < 0.0;
                uphill |= up << l;
                bit[l] ^= (uint64_t)up - 1;
            }
            for (; uphill; uphill &= uphill - 1) {
                const int l = __builtin_ctz(uphill);
                bit[l] ^= -(uint64_t)(u[l] < exp(exponent[l]));
            }
        }
    }
    for (ptrdiff_t l = 0; l < lanes; l++)
        for (ptrdiff_t j = 0; j < n; j++)
            x[l * n + j] = masks[j * LANES + l] ? 1.0 : 0.0;
}
