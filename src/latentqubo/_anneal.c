/* Metropolis sweeps of a block of up to 16 simulated-annealing reads over a
 * dense QUBO, or over the QUBO of a factorization machine through its factors.
 *
 * The sweep loop of latentqubo.samplers.simulated_annealing_sample in C,
 * after Isakov et al., "Optimised simulated annealing code for spin glasses",
 * Comput. Phys. Commun. 192 (2015).  Each sweep visits the bits in index
 * order, as dwave-neal does, so a read's only draws are its start state and
 * one uniform per step.  The flip of bit i in sweep t is accepted when
 * u < exp(min(0, -beta * delta)), u being the read's next uniform and delta
 * (1 - 2 x[i]) * (linear[i] + field).  The numpy loop sums each field in the
 * same order and takes the C library's exp, so the two give the same reads
 * bit for bit.
 *
 * Two forms of the field share the one sweep loop; the caller picks the
 * cheaper.  Dense (k = 0): field = sum_j coupling[i, j] * x[j], O(n) a step.
 * Factored (k >= 1), for the QUBO of a factorization machine, whose coupling
 * is v_i . v_j with v_i row i of the n x k factors V (Rendle, ICDM 2010): each
 * read keeps s = V^T x, field = sum_f V[i, f] * s[f] - (x[i] ? |v_i|^2 : +0.0)
 * is O(k) a step, and an accepted flip adds +-V[i, f] to s[f], O(k) again.
 * The two fields round differently, so the forms part only where a uniform
 * falls between their two thresholds.  The caller takes the factored form for
 * n > 4k, where it costs less: on one x86-64 core a 16-lane block took about
 * 10 ns a lane-step in either form at n = 16, and 32 ns dense against 14 ns
 * factored at n = 180, k = 8.
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
 * when bit j of read l is set and zero otherwise.  Eight 2-wide vector
 * accumulators (baseline SSE2 on x86-64) hold the 16 lanes' fields, and each
 * lane sums its own terms in index order from +0.0.  In the dense form lane
 * l's term for bit j is one AND of coupling[i, j]'s bits with that word; the
 * caller passes each coefficient twice in a row, so one load fills both
 * lanes of a pair.  So a lane's field is the sum over all j of (bit j set ?
 * coupling[i, j] : +0.0), bit-identical to the sum over the set bits alone,
 * and to the dense sum of coupling[i, j] * x[j]: adding +0.0 (or a -0.0 term)
 * leaves a nonzero sum unchanged and a +0.0 sum +0.0, and a sum that starts
 * at +0.0 never reaches -0.0 when rounding to nearest.  In the factored form
 * s[f * 16 + l] is lane l's s[f], and a flip adds coef * V[i, f] to it, coef
 * being +1.0 or -1.0 in a lane that flipped and +0.0 in the others, which adds
 * a zero there (s is never -0.0, so that leaves it as it is).  Lanes past the
 * block's reads hold zero masks and zero sums and are never read.  The caller
 * owns masks (n * 16 words) and s (k * 16 doubles), so the kernel allocates
 * nothing.
 *
 * exp's bounds.  For e < 0, 1 + e <= exp(e) <= 1 / (1 - e), so most uphill
 * steps are decided without exp: u < (1 + e) - MARGIN accepts and
 * u * (1 - e) > 1 + MARGIN rejects, each only where u < exp(e) would.  The
 * first can hold only for -1 < e < 0, where exp(e) lies in (0.36, 1): there
 * the two roundings of the bound add at most 2^-53 and exp's error of one ulp
 * takes off at most 2^-53, so MARGIN >= 2^-52 suffices.  The second: 1 - e
 * and the product round by at most 2^-53 relative each, so a true
 * u * (1 - e) above 1 + MARGIN - 2^-51 passes, while the returned exp(e) is
 * at most exp(e) * (1 + 2^-52) <= (1 + 2^-52) / (1 - e) for -1 < e < 0, and
 * below 0.74 / (1 - e) for e <= -1, where (1 - e) exp(e) <= 2 exp(-1).  So
 * MARGIN >= 2^-50 suffices; 2^-46 leaves room for an exp that is 30 ulp off.
 *
 * Compile without -ffast-math and with -ffp-contract=off, so each sum keeps
 * its order and exp stays the C library's.  ptrdiff_t matches numpy's intp.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define LANES 16
#define SIGN_BIT 0x8000000000000000ULL
#define ONE_BITS 0x3FF0000000000000ULL /* 1.0 */
#define MARGIN 0x1p-46

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

/* Each lane's sum over j of (bit j set ? coupling[i, j] : +0.0); row holds coupling[i, :] in pairs. */
static void dense_field(ptrdiff_t n, const u64x2 *row, const uint64_t *masks, f64x2 field[LANES / 2])
{
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
    field[0] = a0, field[1] = a1, field[2] = a2, field[3] = a3;
    field[4] = a4, field[5] = a5, field[6] = a6, field[7] = a7;
}

/* Each lane's sum over f of v[f] * s[f] minus (bit i set ? norm : +0.0). */
static void factored_field(ptrdiff_t k, const double *v, const f64x2 *s, double norm,
                           const uint64_t *bit, f64x2 field[LANES / 2])
{
    f64x2 a0 = {0.0, 0.0}, a1 = a0, a2 = a0, a3 = a0, a4 = a0, a5 = a0, a6 = a0, a7 = a0;
    for (ptrdiff_t f = 0; f < k; f++) {
        const f64x2 c = {v[f], v[f]}, *sum = s + f * (LANES / 2);
        a0 += c * sum[0];
        a1 += c * sum[1];
        a2 += c * sum[2];
        a3 += c * sum[3];
        a4 += c * sum[4];
        a5 += c * sum[5];
        a6 += c * sum[6];
        a7 += c * sum[7];
    }
    const u64x2 self = (u64x2)(f64x2){norm, norm}, *word = (const u64x2 *)bit;
    field[0] = a0 - (f64x2)(self & word[0]), field[1] = a1 - (f64x2)(self & word[1]);
    field[2] = a2 - (f64x2)(self & word[2]), field[3] = a3 - (f64x2)(self & word[3]);
    field[4] = a4 - (f64x2)(self & word[4]), field[5] = a5 - (f64x2)(self & word[5]);
    field[6] = a6 - (f64x2)(self & word[6]), field[7] = a7 - (f64x2)(self & word[7]);
}

/* k = 0, dense: coupling is n x 2n, coupling[i, j] twice at [i, 2j] and [i, 2j + 1];
 *   norms and s are not read.
 * k >= 1, factored: coupling is the factors V, n x k; norms[i] is |v_i|^2; s is k x 16,
 *   lane l's start s = V^T x at [f, l] in, scratch after that.
 * streams: lanes x 4 words, each read's PCG64 state then increment, low word first.
 * x: lanes x n start states in, final states out.  masks: n x 16 words of scratch. */
void anneal_block(ptrdiff_t n, ptrdiff_t k, ptrdiff_t sweeps, ptrdiff_t lanes,
                  const double *linear, const double *coupling, const double *norms,
                  const double *betas, const uint64_t *streams, double *x, double *s,
                  uint64_t *masks)
{
    u128 state[LANES], inc[LANES];
    for (ptrdiff_t l = 0; l < lanes; l++) {
        state[l] = (u128)streams[4 * l + 1] << 64 | streams[4 * l];
        inc[l] = (u128)streams[4 * l + 3] << 64 | streams[4 * l + 2];
    }
    for (ptrdiff_t j = 0; j < n; j++)
        for (ptrdiff_t l = 0; l < LANES; l++)
            masks[j * LANES + l] = l < lanes && x[l * n + j] != 0.0 ? UINT64_MAX : 0;
    f64x2 *sums = (f64x2 *)s;
    for (ptrdiff_t t = 0; t < sweeps; t++) {
        const double beta = betas[t];
        for (ptrdiff_t i = 0; i < n; i++) {
            uint64_t *bit = masks + i * LANES;
            f64x2 field[LANES / 2];
            if (k)
                factored_field(k, coupling + i * k, sums, norms[i], bit, field);
            else
                dense_field(n, (const u64x2 *)(coupling + 2 * i * n), masks, field);
            /* Every lane draws its uniform.  A downhill or level step (exponent >= 0)
             * flips without exp, since exp(0.0) is 1.0 and u < 1.0, and so do most
             * uphill ones, by exp's bounds; exp decides only the lanes that the
             * branch-free pass over all lanes leaves undecided. */
            double u[LANES], exponent[LANES];
            unsigned undecided = 0, flips = 0;
            for (ptrdiff_t l = 0; l < lanes; l++) {
                u[l] = pcg64_random(&state[l], inc[l]);
                /* delta is (1 - 2 x[i]) * (linear[i] + field): the sign bit flips where x[i] is set */
                union { double f; uint64_t bits; } delta = {linear[i] + field[l / 2][l % 2]};
                delta.bits ^= bit[l] & SIGN_BIT;
                const double e = exponent[l] = -beta * delta.f;
                const unsigned flip = !(e < 0.0) | (u[l] < 1.0 + e - MARGIN);
                const unsigned stay = u[l] * (1.0 - e) > 1.0 + MARGIN;
                undecided |= !(flip | stay) << l;
                flips |= flip << l;
            }
            for (; undecided; undecided &= undecided - 1) {
                const int l = __builtin_ctz(undecided);
                flips |= (unsigned)(u[l] < exp(exponent[l])) << l;
            }
            for (int l = 0; l < LANES; l++)
                bit[l] ^= -(uint64_t)(flips >> l & 1);
            if (!k || !flips)
                continue;
            /* s[f] += coef * V[i, f]: coef is +1.0 where the bit was set, -1.0 where it
             * was cleared, +0.0 where it stayed */
            u64x2 coef[LANES / 2];
            for (int l = 0; l < LANES; l++)
                coef[l / 2][l % 2] = (ONE_BITS | (~bit[l] & SIGN_BIT)) & -(uint64_t)(flips >> l & 1);
            for (ptrdiff_t f = 0; f < k; f++) {
                const double vf = coupling[i * k + f];
                const f64x2 c = {vf, vf};
                f64x2 *sum = sums + f * (LANES / 2);
                for (int m = 0; m < LANES / 2; m++)
                    sum[m] += c * (f64x2)coef[m];
            }
        }
    }
    for (ptrdiff_t l = 0; l < lanes; l++)
        for (ptrdiff_t j = 0; j < n; j++)
            x[l * n + j] = masks[j * LANES + l] ? 1.0 : 0.0;
}
