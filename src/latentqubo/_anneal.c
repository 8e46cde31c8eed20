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
 * n > 4k, where it costs less: on one x86-64 core, with 2-wide vectors, a
 * 16-lane block took about 10 ns a lane-step in either form at n = 16, and
 * 32 ns dense against 14 ns factored at n = 180, k = 8.
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
 * when bit j of read l is set and zero otherwise.  The 16 lanes' fields are
 * held in 16 / W vector accumulators of W doubles each, W being the widest
 * vector the target has: 8 under AVX-512F, 4 under AVX2 and otherwise 2
 * (baseline SSE2 on x86-64).  Each lane sums its own terms in index order from
 * +0.0, so W changes the speed and never a bit.  In the dense form lane l's
 * term for bit j is one AND of coupling[i, j]'s bits, broadcast to every lane,
 * with that word.  So a lane's field is the sum over all j of (bit j set ?
 * coupling[i, j] : +0.0), bit-identical to the sum over the set bits alone,
 * and to the dense sum of coupling[i, j] * x[j]: adding +0.0 (or a -0.0 term)
 * leaves a nonzero sum unchanged and a +0.0 sum +0.0, and a sum that starts
 * at +0.0 never reaches -0.0 when rounding to nearest.  In the factored form
 * s[f * 16 + l] is lane l's s[f], summed here from x as the same masked sum
 * over j of V[j, f], and a flip adds coef * V[i, f] to it, coef being +1.0 or
 * -1.0 in a lane that flipped and +0.0 in the others, which adds a zero there
 * (s is never -0.0, so that leaves it as it is).  The accept test, too, runs
 * on whole vectors; only its uniforms are drawn, and its undecided lanes'
 * exp taken, one lane at a time.  Lanes past the block's reads hold zero
 * masks and zero sums, never flip and are never read.  The caller owns masks
 * (n * 16 words) and s (k * 16 doubles), so the kernel allocates nothing.
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
 * its order, no multiply and add fuse and exp stays the C library's; the
 * package builds it with -march=native, which sets W and nothing else that a
 * result depends on.  ptrdiff_t matches numpy's intp.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define LANES 16
#if defined(__AVX512F__)
#define WIDTH 8
#elif defined(__AVX2__)
#define WIDTH 4
#else
#define WIDTH 2
#endif
#define VECS (LANES / WIDTH)
#define SIGN_BIT 0x8000000000000000ULL
#define ONE_BITS 0x3FF0000000000000ULL /* 1.0 */
#define MARGIN 0x1p-46

/* unaligned vectors of WIDTH lanes: numpy guarantees only 8-byte alignment */
typedef double f64v __attribute__((vector_size(8 * WIDTH), aligned(8)));
typedef uint64_t u64v __attribute__((vector_size(8 * WIDTH), aligned(8)));
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

static inline uint64_t bits_of(double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    return bits;
}

static inline int any_lane(u64v v)
{
    const u64v none = {0};
    return memcmp(&v, &none, sizeof v) != 0;
}

/* Each lane's sum over j of (bit j set ? row[j] : +0.0); words holds bit j's lanes at j * VECS. */
static void dense_field(ptrdiff_t n, const double *row, const u64v *words, f64v field[VECS])
{
    f64v a[VECS] = {0}; /* one accumulator a vector, each kept in a register */
    for (ptrdiff_t j = 0; j < n; j++) {
        const uint64_t c = bits_of(row[j]);
        const u64v *word = words + j * VECS;
#pragma GCC unroll 8
        for (int m = 0; m < VECS; m++)
            a[m] += (f64v)(c & word[m]);
    }
    for (int m = 0; m < VECS; m++)
        field[m] = a[m];
}

/* Each lane's sum over f of v[f] * s[f] minus (bit i set ? norm : +0.0). */
static void factored_field(ptrdiff_t k, const double *v, const f64v *s, double norm,
                           const u64v *bit, f64v field[VECS])
{
    f64v a[VECS] = {0};
    for (ptrdiff_t f = 0; f < k; f++) {
        const f64v *sum = s + f * VECS;
#pragma GCC unroll 8
        for (int m = 0; m < VECS; m++)
            a[m] += v[f] * sum[m];
    }
    const uint64_t self = bits_of(norm);
    for (int m = 0; m < VECS; m++)
        field[m] = a[m] - (f64v)(self & bit[m]);
}

/* k = 0, dense: coupling is the symmetric n x n matrix; norms and s are not read.
 * k >= 1, factored: coupling is the factors V, n x k; norms[i] is |v_i|^2; s is k x 16
 *   of scratch, which gets lane l's s = V^T x at [f, l].
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
    u64v live[VECS], *words = (u64v *)masks;
    for (int l = 0; l < LANES; l++)
        live[l / WIDTH][l % WIDTH] = l < lanes ? UINT64_MAX : 0;
    for (ptrdiff_t j = 0; j < n; j++)
        for (ptrdiff_t l = 0; l < LANES; l++)
            masks[j * LANES + l] = l < lanes && x[l * n + j] != 0.0 ? UINT64_MAX : 0;
    /* each lane's s[f] = the sum over j, ascending from +0.0, of (bit j set ? V[j, f] : +0.0) */
    f64v *sums = (f64v *)s;
    for (ptrdiff_t f = 0; f < k * VECS; f++)
        sums[f] = (f64v){0};
    for (ptrdiff_t j = 0; j < n; j++)
        for (ptrdiff_t f = 0; f < k; f++) {
            const uint64_t c = bits_of(coupling[j * k + f]);
            for (int m = 0; m < VECS; m++)
                sums[f * VECS + m] += (f64v)(c & words[j * VECS + m]);
        }
    f64v u[VECS] = {0}; /* each lane's uniform; lanes past the reads keep +0.0 */
    for (ptrdiff_t t = 0; t < sweeps; t++) {
        const double beta = betas[t];
        for (ptrdiff_t i = 0; i < n; i++) {
            u64v *bit = words + i * VECS;
            f64v field[VECS];
            if (k)
                factored_field(k, coupling + i * k, sums, norms[i], bit, field);
            else
                dense_field(n, coupling + i * n, words, field);
            /* Every lane draws its uniform.  A downhill or level step (exponent >= 0)
             * flips without exp, since exp(0.0) is 1.0 and u < 1.0, and so do most
             * uphill ones, by exp's bounds; exp decides only the lanes that the
             * vector pass leaves undecided. */
            for (ptrdiff_t l = 0; l < lanes; l++)
                u[l / WIDTH][l % WIDTH] = pcg64_random(&state[l], inc[l]);
            f64v exponent[VECS];
            u64v flips[VECS], undecided[VECS], pending = {0};
            for (int m = 0; m < VECS; m++) {
                /* delta is (1 - 2 x[i]) * (linear[i] + field): the sign bit flips where x[i] is set */
                const f64v delta = (f64v)((u64v)(linear[i] + field[m]) ^ (bit[m] & SIGN_BIT));
                const f64v e = exponent[m] = -beta * delta;
                const u64v flip = (u64v)(~(e < 0.0) | (u[m] < 1.0 + e - MARGIN)) & live[m];
                const u64v stay = (u64v)(u[m] * (1.0 - e) > 1.0 + MARGIN);
                flips[m] = flip;
                pending |= undecided[m] = ~(flip | stay) & live[m];
            }
            if (any_lane(pending))
                for (ptrdiff_t l = 0; l < lanes; l++) {
                    const ptrdiff_t m = l / WIDTH, w = l % WIDTH;
                    if (undecided[m][w])
                        flips[m][w] = -(uint64_t)(u[m][w] < exp(exponent[m][w]));
                }
            u64v flipped = {0};
            for (int m = 0; m < VECS; m++) {
                bit[m] ^= flips[m];
                flipped |= flips[m];
            }
            if (!k || !any_lane(flipped))
                continue;
            /* s[f] += coef * V[i, f]: coef is +1.0 where the bit was set, -1.0 where it
             * was cleared, +0.0 where it stayed */
            u64v coef[VECS];
            for (int m = 0; m < VECS; m++)
                coef[m] = (ONE_BITS | (~bit[m] & SIGN_BIT)) & flips[m];
            for (ptrdiff_t f = 0; f < k; f++) {
                f64v *sum = sums + f * VECS;
#pragma GCC unroll 8
                for (int m = 0; m < VECS; m++)
                    sum[m] += coupling[i * k + f] * (f64v)coef[m];
            }
        }
    }
    for (ptrdiff_t l = 0; l < lanes; l++)
        for (ptrdiff_t j = 0; j < n; j++)
            x[l * n + j] = masks[j * LANES + l] ? 1.0 : 0.0;
}
