/* Rows of decimal numbers read from text, each as Python's float() reads it.
 *
 * The kernel of latentqubo._text._Lines.floats, which passes it whole lines
 * straight from its read buffer.  text holds size bytes: lines each ended by
 * '\n', but for a last line that ends at size.  A row is a line of exactly
 * cols tokens separated by spaces or tabs; a line of spaces and tabs alone is
 * blank and passed over.  A token must read [+-]digits[.digits][(e|E)[+-]digits],
 * with digits on at least one side of the point, and have a finite value.  The
 * r-th row read fills out[r * cols ..].  Reading stops after rows rows, at the
 * end of text, or at the first line refused, which the caller reads itself.  A
 * line is refused for any other byte, a token of 64 or more bytes, an overflow
 * or a count of tokens other than cols and 0.  The return value is the number
 * of rows read; used[0] and used[1] receive the bytes and the lines passed (the
 * rows read and the blank lines among them), so text + used[0] is the first
 * line not read.
 *
 * Each value is the token's decimal value rounded to nearest, ties to even,
 * as float() rounds it, so it has float()'s bits.  A token of at most 19
 * significant digits d and a decimal exponent e with |e| <= 27 is rounded
 * exactly in integers: d * 5^e, or the quotient d * 2^s / 5^-e, is cut to at
 * most 64 bits, with a sticky bit for whatever nonzero bits or remainder the
 * cut drops, and its top 53 bits round to the significand.  Every other
 * token goes to strtod_l in the "C" locale, which also rounds correctly,
 * whatever the process locale.
 *
 * skip_rows is the kernel of _Lines.skip, which passes a checkpoint's encoder
 * without reading its numbers.  It passes up to rows lines that are not blank
 * in text as parse_floats splits it, looking only at the bytes: it stops at
 * the first line with a byte other than printable ASCII, a space or a tab
 * (its newline apart), which the caller reads itself.  It reads BLOCK bytes
 * at a time in vectors, which -O2 compiles to the target's byte compares
 * where a plain byte loop stays scalar, and the bytes around a newline one
 * at a time.  ptrdiff_t matches numpy's intp.
 */
#define _GNU_SOURCE
#include <locale.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TOKEN_MAX 64
#define EXACT_EXPONENT 27 /* 5^27 < 2^63 */
#define BLOCK 32  /* bytes skip_rows looks at together */
#define VECTOR 16 /* bytes: SSE2's and NEON's width; GCC splits a wider compare byte by byte */

typedef int8_t bytes __attribute__((vector_size(VECTOR)));
typedef uint8_t ubytes __attribute__((vector_size(VECTOR)));
typedef uint64_t words __attribute__((vector_size(VECTOR)));

typedef unsigned __int128 u128;

static const uint64_t POWERS_OF_FIVE[EXACT_EXPONENT + 1] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL, 1953125ULL,
    9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL, 6103515625ULL, 30517578125ULL,
    152587890625ULL, 762939453125ULL, 3814697265625ULL, 19073486328125ULL, 95367431640625ULL,
    476837158203125ULL, 2384185791015625ULL, 11920928955078125ULL, 59604644775390625ULL,
    298023223876953125ULL, 1490116119384765625ULL, 7450580596923828125ULL,
};

/* 2^k, for k in the exponent range of normal doubles. */
static double power_of_two(int k)
{
    const union { uint64_t bits; double value; } power = {(uint64_t)(1023 + k) << 52};
    return power.value;
}

/* The correctly rounded double of (n + f) * 2^shift, where f lies in (0, 1) if sticky, else is 0. */
static double round_binary(uint64_t n, int sticky, int shift)
{
    const int drop = n >> 53 ? 11 - __builtin_clzll(n) : 0; /* n keeps its top 53 bits */
    uint64_t significand = n >> drop;
    if (drop) {
        const uint64_t rest = n & ((1ULL << drop) - 1), half = 1ULL << (drop - 1);
        if (rest > half || (rest == half && (sticky || (significand & 1))))
            significand++; /* 2^53 at most, still exact */
    } /* else n < 2^53, which happens only where f is 0: exact */
    return (double)significand * power_of_two(shift + drop);
}

static const char *skip_zeros(const char *p, const char *end)
{
    while (p < end && *p == '0')
        p++;
    return p;
}

/* Add the digits at p to *digits; return the first byte after them. */
static const char *read_digits(const char *p, const char *end, uint64_t *digits)
{
    uint64_t value = *digits;
    for (; p < end && (unsigned)(*p - '0') < 10; p++)
        value = value * 10 + (uint64_t)(*p - '0');
    *digits = value;
    return p;
}

/* Read the token at p into *value; return its length, or 0 where it is refused. */
static ptrdiff_t read_token(const char *p, const char *end, locale_t c_locale, double *value)
{
    const char *q = p;
    const int negative = q < end && *q == '-';
    q += q < end && (*q == '+' || *q == '-');
    uint64_t digits = 0;
    int exponent = 0;
    const char *whole = q, *first = skip_zeros(q, end); /* first significant digit, if any */
    q = read_digits(first, end, &digits);
    ptrdiff_t significant = q - first, seen = q - whole;
    if (q < end && *q == '.') {
        const char *fraction = ++q;
        if (!significant)
            q = skip_zeros(q, end);
        const char *start = q;
        q = read_digits(q, end, &digits);
        significant += q - start;
        seen += q - fraction;
        exponent -= (int)(q - fraction);
    }
    if (!seen)
        return 0;
    if (q < end && (*q == 'e' || *q == 'E')) {
        q++;
        const int minus = q < end && *q == '-';
        q += q < end && (*q == '+' || *q == '-');
        const char *start = q;
        int written = 0;
        for (; q < end && (unsigned)(*q - '0') < 10; q++)
            written = written < 100000 ? written * 10 + (*q - '0') : written;
        if (q == start)
            return 0;
        exponent += minus ? -written : written;
    }
    const ptrdiff_t length = q - p;
    if ((q < end && *q != ' ' && *q != '\t' && *q != '\n') || length >= TOKEN_MAX)
        return 0;
    if (significant <= 19 && abs(exponent) <= EXACT_EXPONENT) {
        const uint64_t five = POWERS_OF_FIVE[abs(exponent)];
        double magnitude = 0.0;
        if (digits && exponent >= 0) {
            const u128 product = (u128)digits * five;
            const uint64_t high = (uint64_t)(product >> 64);
            const int cut = high ? 64 - __builtin_clzll(high) : 0; /* keep the top 64 bits */
            magnitude = round_binary((uint64_t)(product >> cut),
                                     ((uint64_t)product & ((1ULL << cut) - 1)) != 0, exponent + cut);
        } else if (digits) {
            /* five < 2^b and numerator in [2^(b+62), 2^(b+63)): the quotient lies in (2^62, 2^64) */
            const int scale = __builtin_clzll(digits) - __builtin_clzll(five) + 63;
            const u128 numerator = (u128)digits << scale;
            const uint64_t quotient = (uint64_t)(numerator / five);
            magnitude = round_binary(quotient, (u128)quotient * five != numerator, exponent - scale);
        }
        *value = negative ? -magnitude : magnitude;
        return length;
    }
    char token[TOKEN_MAX];
    memcpy(token, p, length);
    token[length] = '\0';
    char *stop;
    *value = strtod_l(token, &stop, c_locale);
    return stop == token + length && isfinite(*value) ? length : 0;
}

static ptrdiff_t read_rows(locale_t c_locale, const char *text, const char *end, ptrdiff_t rows,
                           ptrdiff_t cols, double *out, ptrdiff_t *used)
{
    const char *p = text; /* the first byte of the next line */
    ptrdiff_t row = 0, lines = 0;
    while (row < rows && p < end) {
        const char *q = p;
        ptrdiff_t col = 0;
        for (;;) {
            while (q < end && (*q == ' ' || *q == '\t'))
                q++;
            if (q == end || *q == '\n')
                break;
            if (col == cols)
                goto refused;
            const ptrdiff_t length = read_token(q, end, c_locale, out + row * cols + col++);
            if (length == 0)
                goto refused;
            q += length;
        }
        if (col != cols && col != 0)
            break;
        row += col == cols;
        lines++;
        p = q + (q < end); /* past the newline */
    }
refused:
    used[0] = p - text;
    used[1] = lines;
    return row;
}

ptrdiff_t parse_floats(const char *text, ptrdiff_t size, ptrdiff_t rows, ptrdiff_t cols,
                       double *out, ptrdiff_t *used)
{
    used[0] = used[1] = 0;
    locale_t c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    if (c_locale == (locale_t)0)
        return 0;
    const ptrdiff_t read = read_rows(c_locale, text, text + size, rows, cols, out, used);
    freelocale(c_locale);
    return read;
}

/* Whether the BLOCK bytes at p are all printable ASCII or spaces; where one is not a space,
 * *nonblank is set. */
static int plain_block(const char *p, int *nonblank)
{
    bytes v[BLOCK / VECTOR], other = {0}, text = {0};
    memcpy(v, p, BLOCK);
    for (int m = 0; m < BLOCK / VECTOR; m++) {
        /* as signed bytes, ' ' to '~' plus one lie in [33, 127]; the others wrap to [-128, 32] */
        other |= (bytes)((ubytes)v[m] + 1) < '!';
        text |= v[m] != ' ';
    }
    const words bad = (words)other, seen = (words)text;
    if (bad[0] | bad[1])
        return 0;
    *nonblank = *nonblank || (seen[0] | seen[1]) != 0;
    return 1;
}

ptrdiff_t skip_rows(const char *text, ptrdiff_t size, ptrdiff_t rows, ptrdiff_t *used)
{
    const char *p = text, *end = text + size; /* p: the first byte of the next line */
    ptrdiff_t row = 0, lines = 0;
    while (row < rows && p < end) {
        const char *q = p;
        int nonblank = 0;
        for (;;) {
            while (end - q >= BLOCK && plain_block(q, &nonblank))
                q += BLOCK;
            if (q == end || *q == '\n')
                break;
            /* a byte above 0x7e is below ' ' where char is signed, and above '~' where not */
            if ((*q < ' ' || *q > '~') && *q != '\t')
                goto refused;
            nonblank = nonblank || (*q != ' ' && *q != '\t');
            q++;
        }
        row += nonblank;
        lines++;
        p = q + (q < end); /* past the newline */
    }
refused:
    used[0] = p - text;
    used[1] = lines;
    return row;
}
