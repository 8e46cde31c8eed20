/* Rows of float64 values written as text, each value as Python's "%.17g" % value.
 *
 * The kernel of latentqubo._text.float_rows.  values is a C-contiguous rows x
 * cols block.  Each value is written in %.17g, the values of a row separated
 * by a space and each row ended by '\n'.  out must hold 25 bytes a value: the
 * widest, -2.2250738585072014e-308, takes 24 and its separator one.  The return
 * value is the number of bytes written, or 0 where the "C" locale cannot be made.
 *
 * A value x with 10^-16 <= |x| < 10^17 is printed exactly in integers.  x is
 * m * 2^q with m < 2^53, and its 17 significant digits are
 * D = m * 5^p * 2^(q + p) rounded to nearest, ties to even, for p = 16 - X,
 * where 10^X <= |x| < 10^(X+1), so that 10^16 <= D < 10^17.  As p <= 32,
 * m * 5^p < 2^128, and the remainder of the shift is exact.  X starts at
 * floor(e log10 2) for the binary exponent e, or -16 if that is less, at most
 * one short, and goes up where the truncated D reaches 10^17, or where
 * rounding carries it there.
 * %g's layout follows: fixed for X >= -4, else exponent, trailing zeros
 * dropped.  ±0 is "0" and "-0"; nan of either sign is "nan" and ±inf "inf" and
 * "-inf", as Python writes them.  Every other finite value goes to snprintf in
 * the "C" locale, whatever the process locale.  ptrdiff_t matches numpy's intp.
 */
#define _GNU_SOURCE
#include <locale.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

typedef unsigned __int128 u128;

static const uint64_t LOW = 10000000000000000ULL, HIGH = 100000000000000000ULL; /* 10^16, 10^17 */

/* D for |x| = m * 2^q, from a first guess of X; the final X goes to *exponent. */
static uint64_t significant_digits(uint64_t m, int q, int X, const u128 *five, int *exponent)
{
    for (;; X++) {
        const u128 product = (u128)m * five[16 - X];
        const int shift = q + 16 - X;
        uint64_t digits = (uint64_t)(shift >= 0 ? product << shift : product >> -shift);
        if (digits >= HIGH)
            continue;
        if (shift < 0) {
            const u128 rest = product & (((u128)1 << -shift) - 1), half = (u128)1 << (-shift - 1);
            digits += rest > half || (rest == half && (digits & 1));
        }
        *exponent = X + (digits == HIGH);
        return digits == HIGH ? LOW : digits;
    }
}

/* Write x as "%.17g" % x writes it; return the bytes written. */
static int write_value(char *out, double x, const u128 *five)
{
    const double size = fabs(x);
    if (!isfinite(x)) {
        const char *text = isnan(x) ? "nan" : x > 0 ? "inf" : "-inf";
        const size_t length = strlen(text);
        memcpy(out, text, length);
        return (int)length;
    }
    if (size != 0.0 && !(size > 1e-16 && size < 1e17)) /* the double 1e-16 lies below 10^-16 */
        return snprintf(out, 25, "%.17g", x);
    char *p = out;
    if (signbit(x))
        *p++ = '-';
    if (size == 0.0) {
        *p++ = '0';
        return (int)(p - out);
    }
    uint64_t bits;
    memcpy(&bits, &size, sizeof bits);
    const int biased = (int)(bits >> 52);
    int X = (int)floor((biased - 1023) * 0.30102999566398120);
    uint64_t digits = significant_digits((bits & ((1ULL << 52) - 1)) | 1ULL << 52, biased - 1075,
                                         X < -16 ? -16 : X, five, &X);
    char text[17];
    for (int i = 16; i >= 0; i--, digits /= 10)
        text[i] = (char)('0' + digits % 10);
    int count = 17;
    while (text[count - 1] == '0')
        count--;
    if (X < 0 && X >= -4) { /* 0.000ddd */
        memcpy(p, "0.000", (size_t)(1 - X));
        memcpy(p + 1 - X, text, (size_t)count);
        return (int)(p + 1 - X + count - out);
    }
    const int point = X < 0 ? 1 : X + 1; /* digits before the point */
    memcpy(p, text, (size_t)point);
    p += point;
    if (count > point) {
        *p++ = '.';
        memcpy(p, text + point, (size_t)(count - point));
        p += count - point;
    }
    if (X < 0) { /* e-05 to e-16 */
        memcpy(p, "e-", 2);
        p[2] = (char)('0' - X / 10);
        p[3] = (char)('0' - X % 10);
        p += 4;
    }
    return (int)(p - out);
}

ptrdiff_t format_floats(const double *values, ptrdiff_t rows, ptrdiff_t cols, char *out)
{
    u128 five[33] = {1};
    for (int p = 1; p < 33; p++)
        five[p] = five[p - 1] * 5;
    const locale_t c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    if (c_locale == (locale_t)0)
        return 0;
    const locale_t old = uselocale(c_locale);
    char *p = out;
    for (ptrdiff_t r = 0; r < rows; r++) {
        for (ptrdiff_t c = 0; c < cols; c++) {
            if (c)
                *p++ = ' ';
            p += write_value(p, values[r * cols + c], five);
        }
        *p++ = '\n';
    }
    uselocale(old);
    freelocale(c_locale);
    return p - out;
}
