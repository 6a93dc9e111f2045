/*
 * Word-32 negacyclic NTT / INTT, in place over a contiguous (rows, n)
 * uint64 array of values reduced below their modulus.  Row r runs under
 * tables[r % limbs], each one uint32 array laid out by _shoup_table in
 * backend.py: q, n^-1, floor(n^-1 2^32 / q), 0, then the golden
 * transforms' bit-reversed psi powers [n] and their Shoup constants [n],
 * then the same for psi^-1.  Values stay fully reduced: the special moduli
 * reach 32 bits, so 2q would break the y < 2^32 the Shoup multiply needs.
 */
#include <stddef.h>
#include <stdint.h>

/* w * y mod q for y < 2^32, with ws = floor(w 2^32 / q): fully reduced. */
static inline uint64_t shoup_mul(uint64_t y, uint64_t w, uint64_t ws, uint64_t q)
{
    uint64_t quot = ((uint64_t)(uint32_t)y * ws) >> 32;
    uint64_t r = (uint64_t)(uint32_t)y * w - quot * q;   /* [0, 2q) */
    return r >= q ? r - q : r;
}

/* Cooley-Tukey with merged psi, bit-reversed output (golden ntt_forward). */
static void forward_row(uint64_t *a, size_t n, const uint32_t *table)
{
    const uint64_t q = table[0];
    const uint32_t *w = table + 4, *ws = w + n;
    for (size_t m = 1, t = n / 2; m < n; m *= 2, t /= 2) {
        for (size_t i = 0; i < m; i++) {
            uint64_t *u = a + 2 * i * t, *v = u + t;
            const uint64_t s = w[m + i], ss = ws[m + i];
            for (size_t j = 0; j < t; j++) {
                uint64_t x = u[j], y = shoup_mul(v[j], s, ss, q);
                uint64_t sum = x + y, diff = x + q - y;
                u[j] = sum >= q ? sum - q : sum;
                v[j] = diff >= q ? diff - q : diff;
            }
        }
    }
}

/* Gentleman-Sande with merged psi^-1, then n^-1 (golden ntt_inverse). */
static void inverse_row(uint64_t *a, size_t n, const uint32_t *table)
{
    const uint64_t q = table[0], n_inv = table[1], n_inv_s = table[2];
    const uint32_t *w = table + 4 + 2 * n, *ws = w + n;
    for (size_t h = n / 2, t = 1; h >= 1; h /= 2, t *= 2) {
        for (size_t i = 0; i < h; i++) {
            uint64_t *u = a + 2 * i * t, *v = u + t;
            const uint64_t s = w[h + i], ss = ws[h + i];
            for (size_t j = 0; j < t; j++) {
                uint64_t x = u[j], y = v[j];
                uint64_t sum = x + y, diff = x + q - y;
                u[j] = sum >= q ? sum - q : sum;
                v[j] = shoup_mul(diff >= q ? diff - q : diff, s, ss, q);
            }
        }
    }
    for (size_t j = 0; j < n; j++)
        a[j] = shoup_mul(a[j], n_inv, n_inv_s, q);
}

void ntt32_forward(uint64_t *x, size_t rows, size_t n, size_t limbs,
                   const uint32_t *const *tables)
{
    for (size_t r = 0; r < rows; r++)
        forward_row(x + r * n, n, tables[r % limbs]);
}

void ntt32_inverse(uint64_t *x, size_t rows, size_t n, size_t limbs,
                   const uint32_t *const *tables)
{
    for (size_t r = 0; r < rows; r++)
        inverse_row(x + r * n, n, tables[r % limbs]);
}
