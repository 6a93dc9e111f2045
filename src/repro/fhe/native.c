/*
 * The numpy backend's native library: the negacyclic NTT / INTT
 * (ntt32_*, ntt64_*), one fixed-scalar product (scale32, scale64) and one
 * multiply-accumulate (mac32, mac64) at two word sizes, the TFHE gadget
 * decomposition (decompose32), a blind rotation's whole CMux loop (cmux32),
 * a CKKS keyswitch wave's whole per-key phase (keyswitch32: gather, MAC
 * and ModDown per member) and a batch of draws from CPython's Mersenne
 * Twister (mt_sample: a key group's masks and errors in one pass).  Word 32
 * takes every modulus below 2^32, word 64 every modulus below 2^62;
 * decompose32 takes moduli below 2^51, mt_sample moduli in [1, 2^62).
 *
 * The transforms run in place over a contiguous (rows, n) uint64 array.
 * Row r runs under tables[r % limbs], each one array laid out by
 * _shoup_table in backend.py, uint32 for word 32 and uint64 for word 64:
 * q, n^-1, floor(n^-1 beta / q), 0, then the golden transforms'
 * bit-reversed psi powers [n] and their Shoup constants floor(w beta / q)
 * [n], then the same for psi^-1, with beta = 2^32 or 2^64.
 *
 * Word 32 keeps values fully reduced: the special moduli reach 32 bits, so
 * 2q would break the y < 2^32 the Shoup multiply needs.  Word 64 is
 * Harvey-lazy: the Shoup product y w - floor(y ws / 2^64) q is in [0, 2q)
 * for ANY y < 2^64 (ws is below w 2^64 / q by less than one, so the
 * quotient is short by less than y / 2^64 + 1 < 2), and q < 2^62 keeps
 * 4q below 2^64.  The forward transform takes rows below 4q (the backend
 * hands it rows below 2q), brings each butterfly's u below 2q and leaves
 * u + y, u + 2q - y below 4q; the inverse takes rows below 2q, keeps the
 * sum below 2q and feeds x + 2q - y < 4q to the Shoup product.  Both leave
 * every value fully reduced.
 *
 * scale32 / scale64 compute (a - b) s mod q row by row, a and b reduced
 * below q.  Word 32: d = a + q - b is in (0, 2q), one correction brings it
 * below q < 2^32, which is what shoup_mul needs, and shoup_mul reduces
 * fully.  Word 64: a + q - b < 2q < 2^63, shoup64 takes any input and
 * returns [0, 2q), and one correction follows.
 *
 * decompose32's quotients floor((2 res + f) / (2 f)) are a truncated double
 * product with one integer correction.  The residual stays in [-q/2, q/2]
 * and 0 < f < q < 2^51, so |2 res + f| < 2q <= 2^52 and 2 f are exact
 * doubles, and the product with the rounded 1 / (2 f) is within
 * 2^-52 + 2^-106 of the quotient relatively: within (2^52 - 2) (2^-52 +
 * 2^-106) / (2 f) < 1 / (2 f) of it, the spacing of such quotients.  So the
 * estimate never passes an integer the quotient does not reach, its
 * truncation is within one of the floor, and the sign of the remainder
 * num - d 2 f (|d 2 f| stays near |num|, far below 2^63) says which way.
 *
 * cmux32 composes the pieces above and needs no bound of its own.  A
 * rotated row minus the accumulator row is a negation that keeps a zero
 * zero, then one correction from (0, 2q): the decomposition gets values
 * below q, as decompose_row asks.  Its digits are below q, as forward_row
 * asks; the MAC sums group * levels < 2^32 products in split halves and
 * reduces them with mac32_reduce, as mac32 does; inverse_row returns values
 * below q, and the add back is one correction from [0, 2q).  A member
 * whose degree is 0 is skipped, which is exact: its difference, digits,
 * their transforms and its product are all 0.
 *
 * keyswitch32 composes them too and needs no bound of its own.  The gather
 * moves reduced values.  The MAC sums terms < 2^32 products of values below
 * 2^32 in split halves and reduces them with mac32_reduce, as mac32 does, so
 * every accumulator row is fully reduced under its limb's modulus.
 * inverse_row takes and returns values below q.  BConv scales with
 * scale_row32 and no subtraction (an inverse below p < 2^32), sums the lp
 * scaled rows times weights below q_t with mac32's scalar-weight terms
 * (mac32_add_scalar) and reduces with mac32_reduce.  forward_row takes the
 * lifted rows below q_t, and the subtract-and-scale is scale_row32 of two
 * rows below q_t.  So each step is its golden kernel on canonical residues,
 * and out is the golden composition (gather, MAC, INTT of the P rows, BConv,
 * NTT, subtract-and-scale) bit for bit.
 *
 * A word-32 stage (stage32) pairs the two halves of each group of 2t values
 * under the group's twiddle.  gcc vectorizes a loop nest's innermost loop,
 * the j-loop over t butterflies, which for the three shortest spans t = 4,
 * 2, 1 is too short: those stages ran scalar, 61-72% of a forward
 * transform's time on 27-38% of its butterflies (N = 2048 ... 256).  So
 * they are called with a constant t: the j-loop unrolls into the t
 * butterflies of one group and the group loop vectorizes instead, and a
 * transform runs 1.6-1.9x faster (2-vCPU AVX-512 x86).  gcc 12, -O3
 * -march=native -fopt-info-vec-optimized reports there, per direction:
 *   native.c:170:26: optimized: loop vectorized using 64 byte vectors
 * three times (the group loop at t = 4, 2, 1) and
 *   native.c:173:30: optimized: loop vectorized using 64 byte vectors
 * once (the j-loop, t >= 8).  It reports scale_row32's two row loops
 * (without and with a subtraction) vectorized, in scale32 and in keyswitch32:
 *   native.c:305:30: optimized: loop vectorized using 64 byte vectors
 *   native.c:309:26: optimized: loop vectorized using 64 byte vectors
 * scale64's are not: the 64 x 64 -> 128-bit product has no vector form.
 * Every loop of cmux32 over a row's values vectorizes too: rotate_sub's
 * (once per stretch and sign), the MAC's accumulation (mac32_add) and
 * reduction, and the add back:
 *   native.c:583:26: optimized: loop vectorized using 64 byte vectors
 *   native.c:386:26: optimized: loop vectorized using 64 byte vectors
 *   native.c:644:42: optimized: loop vectorized using 64 byte vectors
 *   native.c:649:38: optimized: loop vectorized using 64 byte vectors
 * and so do decompose_row's two, in decompose32 and in cmux32.  So does
 * every loop of keyswitch32 over a row's values: the gather (gather_row),
 * the scalar-weight terms (mac32_add_scalar, in mac32 too), the two
 * reductions (the MAC's and BConv's) and scale_row32's, above:
 *   native.c:663:26: optimized: loop vectorized using 64 byte vectors
 *   native.c:398:26: optimized: loop vectorized using 64 byte vectors
 *   native.c:715:42: optimized: loop vectorized using 64 byte vectors
 *   native.c:739:42: optimized: loop vectorized using 64 byte vectors
 * mt_twist's first two loops (623 of its 624 words) vectorize; mt_sample's
 * draws are a serial walk of the stream.  gcc 12 on a second 2-vCPU AVX-512
 * x86 model picks 32 byte vectors for every loop above and reports these:
 *   native.c:765:14: optimized: loop vectorized using 32 byte vectors
 *   native.c:767:14: optimized: loop vectorized using 32 byte vectors
 *
 * mt_sample is exact by transcription, and every step of it is integer.
 * Its generator (mt_twist, mt_word) is genrand_uint32 of CPython's
 * Modules/_randommodule.c: the same twist of 624 words, the same tempering,
 * and the read index kept as the 625th state word, as random.getstate()
 * reports it, so from one state the two give one stream of 32-bit words.
 * What it draws from the stream is Lib/random.py's: randrange(q) is
 * _randbelow_with_getrandbits, k = bit_length(q) bits per candidate, until
 * one is below q (the mt-*-reject steps).  getrandbits(k) is one word
 * shifted right by 32 - k for k <= 32; for 32 < k <= 64 it is the low word
 * whole, then the next word shifted right by 64 - k as the high half.
 * random() is ((a >> 5) 2^26 + (b >> 6)) / 2^53 of two consecutive words;
 * mt_sample hands over the numerator, below 2^53 and so exact in a double,
 * and gauss()'s float step (log, cos, sin) runs in numpy.  It stays there
 * because its exactness is an argument about libm, not about integers:
 * numpy's log / cos / sin may differ from CPython's math.* in the last
 * bits, so the backend redoes with math.* every draw that lands near a
 * rounding boundary.  Here the floats would also hang on the compiler's
 * contraction of products into fused multiply-adds and on the libm the
 * library links, neither of which this build pins.
 *
 * Every reduction and correction step carries a unique step tag; removing
 * the step it marks makes a test in tests/test_native.py fail.
 */
#include <stddef.h>
#include <stdint.h>

typedef unsigned __int128 u128;

/* w * y mod q for y < 2^32, with ws = floor(w 2^32 / q): fully reduced. */
static inline uint64_t shoup_mul(uint64_t y, uint64_t w, uint64_t ws, uint64_t q)
{
    uint64_t quot = ((uint64_t)(uint32_t)y * ws) >> 32;
    uint64_t r = (uint64_t)(uint32_t)y * w - quot * q;   /* [0, 2q) */
    return r >= q ? r - q : r;                          /* step: shoup32-correct */
}

/* One Cooley-Tukey butterfly: (x, y) -> (x + w y, x - w y) mod q. */
static inline void fwd32(uint64_t *u, uint64_t *v, uint64_t s, uint64_t ss,
                         uint64_t q)
{
    uint64_t x = *u, y = shoup_mul(*v, s, ss, q);
    uint64_t sum = x + y, diff = x + q - y;
    *u = sum >= q ? sum - q : sum;                      /* step: ntt32-forward-sum */
    *v = diff >= q ? diff - q : diff;                   /* step: ntt32-forward-diff */
}

/* One Gentleman-Sande butterfly: (x, y) -> (x + y, w (x - y)) mod q. */
static inline void inv32(uint64_t *u, uint64_t *v, uint64_t s, uint64_t ss,
                         uint64_t q)
{
    uint64_t x = *u, y = *v;
    uint64_t sum = x + y, diff = x + q - y;
    *u = sum >= q ? sum - q : sum;                      /* step: ntt32-inverse-sum */
    diff = diff >= q ? diff - q : diff;                 /* step: ntt32-inverse-diff */
    *v = shoup_mul(diff, s, ss, q);
}

/* One stage of span t: m groups of 2t values, group i's two halves paired
 * under twiddle w[m + i].  Called with a constant t for the three shortest
 * spans, so the j-loop unrolls and the group loop vectorizes. */
static inline void stage32(uint64_t *a, size_t m, size_t t, const uint32_t *w,
                           const uint32_t *ws, uint64_t q, int inverse)
{
    for (size_t i = 0; i < m; i++) {
        uint64_t *u = a + 2 * i * t, *v = u + t;
        const uint64_t s = w[m + i], ss = ws[m + i];
        for (size_t j = 0; j < t; j++) {
            if (inverse)
                inv32(u + j, v + j, s, ss, q);
            else
                fwd32(u + j, v + j, s, ss, q);
        }
    }
}

/* Cooley-Tukey with merged psi, bit-reversed output (golden _forward_row). */
static void forward_row(uint64_t *a, size_t n, const uint32_t *table)
{
    const uint64_t q = table[0];
    const uint32_t *w = table + 4, *ws = w + n;
    for (size_t t = n / 2; t >= 8; t /= 2)
        stage32(a, n / (2 * t), t, w, ws, q, 0);
    if (n >= 8)
        stage32(a, n / 8, 4, w, ws, q, 0);
    if (n >= 4)
        stage32(a, n / 4, 2, w, ws, q, 0);
    if (n >= 2)
        stage32(a, n / 2, 1, w, ws, q, 0);
}

/* Gentleman-Sande with merged psi^-1, then n^-1 (golden _inverse_row). */
static void inverse_row(uint64_t *a, size_t n, const uint32_t *table)
{
    const uint64_t q = table[0], n_inv = table[1], n_inv_s = table[2];
    const uint32_t *w = table + 4 + 2 * n, *ws = w + n;
    if (n >= 2)
        stage32(a, n / 2, 1, w, ws, q, 1);
    if (n >= 4)
        stage32(a, n / 4, 2, w, ws, q, 1);
    if (n >= 8)
        stage32(a, n / 8, 4, w, ws, q, 1);
    for (size_t t = 8; t < n; t *= 2)
        stage32(a, n / (2 * t), t, w, ws, q, 1);
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

/* w * y mod q up to one extra q ([0, 2q)) for any y < 2^64, w < q < 2^62,
 * ws = floor(w 2^64 / q) (the bound is in the header). */
static inline uint64_t shoup64(uint64_t y, uint64_t w, uint64_t ws, uint64_t q)
{
    return y * w - (uint64_t)(((u128)y * ws) >> 64) * q;
}

/* Harvey-lazy Cooley-Tukey (golden _forward_row): rows below 4q in, fully
 * reduced out. */
static void forward_row64(uint64_t *a, size_t n, const uint64_t *table)
{
    const uint64_t q = table[0], q2 = 2 * q;
    const uint64_t *w = table + 4, *ws = w + n;
    for (size_t m = 1, t = n / 2; m < n; m *= 2, t /= 2) {
        for (size_t i = 0; i < m; i++) {
            uint64_t *u = a + 2 * i * t, *v = u + t;
            const uint64_t s = w[m + i], ss = ws[m + i];
            for (size_t j = 0; j < t; j++) {
                uint64_t x = u[j], y = shoup64(v[j], s, ss, q);    /* [0, 2q) */
                x = x >= q2 ? x - q2 : x;               /* step: ntt64-forward-u */
                u[j] = x + y;                                       /* [0, 4q) */
                v[j] = x + q2 - y;                                  /* (0, 4q) */
            }
        }
    }
    for (size_t j = 0; j < n; j++) {
        uint64_t x = a[j];
        x = x >= q2 ? x - q2 : x;                       /* step: ntt64-forward-out-2q */
        a[j] = x >= q ? x - q : x;                      /* step: ntt64-forward-out-q */
    }
}

/* Harvey-lazy Gentleman-Sande, then n^-1 (golden _inverse_row): rows below
 * 2q in, fully reduced out. */
static void inverse_row64(uint64_t *a, size_t n, const uint64_t *table)
{
    const uint64_t q = table[0], q2 = 2 * q, n_inv = table[1], n_inv_s = table[2];
    const uint64_t *w = table + 4 + 2 * n, *ws = w + n;
    for (size_t h = n / 2, t = 1; h >= 1; h /= 2, t *= 2) {
        for (size_t i = 0; i < h; i++) {
            uint64_t *u = a + 2 * i * t, *v = u + t;
            const uint64_t s = w[h + i], ss = ws[h + i];
            for (size_t j = 0; j < t; j++) {
                uint64_t x = u[j], y = v[j], sum = x + y;           /* [0, 4q) */
                u[j] = sum >= q2 ? sum - q2 : sum;      /* step: ntt64-inverse-sum */
                v[j] = shoup64(x + q2 - y, s, ss, q);               /* [0, 2q) */
            }
        }
    }
    for (size_t j = 0; j < n; j++) {
        uint64_t x = shoup64(a[j], n_inv, n_inv_s, q);
        a[j] = x >= q ? x - q : x;                      /* step: ntt64-inverse-out */
    }
}

void ntt64_forward(uint64_t *x, size_t rows, size_t n, size_t limbs,
                   const uint64_t *const *tables)
{
    for (size_t r = 0; r < rows; r++)
        forward_row64(x + r * n, n, tables[r % limbs]);
}

void ntt64_inverse(uint64_t *x, size_t rows, size_t n, size_t limbs,
                   const uint64_t *const *tables)
{
    for (size_t r = 0; r < rows; r++)
        inverse_row64(x + r * n, n, tables[r % limbs]);
}

/* z[j] = (x[j] - y[j]) s mod q, fully reduced, j < n, for x, y reduced
 * below q < 2^32 and s < q; y NULL means no subtraction (z[j] = x[j] s):
 * one row of scale32.  The Shoup constant of s is made once per row. */
static inline void scale_row32(uint64_t *z, const uint64_t *x, const uint64_t *y,
                               size_t n, uint64_t s, uint64_t q)
{
    const uint64_t ss = (s << 32) / q;
    if (y == NULL) {
        for (size_t j = 0; j < n; j++)
            z[j] = shoup_mul(x[j], s, ss, q);
        return;
    }
    for (size_t j = 0; j < n; j++) {
        uint64_t d = x[j] + q - y[j];                               /* (0, 2q) */
        d = d >= q ? d - q : d;                         /* step: scale32-difference */
        z[j] = shoup_mul(d, s, ss, q);
    }
}

/*
 * out[r] = (a[r] - b[r]) s mod q, fully reduced, with s = scalars[r % limbs]
 * and q = moduli[r % limbs] (ModDown, Rescale, BConv's source scaling), over
 * contiguous (rows, n) uint64 arrays whose rows are reduced under their own
 * modulus, as is each scalar; b NULL means no subtraction (out[r] = a[r] s).
 */
void scale32(uint64_t *out, const uint64_t *a, const uint64_t *b, size_t rows,
             size_t n, size_t limbs, const uint64_t *scalars,
             const uint64_t *moduli)
{
    for (size_t r = 0; r < rows; r++) {
        const uint64_t *y = NULL;
        if (b != NULL)
            y = b + r * n;
        scale_row32(out + r * n, a + r * n, y, n, scalars[r % limbs], moduli[r % limbs]);
    }
}

/* shoup64 of any y < 2^64, corrected from [0, 2q) into [0, q). */
static inline uint64_t scale64_one(uint64_t y, uint64_t s, uint64_t ss, uint64_t q)
{
    const uint64_t r = shoup64(y, s, ss, q);
    return r >= q ? r - q : r;                          /* step: scale64-correct */
}

/* scale32's contract for moduli below 2^62. */
void scale64(uint64_t *out, const uint64_t *a, const uint64_t *b, size_t rows,
             size_t n, size_t limbs, const uint64_t *scalars,
             const uint64_t *moduli)
{
    for (size_t r = 0; r < rows; r++) {
        const uint64_t q = moduli[r % limbs], s = scalars[r % limbs];
        const uint64_t ss = (uint64_t)(((u128)s << 64) / q);
        const uint64_t *x = a + r * n;
        uint64_t *z = out + r * n;
        if (b == NULL) {
            for (size_t j = 0; j < n; j++)
                z[j] = scale64_one(x[j], s, ss, q);
            continue;
        }
        const uint64_t *y = b + r * n;
        for (size_t j = 0; j < n; j++)
            z[j] = scale64_one(x[j] + q - y[j], s, ss, q);         /* (0, 2q) */
    }
}

/* w * y mod q up to one extra q ([0, 2q)), for y < 2^32 and w < q. */
static inline uint64_t shoup_lazy(uint64_t y, uint64_t w, uint64_t ws, uint64_t q)
{
    return (uint64_t)(uint32_t)y * w - (((uint64_t)(uint32_t)y * ws) >> 32) * q;
}

/* What mac32_reduce needs of q: 2^32 and 2^64 mod q with their Shoup
 * constants, and floor(2^32 / q), the Shoup constant of 1. */
struct mac32_consts {
    uint64_t q, c32, c32s, c64, c64s, ones;
};

static inline struct mac32_consts mac32_constants(uint64_t q)
{
    const uint64_t c32 = ((uint64_t)1 << 32) % q, c64 = c32 * c32 % q;
    const struct mac32_consts k = {q, c32, (c32 << 32) / q, c64, (c64 << 32) / q,
                                   ((uint64_t)1 << 32) / q};
    return k;
}

/* lo[j], hi[j] += the low and high 32-bit halves of x[j] y[j], j < len. */
static inline void mac32_add(uint64_t *lo, uint64_t *hi, const uint64_t *x,
                             const uint64_t *y, size_t len)
{
    for (size_t j = 0; j < len; j++) {
        uint64_t p = (uint64_t)(uint32_t)x[j] * (uint32_t)y[j];
        lo[j] += p & 0xFFFFFFFFu;
        hi[j] += p >> 32;
    }
}

/* lo[j], hi[j] += the low and high 32-bit halves of x[j] w, j < len: one
 * scalar-weight term (BConv's). */
static inline void mac32_add_scalar(uint64_t *lo, uint64_t *hi, const uint64_t *x,
                                    uint64_t w, size_t len)
{
    for (size_t j = 0; j < len; j++) {
        uint64_t p = (uint64_t)(uint32_t)x[j] * (uint32_t)w;
        lo[j] += p & 0xFFFFFFFFu;
        hi[j] += p >> 32;
    }
}

/* One sum of split halves lo + hi 2^32, fully reduced: three Shoup products
 * of its 32-bit digits (below 6q), then the corrections. */
static inline uint64_t mac32_reduce(uint64_t lo, uint64_t hi, struct mac32_consts k)
{
    const uint64_t q = k.q, high = hi + (lo >> 32);
    uint64_t r = shoup_lazy(high >> 32, k.c64, k.c64s, q)
                 + shoup_lazy(high, k.c32, k.c32s, q)
                 + shoup_lazy(lo, 1, k.ones, q);
    r = r >= 4 * q ? r - 4 * q : r;                     /* step: mac32-correct-4q */
    r = r >= 2 * q ? r - 2 * q : r;                     /* step: mac32-correct-2q */
    return r >= q ? r - q : r;                          /* step: mac32-correct-q */
}

#define MAC_BLOCK 256

/* The length of a block: size, or the rest of the row if it is shorter. */
static inline size_t block_len(size_t rest, size_t size)
{
    if (rest < size)
        return rest;
    return size;
}

/*
 * out[o][j] = sum_k a[o][k][j] * b[o][k][j * b_step] mod q[o], fully reduced,
 * over a contiguous (outputs, n) uint64 out.  a and b are per-output pointer
 * tables, (outputs, terms) row-major, to uint64 rows of values below 2^32;
 * b_step is 1 for rows and 0 for one scalar per term (BConv's weights).
 * The 32x32 -> 64-bit products are summed in split 32-bit halves, exact for
 * terms < 2^32, and each output element is reduced once: the sum is
 * h1 2^64 + h0 2^32 + l with 32-bit digits, so it is congruent to
 * h1 (2^64 mod q) + h0 (2^32 mod q) + l, three Shoup products below 6q.
 */
void mac32(uint64_t *out, size_t outputs, size_t terms, size_t n,
           const uint64_t *const *a, const uint64_t *const *b, size_t b_step,
           const uint64_t *moduli)
{
    uint64_t lo[MAC_BLOCK], hi[MAC_BLOCK];
    for (size_t o = 0; o < outputs; o++) {
        const struct mac32_consts k = mac32_constants(moduli[o]);
        const uint64_t *const *ao = a + o * terms, *const *bo = b + o * terms;
        for (size_t start = 0; start < n; start += MAC_BLOCK) {
            const size_t len = block_len(n - start, MAC_BLOCK);
            for (size_t j = 0; j < len; j++)
                lo[j] = hi[j] = 0;
            for (size_t t = 0; t < terms; t++) {
                const uint64_t *x = ao[t] + start;
                if (b_step)
                    mac32_add(lo, hi, x, bo[t] + start, len);
                else
                    mac32_add_scalar(lo, hi, x, *bo[t], len);
            }
            uint64_t *z = out + o * n + start;
            for (size_t j = 0; j < len; j++)
                z[j] = mac32_reduce(lo[j], hi[j], k);
        }
    }
}

/*
 * Folds to fit a 128-bit sum: operands below 2^62 make every product below
 * 2^124, and a folded sum is below 4q < 2^64, so 4q + 16 (2^62 - 1)^2 <
 * 2^128; a seventeenth product could wrap it.
 */
#define MAC64_FOLD 16

/* A 128-bit sum h 2^64 + l, congruent to h (2^64 mod q) + l: two Shoup
 * products below 2q each, so below 4q. */
static inline uint64_t fold64(u128 v, uint64_t c, uint64_t cs, uint64_t ones,
                              uint64_t q)
{
    return shoup64((uint64_t)(v >> 64), c, cs, q) + shoup64((uint64_t)v, 1, ones, q);
}

/*
 * mac32's contract for moduli 2 <= q < 2^62 and operands below 2^62 (each
 * reduced under its own modulus): out[o][j] = sum_k a[o][k][j] *
 * b[o][k][j * b_step] mod q[o], fully reduced.  The 128-bit products are
 * summed in one 128-bit accumulator per element, folded below 4q after
 * every MAC64_FOLD terms and once at the end, then corrected from [0, 4q).
 */
void mac64(uint64_t *out, size_t outputs, size_t terms, size_t n,
           const uint64_t *const *a, const uint64_t *const *b, size_t b_step,
           const uint64_t *moduli)
{
    u128 acc[MAC_BLOCK];
    for (size_t o = 0; o < outputs; o++) {
        const uint64_t q = moduli[o], c = (uint64_t)(((u128)1 << 64) % q);
        const uint64_t cs = (uint64_t)(((u128)c << 64) / q);
        const uint64_t ones = (uint64_t)(((u128)1 << 64) / q);
        const uint64_t *const *ao = a + o * terms, *const *bo = b + o * terms;
        for (size_t start = 0; start < n; start += MAC_BLOCK) {
            const size_t len = block_len(n - start, MAC_BLOCK);
            for (size_t j = 0; j < len; j++)
                acc[j] = 0;
            for (size_t k = 0; k < terms; k++) {
                if (k && k % MAC64_FOLD == 0)           /* step: mac64-fold */
                    for (size_t j = 0; j < len; j++)
                        acc[j] = fold64(acc[j], c, cs, ones, q);
                const uint64_t *x = ao[k] + start;
                if (b_step) {
                    const uint64_t *y = bo[k] + start;
                    for (size_t j = 0; j < len; j++)
                        acc[j] += (u128)x[j] * y[j];
                } else {
                    const uint64_t w = *bo[k];
                    for (size_t j = 0; j < len; j++)
                        acc[j] += (u128)x[j] * w;
                }
            }
            uint64_t *z = out + o * n + start;
            for (size_t j = 0; j < len; j++) {
                uint64_t r = fold64(acc[j], c, cs, ones, q);
                r = r >= 2 * q ? r - 2 * q : r;         /* step: mac64-correct-2q */
                z[j] = r >= q ? r - q : r;              /* step: mac64-correct-q */
            }
        }
    }
}

#define DECOMPOSE_BLOCK 256

/*
 * The golden signed gadget walk of one row of n values reduced below
 * q < 2^51: centre the residual into (-q/2, q/2], then per factor f (each in
 * [0, q); 0 gives digit 0) digit = floor((2 res + f) / (2 f)) and
 * res -= digit f.  Digits are reduced into [0, q); the one for factors[l]
 * is out row l.
 */
static inline void decompose_row(uint64_t *out, const uint64_t *row, size_t n,
                                 uint64_t q, size_t levels, const uint64_t *factors)
{
    int64_t res[DECOMPOSE_BLOCK];
    const int64_t q64 = (int64_t)q, half = (int64_t)(q / 2);
    for (size_t start = 0; start < n; start += DECOMPOSE_BLOCK) {
        const size_t len = block_len(n - start, DECOMPOSE_BLOCK);
        for (size_t j = 0; j < len; j++) {
            const int64_t v = (int64_t)row[start + j];
            res[j] = v > half ? v - q64 : v;            /* step: decompose32-centre */
        }
        for (size_t l = 0; l < levels; l++) {
            uint64_t *z = out + l * n + start;
            const int64_t f = (int64_t)factors[l], f2 = 2 * f;
            if (f == 0) {
                for (size_t j = 0; j < len; j++)
                    z[j] = 0;
                continue;
            }
            const double inv = 1.0 / (double)f2;
            for (size_t j = 0; j < len; j++) {
                const int64_t num = 2 * res[j] + f;
                int64_t d = (int64_t)((double)num * inv);
                const int64_t rem = num - d * f2;
                d += (rem >= f2) - (rem < 0);           /* step: decompose32-quotient */
                res[j] -= d * f;
                z[j] = (uint64_t)(d < 0 ? d + q64 : d);     /* step: decompose32-digit */
            }
        }
    }
}

/*
 * decompose_row over every row of a contiguous (rows, n) uint64 x reduced
 * below q < 2^51 (a store), level-innermost: row r's digit for factors[l]
 * is out row r * levels + l.
 */
void decompose32(uint64_t *out, const uint64_t *x, size_t rows, size_t n,
                 uint64_t q, size_t levels, const uint64_t *factors)
{
    for (size_t r = 0; r < rows; r++)
        decompose_row(out + r * levels * n, x + r * n, n, q, levels, factors);
}

/* out[j] = (v[j], negated if negate) - a[j] mod q, j < len: one stretch of
 * a rotated row minus the row.  The negation keeps a zero zero. */
static inline void rotate_sub(uint64_t *out, const uint64_t *v, const uint64_t *a,
                              size_t len, int negate, uint64_t q)
{
    for (size_t j = 0; j < len; j++) {
        uint64_t x = v[j];
        if (negate)
            x = x > 0 ? q - x : x;                      /* step: cmux32-rotate-negate */
        const uint64_t d = x + q - a[j];                            /* (0, 2q) */
        out[j] = d >= q ? d - q : d;                    /* step: cmux32-difference */
    }
}

/*
 * A wave's whole blind rotation after its initial rotation, in place: acc
 * is members blocks of group = k + 1 contiguous rows of n values below
 * q < 2^32, and for each step i, member m (iteration-outer, so GGSW i's key
 * slice stays in cache across the members):
 *   acc_m += bsk_i [x] (X^{degrees[i * members + m]} acc_m - acc_m),
 * every degree in [0, 2n).  key holds steps slices of group * levels *
 * group evaluation-domain rows: row r * group + c of slice i is component
 * c of GGSW i's GLWE row r, where digit row r = g * levels + l is level l
 * of difference row g.  table is the ring's word-32 transform table;
 * scratch holds group * (levels + 1) rows (the digits, then the
 * differences, whose rows take the products once they are decomposed).
 * key is only read.  A member whose degree is 0 is skipped: its difference
 * is 0, so are its digits, their transforms and its product, and adding 0
 * leaves it as it was.
 */
void cmux32(uint64_t *acc, size_t members, size_t group, size_t n, size_t steps,
            const uint64_t *degrees, const uint64_t *key, size_t levels,
            const uint64_t *factors, const uint32_t *table, uint64_t *scratch)
{
    const struct mac32_consts k = mac32_constants(table[0]);
    const uint64_t q = k.q;
    const size_t terms = group * levels;
    uint64_t *digits = scratch, *diff = scratch + terms * n;
    uint64_t lo[MAC_BLOCK], hi[MAC_BLOCK];
    for (size_t i = 0; i < steps; i++) {
        const uint64_t *slice = key + i * terms * group * n;
        for (size_t m = 0; m < members; m++) {
            const size_t d = degrees[i * members + m], t = d % n;
            if (d == 0)
                continue;
            uint64_t *a = acc + m * group * n;
            /* X^d row: out[j] = +-row[(j - d) mod 2n], minus where the
             * source wrapped past X^n an odd number of times. */
            for (size_t g = 0; g < group; g++) {
                const uint64_t *row = a + g * n;
                uint64_t *z = diff + g * n;
                rotate_sub(z, row + n - t, row, t, d < n, q);
                rotate_sub(z + t, row, row + t, n - t, d >= n, q);
                decompose_row(digits + g * levels * n, z, n, q, levels, factors);
            }
            for (size_t r = 0; r < terms; r++)
                forward_row(digits + r * n, n, table);
            for (size_t c = 0; c < group; c++) {
                uint64_t *z = diff + c * n;
                for (size_t start = 0; start < n; start += MAC_BLOCK) {
                    const size_t len = block_len(n - start, MAC_BLOCK);
                    for (size_t j = 0; j < len; j++)
                        lo[j] = hi[j] = 0;
                    for (size_t r = 0; r < terms; r++)
                        mac32_add(lo, hi, digits + r * n + start,
                                  slice + (r * group + c) * n + start, len);
                    for (size_t j = 0; j < len; j++)
                        z[start + j] = mac32_reduce(lo[j], hi[j], k);
                }
                inverse_row(z, n, table);
                uint64_t *y = a + c * n;
                for (size_t j = 0; j < n; j++) {
                    const uint64_t s = y[j] + z[j];
                    y[j] = s >= q ? s - q : s;                  /* step: cmux32-add */
                }
            }
        }
    }
}

/* out[i] = row[index[i]], i < n: one row read through a Galois
 * automorphism's evaluation-domain index (every entry below n). */
static inline void gather_row(uint64_t *restrict out, const uint64_t *restrict row,
                              const uint64_t *restrict index, size_t n)
{
    for (size_t i = 0; i < n; i++)
        out[i] = row[index[i]];
}

/*
 * The per-key phase of a keyswitch wave, member by member in scratch reused
 * across members.  A member m has terms digits over the limbs = lq + lp
 * rows of C_l ∪ P (Q_l first) and a two-component key per digit:
 * digits[m * terms + j] points at digit j's (limbs, n) rows and
 * keys[(m * terms + j) * 2 + c] at component c of its key, all values
 * reduced under their limb's modulus.  gathers[m] is NULL or an index of n
 * entries in [0, n): the digits' values are read through it (a Galois
 * automorphism in the evaluation domain).  Per member and component c:
 *   acc_c = sum_j sigma(digit_j) key_jc, pointwise per limb;
 *   out_mc[t] = (acc_c[t] - NTT_t(BConv(INTT(acc_c[P])))[t]) scalars[t] mod q_t
 * for t < lq, where BConv scales P row i by p_inverses[i] and sums the rows
 * times weights[t * lp + i] mod q_t.  tables[i] is limb i's word-32
 * transform table (q first).  out is members * 2 * lq rows of n, member
 * major; scratch holds terms + 2 * limbs + lp + lq rows.  Inputs are only
 * read.
 */
void keyswitch32(uint64_t *out, size_t members, size_t terms, size_t lq, size_t lp,
                 size_t n, const uint64_t *const *digits, const uint64_t *const *keys,
                 const uint64_t *const *gathers, const uint32_t *const *tables,
                 const uint64_t *p_inverses, const uint64_t *weights,
                 const uint64_t *scalars, uint64_t *scratch)
{
    const size_t limbs = lq + lp;
    uint64_t *gathered = scratch, *acc = gathered + terms * n;
    uint64_t *scaled = acc + 2 * limbs * n, *lifted = scaled + lp * n;
    uint64_t lo[MAC_BLOCK], hi[MAC_BLOCK];
    for (size_t m = 0; m < members; m++) {
        const uint64_t *const *dm = digits + m * terms, *const *km = keys + m * terms * 2;
        const uint64_t *index = gathers[m];
        /* 1-2: gather each digit row, then the MAC of both components. */
        for (size_t l = 0; l < limbs; l++) {
            const struct mac32_consts k = mac32_constants(tables[l][0]);
            if (index != NULL)
                for (size_t j = 0; j < terms; j++)
                    gather_row(gathered + j * n, dm[j] + l * n, index, n);
            for (size_t c = 0; c < 2; c++) {
                uint64_t *z = acc + (c * limbs + l) * n;
                for (size_t start = 0; start < n; start += MAC_BLOCK) {
                    const size_t len = block_len(n - start, MAC_BLOCK);
                    for (size_t j = 0; j < len; j++)
                        lo[j] = hi[j] = 0;
                    for (size_t j = 0; j < terms; j++) {
                        const uint64_t *x = dm[j] + l * n;
                        if (index != NULL)
                            x = gathered + j * n;
                        mac32_add(lo, hi, x + start, km[2 * j + c] + l * n + start, len);
                    }
                    for (size_t j = 0; j < len; j++)
                        z[start + j] = mac32_reduce(lo[j], hi[j], k);
                }
            }
        }
        /* 3-6: ModDown of each accumulator, in the evaluation domain. */
        for (size_t c = 0; c < 2; c++) {
            uint64_t *a = acc + c * limbs * n;
            for (size_t i = 0; i < lp; i++) {
                const uint32_t *table = tables[lq + i];
                inverse_row(a + (lq + i) * n, n, table);
                scale_row32(scaled + i * n, a + (lq + i) * n, NULL, n, p_inverses[i],
                            table[0]);
            }
            for (size_t t = 0; t < lq; t++) {
                const struct mac32_consts k = mac32_constants(tables[t][0]);
                uint64_t *z = lifted + t * n;
                for (size_t start = 0; start < n; start += MAC_BLOCK) {
                    const size_t len = block_len(n - start, MAC_BLOCK);
                    for (size_t j = 0; j < len; j++)
                        lo[j] = hi[j] = 0;
                    for (size_t i = 0; i < lp; i++)
                        mac32_add_scalar(lo, hi, scaled + i * n + start,
                                         weights[t * lp + i], len);
                    for (size_t j = 0; j < len; j++)
                        z[start + j] = mac32_reduce(lo[j], hi[j], k);
                }
                forward_row(z, n, tables[t]);
                scale_row32(out + ((m * 2 + c) * lq + t) * n, a + t * n, z, n,
                            scalars[t], tables[t][0]);
            }
        }
    }
}

/* CPython's Mersenne Twister (Modules/_randommodule.c): 624 state words and
 * the read index, kept as the 625th word as random.getstate() reports it. */
#define MT_N 624
#define MT_M 397

static inline uint32_t mt_mix(uint32_t upper, uint32_t lower, uint32_t far)
{
    const uint32_t y = (upper & 0x80000000u) | (lower & 0x7fffffffu);
    return far ^ (y >> 1) ^ (-(y & 1u) & 0x9908b0dfu);
}

/* genrand_uint32's refill: the next 624 words, in place. */
static void mt_twist(uint32_t *mt)
{
    size_t k = 0;
    for (; k < MT_N - MT_M; k++)
        mt[k] = mt_mix(mt[k], mt[k + 1], mt[k + MT_M]);
    for (; k < MT_N - 1; k++)
        mt[k] = mt_mix(mt[k], mt[k + 1], mt[k + MT_M - MT_N]);
    mt[MT_N - 1] = mt_mix(mt[MT_N - 1], mt[0], mt[MT_M - 1]);
}

/* genrand_uint32: the next word of the stream, tempered.  The refill test
 * carries no step tag: without it the walk would read past the state, and
 * any change to the generator changes every word after it, which the
 * sampler parity tests see from every read index. */
static inline uint32_t mt_word(uint32_t *mt, size_t *index)
{
    if (*index >= MT_N) {
        mt_twist(mt);
        *index = 0;
    }
    uint32_t y = mt[(*index)++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    return y ^ (y >> 18);
}

/*
 * A batch of draws from one generator, in stream order.  state is the 625
 * words of random.getstate()[1] (index last, at most 624) and is advanced
 * in place.  Row r of the batch is, by spec[r]:
 *   q >= 1 (below 2^62): length values of randrange(q), written to the next
 *     length slots of uniform;
 *   0: length / 2 pairs of gauss()'s two random() calls (length even),
 *     written to the next length slots of gauss as the integers
 *     (a >> 5) 2^26 + (b >> 6) below 2^53 that random() divides by 2^53.
 */
void mt_sample(uint32_t *state, size_t rows, const uint64_t *spec, size_t length,
               uint64_t *uniform, uint64_t *gauss)
{
    size_t index = state[MT_N];
    for (size_t r = 0; r < rows; r++) {
        const uint64_t q = spec[r];
        if (q == 0) {
            for (size_t j = 0; j < length; j++) {
                const uint64_t a = mt_word(state, &index) >> 5;
                gauss[j] = a << 26 | mt_word(state, &index) >> 6;
            }
            gauss += length;
            continue;
        }
        const unsigned bits = 64 - (unsigned)__builtin_clzll(q);
        if (bits <= 32) {
            const unsigned shift = 32 - bits;
            for (size_t j = 0; j < length;) {
                const uint64_t v = mt_word(state, &index) >> shift;
                uniform[j] = v;
                j += v < q ? 1 : 0;                     /* step: mt-narrow-reject */
            }
        } else {
            const unsigned shift = 64 - bits;
            for (size_t j = 0; j < length;) {
                const uint64_t low = mt_word(state, &index);
                const uint64_t v = low | (uint64_t)(mt_word(state, &index) >> shift) << 32;
                uniform[j] = v;
                j += v < q ? 1 : 0;                     /* step: mt-wide-reject */
            }
        }
        uniform += length;
    }
    state[MT_N] = (uint32_t)index;
}
