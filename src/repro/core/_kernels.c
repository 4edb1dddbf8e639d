/* Compiled kernels of the buffered reproducible deposit, of its
 * renormalise-and-round finalize, and of the radix partition. `_kernels.py`
 * builds this file on first use and calls it through ctypes.
 *
 * Build flags matter for correctness: -ffp-contract=off and no
 * -ffast-math keep every floating-point operation below rounded once, in
 * the type it is written in, so the error-free extraction (r + M) - M is
 * exact and the per-level units match the NumPy `deposit_units` bit for
 * bit.
 */
#include <stdint.h>
#include <string.h>

#define EMPTY_E INT64_MIN

/* Return codes of the deposit and finalize kernels; `*bad` says where. */
enum { DEP_OK = 0, DEP_NONFINITE = 1, DEP_RANGE = 2, DEP_SLOT = 3 };

/* frexp exponent of a zero value, and of NaN/Inf. */
#define ZERO_EFR INT64_MIN
#define NONFINITE_EFR INT64_MAX

/* floor(a / b) for b > 0. */
static inline int64_t floor_div(int64_t a, int64_t b)
{
    int64_t q = a / b;
    return (a % b != 0 && a < 0) ? q - 1 : q;
}

/* 2**k exactly, for -1074 <= k <= 1023 (subnormal below -1022). */
static inline double pow2(int64_t k)
{
    uint64_t b = k >= -1022 ? (uint64_t)(k + 1023) << 52
                            : UINT64_C(1) << (k + 1074);
    double d;
    memcpy(&d, &b, sizeof d);
    return d;
}

/* 2**k exactly as a float, for -149 <= k <= 127. */
static inline float pow2f(int64_t k)
{
    uint32_t b = k >= -126 ? (uint32_t)(k + 127) << 23
                           : UINT32_C(1) << (k + 149);
    float f;
    memcpy(&f, &b, sizeof f);
    return f;
}

/* x * 2**k as an int64, exactly, for x an integer multiple of 2**-k:
 * 2**k alone overflows a double for windows near the lower rail. */
static inline int64_t to_units(double x, int64_t k)
{
    if (k > 1023) {
        x *= pow2(k - 1023);
        k = 1023;
    }
    return (int64_t)(x * pow2(k));
}

/* frexp exponent of x: |x| in [2**(efr-1), 2**efr), from the bits. */
static inline int64_t efr_f64(double x)
{
    uint64_t b;
    memcpy(&b, &x, sizeof b);
    int64_t ex = (int64_t)((b >> 52) & 0x7ff);
    uint64_t mant = b & ((UINT64_C(1) << 52) - 1);
    if (ex == 0x7ff)
        return NONFINITE_EFR;
    if (ex)
        return ex - 1022;
    if (!mant)
        return ZERO_EFR;
    return (64 - __builtin_clzll(mant)) - 1074; /* subnormal */
}

static inline int64_t efr_f32(float x)
{
    uint32_t b;
    memcpy(&b, &x, sizeof b);
    int64_t ex = (int64_t)((b >> 23) & 0xff);
    uint64_t mant = b & ((UINT32_C(1) << 23) - 1);
    if (ex == 0xff)
        return NONFINITE_EFR;
    if (ex)
        return ex - 126;
    if (!mant)
        return ZERO_EFR;
    return (64 - __builtin_clzll(mant)) - 149; /* subnormal */
}

/* The extractor 1.5 * 2**e; e must keep it a normal number. */
static inline double extractor_f64(int64_t e)
{
    uint64_t b = ((uint64_t)(e + 1023) << 52) | (UINT64_C(1) << 51);
    double d;
    memcpy(&d, &b, sizeof d);
    return d;
}

static inline float extractor_f32(int64_t e)
{
    uint32_t b = ((uint32_t)(e + 127) << 23) | (UINT32_C(1) << 22);
    float f;
    memcpy(&f, &b, sizeof f);
    return f;
}

/* Move slot s's L levels down by sh (its window rose by sh * W): level l
 * takes level l - sh, the top sh levels start at zero. */
static inline void shift_levels(int64_t *x, int64_t ns, int64_t L, int64_t s,
                                int64_t sh)
{
    for (int64_t l = L - 1; l >= 0; l--)
        x[l * ns + s] = l >= sh ? x[(l - sh) * ns + s] : 0;
}

/*
 * Deposit n values v[i] into slots slots[i] of one value column.
 *
 * State: e_top[ns], dev[L][ns], C[L][ns] (int64, level-major). W, the
 * mantissa bits m and the guard rails [e_min, e_max] are those of the
 * format (FloatFormat). Two passes:
 *
 * 1. per value: check finiteness and the slot id, take the grid exponent
 *    of the value's natural window from its bits and raise the slot's
 *    window to it, shifting dev/C as GroupedBinnedAcc._raise_windows
 *    does. A value needs a raise iff efr + m - W + 1 > e_top (EMPTY_E is
 *    the smallest int64), so steady-state values skip the division.
 *    The upper guard rail is checked per raise. The lower one is not: a
 *    later value may still raise the window above it, so it is checked
 *    on the final windows, by finalize and export_states.
 * 2. per value, per level l: q = (r + M_l) - M_l in the format's
 *    arithmetic, units = q * 2**(m - e + l*W) exactly in double, r -= q.
 *    Levels below e_min are skipped: their extractor would not be a
 *    normal number, and any raise that makes the window legal shifts
 *    them out, so they cannot reach a result bit.
 *
 * Returns DEP_OK, or an error code with *bad the offending value index
 * (DEP_NONFINITE, DEP_SLOT) or window exponent (DEP_RANGE). Deposits
 * happen only after the checks passed; windows may already be raised.
 */
#define DEFINE_DEPOSIT(NAME, T, EFR, EXTRACTOR, M)                            \
    int NAME(int64_t n, const T *v, const int64_t *slots, int64_t ns,         \
             int64_t L, int64_t W, int64_t e_max, int64_t e_min,              \
             int64_t *e_top, int64_t *dev, int64_t *C, int64_t *bad)          \
    {                                                                         \
        for (int64_t i = 0; i < n; i++) {                                     \
            int64_t s = slots[i], efr = EFR(v[i]);                            \
            if ((uint64_t)s >= (uint64_t)ns) {                                \
                *bad = i;                                                     \
                return DEP_SLOT;                                              \
            }                                                                 \
            if (efr == NONFINITE_EFR) {                                       \
                *bad = i;                                                     \
                return DEP_NONFINITE;                                         \
            }                                                                 \
            if (efr == ZERO_EFR)                                              \
                continue; /* zeros deposit nothing and open no window */      \
            int64_t req = efr + (M) - W + 1, cur = e_top[s];                  \
            if (req <= cur)                                                   \
                continue;                                                     \
            int64_t e = -floor_div(-req, W) * W;                              \
            if (e > e_max) {                                                  \
                *bad = e;                                                     \
                return DEP_RANGE;                                             \
            }                                                                 \
            if (cur != EMPTY_E) {                                             \
                shift_levels(dev, ns, L, s, (e - cur) / W);                   \
                shift_levels(C, ns, L, s, (e - cur) / W);                     \
            }                                                                 \
            e_top[s] = e;                                                     \
        }                                                                     \
        for (int64_t i = 0; i < n; i++) {                                     \
            T r = v[i];                                                       \
            if (r == 0)                                                       \
                continue;                                                     \
            int64_t s = slots[i], e = e_top[s];                               \
            for (int64_t l = 0; l < L && e - l * W >= e_min; l++) {           \
                int64_t el = e - l * W, k = (M) - el;                         \
                T M_l = EXTRACTOR(el);                                        \
                T q = (r + M_l) - M_l;                                        \
                dev[l * ns + s] += to_units(q, k);                            \
                r = r - q;                                                    \
            }                                                                 \
        }                                                                     \
        return DEP_OK;                                                        \
    }

DEFINE_DEPOSIT(repro_deposit_f64, double, efr_f64, extractor_f64, 52)
DEFINE_DEPOSIT(repro_deposit_f32, float, efr_f32, extractor_f32, 23)

/*
 * Renormalise one value column's state in place and round every slot to
 * the format, out[s * stride]; one pass, bit for bit finalize_state after
 * renorm (binned.py).
 *
 * Renormalisation moves whole multiples of 2**(m-2) units from dev into
 * C (floor division, so negative deviations work too). The sum is taken
 * in the format's arithmetic from the lowest level up:
 * Q += C_l * 2**(e_l - 2) + dev_l * 2**(e_l - m). Inside the rails every
 * such power of two is a float of the format, so each product rounds
 * once, as np.ldexp does. EMPTY slots round to 0.
 * A live window outside [e_min + (L-1)*W, e_max] returns DEP_RANGE with
 * *bad the window; slots before it are already renormalised and rounded.
 */
#define DEFINE_FINALIZE(NAME, T, POW2, M)                                     \
    int NAME(int64_t ns, int64_t L, int64_t W, int64_t e_max, int64_t e_min, \
             const int64_t *e_top, int64_t *dev, int64_t *C, T *out,          \
             int64_t stride, int64_t *bad)                                    \
    {                                                                         \
        for (int64_t s = 0; s < ns; s++) {                                    \
            for (int64_t l = 0; l < L; l++) {                                 \
                int64_t carry = dev[l * ns + s] >> ((M) - 2); /* floor */     \
                C[l * ns + s] += carry;                                       \
                dev[l * ns + s] -= carry * ((int64_t)1 << ((M) - 2));         \
            }                                                                 \
            int64_t e = e_top[s];                                             \
            T q = 0;                                                          \
            if (e != EMPTY_E) {                                               \
                if (e > e_max || e - (L - 1) * W < e_min) {                   \
                    *bad = e;                                                 \
                    return DEP_RANGE;                                         \
                }                                                             \
                for (int64_t l = L - 1; l >= 0; l--) {                        \
                    int64_t el = e - l * W;                                   \
                    T term = (T)C[l * ns + s] * POW2(el - 2)                  \
                             + (T)dev[l * ns + s] * POW2(el - (M));           \
                    q = q + term;                                             \
                }                                                             \
            }                                                                 \
            out[s * stride] = q;                                              \
        }                                                                     \
        return DEP_OK;                                                        \
    }

DEFINE_FINALIZE(repro_finalize_f64, double, pow2, 52)
DEFINE_FINALIZE(repro_finalize_f32, float, pow2f, 23)

/*
 * Stable counting sort of n rows on (key >> shift) & (F - 1), F a power
 * of two. Row i is keys[i] plus row_bytes bytes at vals + i * row_bytes;
 * rows go to okeys/ovals grouped by partition, in input order within
 * one. bounds (F + 1 entries) receives the partition starts and n. The
 * shift is unsigned and the mask keeps the id below F, so every key,
 * negative or too large, lands in some partition: range checks belong
 * to the caller.
 */
void repro_partition(int64_t n, const int64_t *keys, const char *vals,
                     int64_t row_bytes, int64_t F, int64_t shift,
                     int64_t *okeys, char *ovals, int64_t *bounds)
{
    uint64_t mask = (uint64_t)F - 1;
    memset(bounds, 0, (size_t)(F + 1) * sizeof *bounds);
    for (int64_t i = 0; i < n; i++)
        bounds[(((uint64_t)keys[i] >> shift) & mask) + 1]++;
    for (int64_t p = 1; p <= F; p++)
        bounds[p] += bounds[p - 1];
    /* bounds[p] is partition p's write cursor: it ends at p + 1's start */
    for (int64_t i = 0; i < n; i++) {
        int64_t d = bounds[((uint64_t)keys[i] >> shift) & mask]++;
        okeys[d] = keys[i];
        if (row_bytes == 8)
            memcpy(ovals + d * 8, vals + i * 8, 8);
        else if (row_bytes == 4)
            memcpy(ovals + d * 4, vals + i * 4, 4);
        else
            memcpy(ovals + d * row_bytes, vals + i * row_bytes,
                   (size_t)row_bytes);
    }
    memmove(bounds + 1, bounds, (size_t)F * sizeof *bounds);
    bounds[0] = 0;
}
