/* Compiled kernels of the buffered reproducible deposit, of its
 * renormalise-and-round finalize, of the value check before it, and of
 * the radix partition. `_kernels.py`
 * builds this file on first use and calls it through ctypes, with the
 * number of threads each call runs on (see run_tasks).
 *
 * Build flags matter for correctness: -ffp-contract=off and no
 * -ffast-math keep every floating-point operation below rounded once, in
 * the type it is written in, so the error-free extraction (r + M) - M is
 * exact and the per-level units match the NumPy `deposit_units` bit for
 * bit.
 */
#include <pthread.h>
#include <stdint.h>
#include <string.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

#define EMPTY_E INT64_MIN

/* Return codes of the deposit and finalize kernels; `*bad` says where. */
enum { DEP_OK = 0, DEP_RANGE = 1, DEP_SLOT = 2, DEP_OVERFLOW = 3 };

/* frexp exponent of a zero value. */
#define ZERO_EFR INT64_MIN

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

/* frexp exponent of finite x: |x| in [2**(efr-1), 2**efr), from its bits. */
static inline int64_t efr_f64(double x)
{
    uint64_t b;
    memcpy(&b, &x, sizeof b);
    int64_t ex = (int64_t)((b >> 52) & 0x7ff);
    uint64_t mant = b & ((UINT64_C(1) << 52) - 1);
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

/* Threads per kernel call, at most; `_kernels.threads` caps at the same. */
#define MAX_THREADS 64
/* Stack of each worker thread: the tasks below need a few hundred bytes. */
#define STACK_BYTES (1 << 18)

typedef void *(*task_fn)(void *);

static int64_t clamp_threads(int64_t T)
{
    return T < 1 ? 1 : T > MAX_THREADS ? MAX_THREADS : T;
}

/*
 * Run fn on T tasks, task t at tasks + t * size: tasks 1..T-1 on threads
 * of their own, task 0 on the calling thread. A task whose thread cannot
 * be started runs on the calling thread after task 0. Tasks write
 * disjoint memory, so where and when each one runs changes no result.
 */
static void run_tasks(int64_t T, task_fn fn, void *tasks, size_t size)
{
    pthread_t tid[MAX_THREADS];
    int started[MAX_THREADS];
    pthread_attr_t attr;
    int have_attr = pthread_attr_init(&attr) == 0;
    if (have_attr)
        pthread_attr_setstacksize(&attr, STACK_BYTES); /* default if refused */
    for (int64_t t = 1; t < T; t++)
        started[t] = pthread_create(&tid[t], have_attr ? &attr : NULL, fn,
                                    (char *)tasks + t * size) == 0;
    fn(tasks);
    for (int64_t t = 1; t < T; t++) {
        if (started[t])
            pthread_join(tid[t], NULL);
        else
            fn((char *)tasks + t * size);
    }
    if (have_attr)
        pthread_attr_destroy(&attr);
}

/* Move slot s's L levels down by sh (its window rose by sh * W): level l
 * takes level l - sh, the top sh levels start at zero. */
static inline void shift_levels(int64_t *x, int64_t ns, int64_t L, int64_t s,
                                int64_t sh)
{
    for (int64_t l = L - 1; l >= 0; l--)
        x[l * ns + s] = l >= sh ? x[(l - sh) * ns + s] : 0;
}

/* One value column's state and its format's constants. */
struct column {
    int64_t ns, L, W, e_max, e_min;
    int64_t *e_top, *dev, *C;
};

/* A thread's share of a deposit: rows [lo, hi), which may only touch the
 * slots [slo, shi), and the first error it met. */
struct dep_task {
    struct column c;
    const void *v;
    const int64_t *slots;
    int64_t lo, hi;
    uint64_t slo, shi;
    int rc;
    int64_t bad;
};

/* A thread's share of a finalize: slots [lo, hi). */
struct fin_task {
    struct column c;
    void *out;
    int64_t stride, lo, hi;
    int rc;
    int64_t bad;
};

/*
 * Deposit n values v[i] into slots slots[i] of one value column.
 *
 * State: e_top[ns], dev[L][ns], C[L][ns] (int64, level-major). W, the
 * mantissa bits m and the guard rails [e_min, e_max] are those of the
 * format (FloatFormat). Values are not checked: they have passed
 * check_values (finite, below FloatFormat.abs_limit), so no window rises
 * above e_max. Two passes over a task's rows:
 *
 * 1. (raise) per value: check that the slot is one the task owns, which
 *    keeps every write inside the task's slots, take the grid exponent of
 *    the value's natural window from its bits and raise the slot's window
 *    to it, shifting dev/C as GroupedBinnedAcc._prepare_windows does. A
 *    value needs a raise iff efr + m - W + 1 > e_top (EMPTY_E is the
 *    smallest int64), so steady-state values skip the division. The lower
 *    guard rail is not checked: a later value may still raise the window
 *    above it, so it is checked on the final windows, by finalize and
 *    export_states.
 * 2. (add) per value, per level l: q = (r + M_l) - M_l in the format's
 *    arithmetic, units = q * 2**(m - e + l*W) exactly in double, r -= q.
 *    Levels below e_min are skipped: their extractor would not be a
 *    normal number, and any raise that makes the window legal shifts
 *    them out, so they cannot reach a result bit.
 *
 * The rc of pass 1 is DEP_OK, or DEP_SLOT with bad the offending row.
 */
#define DEFINE_DEPOSIT(NAME, T, EFR, EXTRACTOR, M)                            \
    static void *NAME##_raise(void *arg)                                      \
    {                                                                         \
        struct dep_task *a = arg;                                             \
        const T *v = a->v;                                                    \
        const int64_t *slots = a->slots;                                      \
        int64_t ns = a->c.ns, L = a->c.L, W = a->c.W;                         \
        int64_t *e_top = a->c.e_top, *dev = a->c.dev, *C = a->c.C;           \
        uint64_t slo = a->slo, owned = a->shi - a->slo;                       \
        a->rc = DEP_OK;                                                       \
        for (int64_t i = a->lo; i < a->hi; i++) {                             \
            int64_t s = slots[i], efr = EFR(v[i]);                            \
            if ((uint64_t)s - slo >= owned) {                                 \
                a->bad = i;                                                   \
                a->rc = DEP_SLOT;                                             \
                return NULL;                                                  \
            }                                                                 \
            if (efr == ZERO_EFR)                                              \
                continue; /* zeros deposit nothing and open no window */      \
            int64_t req = efr + (M) - W + 1, cur = e_top[s];                  \
            if (req <= cur)                                                   \
                continue;                                                     \
            int64_t e = -floor_div(-req, W) * W;                              \
            if (cur != EMPTY_E) {                                             \
                shift_levels(dev, ns, L, s, (e - cur) / W);                   \
                shift_levels(C, ns, L, s, (e - cur) / W);                     \
            }                                                                 \
            e_top[s] = e;                                                     \
        }                                                                     \
        return NULL;                                                          \
    }                                                                         \
                                                                              \
    static void *NAME##_add(void *arg)                                        \
    {                                                                         \
        struct dep_task *a = arg;                                             \
        const T *v = a->v;                                                    \
        const int64_t *slots = a->slots;                                      \
        int64_t ns = a->c.ns, L = a->c.L, W = a->c.W, e_min = a->c.e_min;     \
        const int64_t *e_top = a->c.e_top;                                    \
        int64_t *dev = a->c.dev;                                              \
        for (int64_t i = a->lo; i < a->hi; i++) {                             \
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
        return NULL;                                                          \
    }                                                                         \
                                                                              \
    int NAME(int64_t n, const T *v, const int64_t *slots, int64_t ns,         \
             int64_t L, int64_t W, int64_t e_min, int64_t *e_top,             \
             int64_t *dev, int64_t *C, int64_t threads, int64_t *bad)         \
    {                                                                         \
        struct dep_task a = {{ns, L, W, 0 /* e_max */, e_min, e_top, dev, C},\
                             v, slots, 0, n, 0, (uint64_t)ns, DEP_OK, 0};     \
        return deposit(&a, threads, NAME##_raise, NAME##_add, bad);           \
    }

/* First i in [lo, hi) with (slots[i] >> k) >= t, unsigned; hi if none.
 * A binary search: exact where the rows are ordered on slots >> k. */
static int64_t first_at_least(const int64_t *slots, int64_t lo, int64_t hi,
                              int64_t k, uint64_t t)
{
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if ((uint64_t)slots[mid] >> k < t)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/*
 * Deposit task a (all rows, all slots) on B threads, B the largest power
 * of two <= threads. Thread t owns the slots whose top log2(B) bits (of
 * the bits of ns - 1) equal t; its rows are the run whose slots >> k
 * equal t, found by binary search, so partition-ordered and key-sorted
 * rows split by slot. Pass 1 runs on every thread and stops at a row
 * whose slot its thread does not own, so no thread writes another's
 * slots; then pass 2 runs on the same threads. If the lowest thread that
 * stopped met such a row (rows out of order, or a bad slot), the call
 * reruns on one thread, which owns every slot: raising a window to the
 * same value twice changes nothing, and shifts compose, so the windows
 * the threads raised first change no bit, and the first bad slot in row
 * order is the one reported. After an error, windows may be raised;
 * nothing is deposited.
 */
static int deposit(const struct dep_task *a, int64_t threads, task_fn raise,
                   task_fn add, int64_t *bad)
{
    struct dep_task task[MAX_THREADS];
    int64_t B = 1, lg = 0, n = a->hi, ns = a->c.ns, t;
    while (2 * B <= clamp_threads(threads)) {
        B *= 2;
        lg++;
    }
    if (B > 1) {
        int64_t bits = ns > 1 ? 64 - __builtin_clzll((uint64_t)(ns - 1)) : 0;
        int64_t k = bits > lg ? bits - lg : 0;
        for (t = 0; t < B; t++) {
            uint64_t lo = (uint64_t)t << k, hi = (uint64_t)(t + 1) << k;
            task[t] = *a;
            task[t].lo = t ? task[t - 1].hi : 0;
            task[t].hi = t + 1 < B
                ? first_at_least(a->slots, task[t].lo, n, k, (uint64_t)t + 1)
                : n;
            task[t].slo = lo < (uint64_t)ns ? lo : (uint64_t)ns;
            task[t].shi = hi < (uint64_t)ns ? hi : (uint64_t)ns;
        }
        run_tasks(B, raise, task, sizeof *task);
        for (t = 0; t < B && task[t].rc == DEP_OK; t++)
            ;
        if (t == B) {
            run_tasks(B, add, task, sizeof *task);
            return DEP_OK;
        }
    }
    task[0] = *a;
    raise(&task[0]);
    if (task[0].rc != DEP_OK) {
        *bad = task[0].bad;
        return task[0].rc;
    }
    add(&task[0]);
    return DEP_OK;
}

DEFINE_DEPOSIT(repro_deposit_f64, double, efr_f64, extractor_f64, 52)
DEFINE_DEPOSIT(repro_deposit_f32, float, efr_f32, extractor_f32, 23)

/*
 * Renormalise one value column's state in place and round every slot to
 * the format, out[s * stride]; one pass, bit for bit finalize_state after
 * renorm (binned.py). The slots are split into `threads` contiguous
 * ranges, one per thread.
 *
 * Renormalisation moves whole multiples of 2**(m-2) units from dev into
 * C (floor division, so negative deviations work too). The sum is taken
 * in the format's arithmetic from the lowest level up:
 * Q += C_l * 2**(e_l - 2) + dev_l * 2**(e_l - m). Inside the rails every
 * such power of two is a float of the format, so each product rounds
 * once, as np.ldexp does. EMPTY slots round to 0.
 * A live window outside [e_min + (L-1)*W, e_max] returns DEP_RANGE with
 * *bad the first such window in slot order, and a carry sum that leaves
 * int64 returns DEP_OVERFLOW with *bad its slot, leaving that level as it
 * was; other slots may already be renormalised and rounded.
 */
#define DEFINE_FINALIZE(NAME, T, POW2, M)                                     \
    static void *NAME##_slots(void *arg)                                      \
    {                                                                         \
        struct fin_task *a = arg;                                             \
        int64_t ns = a->c.ns, L = a->c.L, W = a->c.W, e_max = a->c.e_max;     \
        int64_t e_min = a->c.e_min, stride = a->stride, c;                    \
        const int64_t *e_top = a->c.e_top;                                    \
        int64_t *dev = a->c.dev, *C = a->c.C;                                 \
        T *out = a->out;                                                      \
        a->rc = DEP_OK;                                                       \
        for (int64_t s = a->lo; s < a->hi; s++) {                             \
            for (int64_t l = 0; l < L; l++) {                                 \
                int64_t carry = dev[l * ns + s] >> ((M) - 2); /* floor */     \
                if (__builtin_add_overflow(C[l * ns + s], carry, &c)) {       \
                    a->bad = s;                                               \
                    a->rc = DEP_OVERFLOW;                                     \
                    return NULL;                                              \
                }                                                             \
                C[l * ns + s] = c;                                            \
                dev[l * ns + s] -= carry * ((int64_t)1 << ((M) - 2));         \
            }                                                                 \
            int64_t e = e_top[s];                                             \
            T q = 0;                                                          \
            if (e != EMPTY_E) {                                               \
                if (e > e_max || e - (L - 1) * W < e_min) {                   \
                    a->bad = e;                                               \
                    a->rc = DEP_RANGE;                                        \
                    return NULL;                                              \
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
        return NULL;                                                          \
    }                                                                         \
                                                                              \
    int NAME(int64_t ns, int64_t L, int64_t W, int64_t e_max, int64_t e_min, \
             int64_t *e_top, int64_t *dev, int64_t *C, T *out,                \
             int64_t stride, int64_t threads, int64_t *bad)                   \
    {                                                                         \
        struct fin_task task[MAX_THREADS];                                    \
        int64_t Tn = clamp_threads(threads), t;                               \
        for (t = 0; t < Tn; t++) {                                            \
            task[t] = (struct fin_task){                                      \
                {ns, L, W, e_max, e_min, e_top, dev, C}, out, stride,         \
                ns * t / Tn, ns * (t + 1) / Tn, DEP_OK, 0};                   \
        }                                                                     \
        run_tasks(Tn, NAME##_slots, task, sizeof *task);                      \
        for (t = 0; t < Tn; t++) {                                            \
            if (task[t].rc != DEP_OK) {                                       \
                *bad = task[t].bad;                                           \
                return task[t].rc;                                            \
            }                                                                 \
        }                                                                     \
        return DEP_OK;                                                        \
    }

DEFINE_FINALIZE(repro_finalize_f64, double, pow2, 52)
DEFINE_FINALIZE(repro_finalize_f32, float, pow2f, 23)

/* A thread's share of a value scan: elements [lo, hi), and the first one
 * among them outside the limit (hi if none). */
struct scan_task {
    const void *v;
    uint64_t limit;
    int64_t lo, hi, first;
};

/*
 * Index of the first value among v[0..n) that is NaN, Inf or of magnitude
 * at least the float whose bits are `limit` (finite, > 0), n if none, on
 * `threads` threads, each scanning a contiguous chunk; the lowest chunk
 * with one holds the first. One unsigned compare of the sign-cleared bits
 * tests all three: the bits of non-negative floats order as their values,
 * and those of Inf and NaN lie above every finite value's.
 */
#define DEFINE_FIRST_OUTSIDE(NAME, T, U)                                      \
    static void *NAME##_scan(void *arg)                                       \
    {                                                                         \
        struct scan_task *a = arg;                                            \
        const T *v = a->v;                                                    \
        U abs_mask = (U)-1 >> 1, limit = (U)a->limit;                         \
        int64_t i;                                                            \
        for (i = a->lo; i < a->hi; i++) {                                     \
            U b;                                                              \
            memcpy(&b, &v[i], sizeof b);                                      \
            if ((b & abs_mask) >= limit)                                      \
                break;                                                        \
        }                                                                     \
        a->first = i;                                                         \
        return NULL;                                                          \
    }                                                                         \
                                                                              \
    int64_t NAME(int64_t n, const T *v, uint64_t limit, int64_t threads)      \
    {                                                                         \
        struct scan_task task[MAX_THREADS];                                   \
        int64_t Tn = clamp_threads(threads), t;                               \
        for (t = 0; t < Tn; t++)                                              \
            task[t] = (struct scan_task){v, limit, n * t / Tn,                \
                                         n * (t + 1) / Tn, 0};                \
        run_tasks(Tn, NAME##_scan, task, sizeof *task);                       \
        for (t = 0; t < Tn; t++) {                                            \
            if (task[t].first < task[t].hi)                                   \
                return task[t].first;                                         \
        }                                                                     \
        return n;                                                             \
    }

DEFINE_FIRST_OUTSIDE(repro_first_outside_f64, double, uint64_t)
DEFINE_FIRST_OUTSIDE(repro_first_outside_f32, float, uint32_t)

/* Bytes in a cache line: the unit the partition writes its output in. */
#define LINE 64

/* Write one full, line-aligned output line from a line buffer. Streaming
 * stores skip the read-for-ownership a plain store of the line would pay
 * (a plain 64-byte copy measured slower than the row-at-a-time scatter);
 * this, with the fence in part_scatter, is the only architecture-specific
 * piece of the partition. */
static inline void store_line(char *dst, const char *line)
{
#ifdef __SSE2__
    for (int k = 0; k < LINE; k += 16)
        _mm_stream_si128((__m128i *)(dst + k),
                         _mm_load_si128((const __m128i *)(line + k)));
#else
    memcpy(dst, line, LINE);
#endif
}

/* Copy n bytes, a row or a piece of one: inline, as a call per row would
 * cost more than the row's whole scatter. */
static inline void copy_bytes(char *dst, const char *src, int64_t n)
{
    for (; n >= 8; n -= 8, dst += 8, src += 8)
        memcpy(dst, src, 8);
    if (n >= 4) {
        memcpy(dst, src, 4);
        n -= 4, dst += 4, src += 4;
    }
    for (; n > 0; n--)
        *dst++ = *src++;
}

/*
 * The rb bytes of src, bound for dst in the run of one output stream that
 * starts at `start`, complete the line at dst - off: put them in the
 * stream's line buffer and write out each line they complete. A line
 * that holds only this run's bytes goes out as one streaming store; the
 * run's first line, whose other bytes belong to other runs, as plain
 * stores of the run's bytes alone. Rows complete a line once per
 * LINE / rb rows or less, so this is kept out of the scatter loop.
 */
static __attribute__((noinline)) void wc_lines(char *line, char *start,
                                               char *dst, const char *src,
                                               int64_t rb, int64_t off)
{
    do {
        int64_t piece = LINE - off;
        char *ls = dst - off; /* the line's start */
        copy_bytes(line + off, src, piece);
        if (ls >= start)
            store_line(ls, line);
        else
            memcpy(start, line + (start - ls), (size_t)(ls + LINE - start));
        dst += piece;
        src += piece;
        rb -= piece;
        off = 0;
    } while (rb >= LINE);
    copy_bytes(line, src, rb);
}

/* Put the rb bytes of src at dst through the stream's line buffer `line`:
 * the byte for output address A goes to line[A % LINE]. A row may
 * straddle lines. */
static inline void wc_put(char *line, char *start, char *dst, const char *src,
                          int64_t rb)
{
    int64_t off = (int64_t)((uintptr_t)dst & (LINE - 1));
    if (off + rb < LINE)
        copy_bytes(line + off, src, rb);
    else
        wc_lines(line, start, dst, src, rb, off);
}

/* Write out the last line of the run [start, end) if it is partial, as
 * plain stores of the run's bytes alone. */
static inline void wc_flush(const char *line, char *start, char *end)
{
    char *ls = end - ((uintptr_t)end & (LINE - 1));
    char *from = ls > start ? ls : start;
    if (end > from)
        memcpy(from, line + (from - ls), (size_t)(end - from));
}

/* A thread's share of a partition: rows [lo, hi); its 2 * F counters,
 * first the chunk's histogram (then its write cursors) and then its run
 * starts; and its 2 * F line buffers, partition p's key line and then its
 * value line. */
struct part_task {
    const int64_t *keys;
    const char *vals;
    int64_t row_bytes, shift;
    uint64_t mask;
    int64_t lo, hi;
    int64_t *cur;
    char *lines;
    char *okeys, *ovals;
};

static void *part_count(void *arg)
{
    struct part_task *a = arg;
    for (int64_t i = a->lo; i < a->hi; i++)
        a->cur[((uint64_t)a->keys[i] >> a->shift) & a->mask]++;
    return NULL;
}

static void *part_scatter(void *arg)
{
    struct part_task *a = arg;
    const int64_t *keys = a->keys;
    const char *vals = a->vals;
    int64_t rb = a->row_bytes, shift = a->shift, F = (int64_t)a->mask + 1;
    int64_t *cur = a->cur, *start = cur + F;
    uint64_t mask = a->mask;
    char *okeys = a->okeys, *ovals = a->ovals, *lines = a->lines;
    memcpy(start, cur, (size_t)F * sizeof *cur);
    for (int64_t i = a->lo; i < a->hi; i++) {
        int64_t p = (int64_t)(((uint64_t)keys[i] >> shift) & mask);
        int64_t d = cur[p]++, s = start[p];
        char *kl = lines + 2 * p * LINE;
        wc_put(kl, okeys + s * 8, okeys + d * 8, (const char *)(keys + i), 8);
        wc_put(kl + LINE, ovals + s * rb, ovals + d * rb, vals + i * rb, rb);
    }
    for (int64_t p = 0; p < F; p++) {
        char *kl = lines + 2 * p * LINE;
        wc_flush(kl, okeys + start[p] * 8, okeys + cur[p] * 8);
        wc_flush(kl + LINE, ovals + start[p] * rb, ovals + cur[p] * rb);
    }
#ifdef __SSE2__
    _mm_sfence(); /* the streaming stores, visible before the join */
#endif
    return NULL;
}

/*
 * Stable counting sort of n rows on (key >> shift) & (F - 1), F a power
 * of two, on `threads` threads (the per-thread-histogram partition of
 * Polychroniou & Ross, SIGMOD 2014). Row i is keys[i] plus row_bytes
 * bytes at vals + i * row_bytes; rows go to okeys/ovals grouped by
 * partition, in input order within one. bounds (F + 1 entries) receives
 * the partition starts and n. hist (threads * 2 * F entries) and lines
 * (threads * 2 * F * LINE bytes, plus LINE spare bytes to align them) are
 * scratch. Thread t counts the partitions of the t-th contiguous chunk of
 * the input; one exclusive scan in (partition, thread) order turns the
 * counts into write cursors; each thread then scatters its own chunk.
 * Chunk t's rows of a partition thus follow those of chunks before it:
 * the output is that of one thread, byte for byte. The scatter combines
 * writes (Balkesen et al., ICDE 2013): each thread fills a line buffer per
 * partition and stream and writes each full line of its own rows out at
 * once (see wc_lines), so those lines are never read for ownership.
 * The shift is unsigned and the mask keeps the id below F, so every key,
 * negative or too large, lands in some partition: range checks belong to
 * the caller.
 */
void repro_partition(int64_t n, const int64_t *keys, const char *vals,
                     int64_t row_bytes, int64_t F, int64_t shift,
                     int64_t *okeys, char *ovals, int64_t *bounds,
                     int64_t threads, int64_t *hist, char *lines)
{
    struct part_task task[MAX_THREADS];
    int64_t Tn = clamp_threads(threads), pos = 0;
    lines += (LINE - (uintptr_t)lines % LINE) % LINE;
    memset(hist, 0, (size_t)(Tn * 2 * F) * sizeof *hist);
    for (int64_t t = 0; t < Tn; t++)
        task[t] = (struct part_task){keys, vals, row_bytes, shift,
                                     (uint64_t)F - 1, n * t / Tn,
                                     n * (t + 1) / Tn, hist + t * 2 * F,
                                     lines + t * 2 * F * LINE, (char *)okeys,
                                     ovals};
    run_tasks(Tn, part_count, task, sizeof *task);
    for (int64_t p = 0; p < F; p++) {
        bounds[p] = pos;
        for (int64_t t = 0; t < Tn; t++) {
            int64_t c = task[t].cur[p];
            task[t].cur[p] = pos;
            pos += c;
        }
    }
    bounds[F] = n;
    run_tasks(Tn, part_scatter, task, sizeof *task);
}
