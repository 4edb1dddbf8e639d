/* Compiled kernels of the buffered reproducible deposit, of its
 * renormalise-and-round finalize, of the value check before it, and of
 * the radix partition. `_kernels.py` builds this file on first use and
 * calls it through ctypes, with the number of morsels each call cuts its
 * work into and the number of threads, at most one per morsel, that take
 * them (see run_morsels).
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

/* Return codes of the finalize kernel; `*bad` says where. */
enum { DEP_OK = 0, DEP_RANGE = 1, DEP_OVERFLOW = 3 };

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

/* Morsels per kernel call, at most; `_kernels.morsels` caps at the same.
 * A call runs on at most one thread per morsel. */
#define MAX_MORSELS 64
/* Stack of each worker thread: the morsels below need a few hundred bytes. */
#define STACK_BYTES (1 << 18)

/* Work on morsel m of a call's `tasks`, on the thread numbered `thread`
 * (0 is the calling thread; every number is below the call's threads). */
typedef void (*morsel_fn)(void *tasks, int64_t m, int64_t thread);

static int64_t clamp_morsels(int64_t M)
{
    return M < 1 ? 1 : M > MAX_MORSELS ? MAX_MORSELS : M;
}

struct sched {
    morsel_fn fn;
    void *tasks;
    int64_t M, next;
};

struct worker {
    struct sched *s;
    int64_t thread;
};

static void *work(void *arg)
{
    struct worker *w = arg;
    struct sched *s = w->s;
    int64_t m;
    while ((m = __atomic_fetch_add(&s->next, 1, __ATOMIC_RELAXED)) < s->M)
        s->fn(s->tasks, m, w->thread);
    return NULL;
}

/*
 * Run fn on morsels 0..M-1 (M at most MAX_MORSELS): the calling thread
 * and T - 1 started threads each take the next morsel from a shared
 * counter until none is left, so a thread slowed by the host takes fewer.
 * T is clamped to [1, M]: a thread beyond the morsels would find none,
 * and the worker arrays hold one per morsel. A thread that cannot be
 * started leaves its morsels to the others. Morsels write disjoint
 * memory, and callers combine their results in morsel order, so which
 * thread runs which morsel, and when, changes no result.
 */
static void run_morsels(int64_t T, int64_t M, morsel_fn fn, void *tasks)
{
    struct sched s = {fn, tasks, M, 0};
    struct worker w[MAX_MORSELS];
    pthread_t tid[MAX_MORSELS];
    int started[MAX_MORSELS];
    pthread_attr_t attr;
    int have_attr;
    T = T < 1 ? 1 : T > M ? M : T;
    have_attr = T > 1 && pthread_attr_init(&attr) == 0;
    if (have_attr)
        pthread_attr_setstacksize(&attr, STACK_BYTES); /* default if refused */
    for (int64_t t = 0; t < T; t++)
        w[t] = (struct worker){&s, t};
    for (int64_t t = 1; t < T; t++)
        started[t] = pthread_create(&tid[t], have_attr ? &attr : NULL, work,
                                    &w[t]) == 0;
    work(&w[0]);
    for (int64_t t = 1; t < T; t++)
        if (started[t])
            pthread_join(tid[t], NULL);
    if (have_attr)
        pthread_attr_destroy(&attr);
}

/* The first of n rows (or slots) cut into M morsels that morsel m
 * takes: it takes [MORSEL_LO(n, M, m), MORSEL_LO(n, M, m + 1)). */
#define MORSEL_LO(n, M, m) ((n) * (m) / (M))

/* Move slot s's L levels down by sh (its window rose by sh * W): level l
 * takes level l - sh, the top sh levels start at zero. */
static inline void shift_levels(int64_t *x, int64_t ns, int64_t L, int64_t s,
                                int64_t sh)
{
    for (int64_t l = L - 1; l >= 0; l--)
        x[l * ns + s] = l >= sh ? x[(l - sh) * ns + s] : 0;
}

/* One value column's state and its format's guard rails. */
struct column {
    int64_t ns, L, e_max, e_min;
    int64_t *e_top, *dev, *C;
};

/* The pre-scan of a deposit's slots over M row morsels: in morsel m, the
 * first row whose slot is outside [0, ns) (-1 if none), and whether
 * slots >> k never falls, with its first and last value. */
struct slot_scan {
    const int64_t *slots;
    uint64_t ns;
    int64_t n, M, k;
    struct {
        int64_t bad;
        int ordered;
        uint64_t head, tail;
    } m[MAX_MORSELS];
};

static void scan_slots(void *arg, int64_t m, int64_t thread)
{
    struct slot_scan *a = arg;
    const int64_t *slots = a->slots;
    uint64_t ns = a->ns;
    int64_t k = a->k, lo = MORSEL_LO(a->n, a->M, m);
    int64_t hi = MORSEL_LO(a->n, a->M, m + 1);
    uint64_t prev = lo < hi ? (uint64_t)slots[lo] >> k : 0;
    int ordered = 1;
    (void)thread;
    a->m[m].bad = -1;
    a->m[m].head = prev;
    for (int64_t i = lo; i < hi; i++) {
        uint64_t s = (uint64_t)slots[i];
        if (s >= ns) {
            a->m[m].bad = i;
            return;
        }
        ordered &= s >> k >= prev;
        prev = s >> k;
    }
    a->m[m].ordered = ordered;
    a->m[m].tail = prev;
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

/* A deposit: morsel t deposits rows [bounds[t], bounds[t + 1]). */
struct dep_task {
    struct column c;
    const void *v;
    const int64_t *slots;
    int64_t bounds[MAX_MORSELS + 1];
};

/*
 * Deposit the n rows of task a on `threads` threads; return the morsels
 * it ran, or 0 with *bad the first row, in row order, whose slot lies
 * outside [0, ns). First a threaded pre-scan (M row morsels) checks every
 * slot, so a bad slot changes nothing, and checks whether the rows are
 * ordered on slots >> k. B is the largest power of two <= M, and k the
 * bits of ns - 1 less log2(B). Ordered rows (partition-ordered or
 * key-sorted) then run as B morsels, morsel t owning the slots whose
 * top bits, slots >> k, equal t; its rows are the run whose slots >> k
 * equal t, found by binary search. So no two morsels touch one slot.
 * Other rows run as one morsel, on the calling thread, which owns every
 * slot.
 */
static int64_t deposit(struct dep_task *a, int64_t n, int64_t threads,
                       int64_t morsels, morsel_fn rows, int64_t *bad)
{
    int64_t M = clamp_morsels(morsels), B = 1, lg = 0, ns = a->c.ns, t;
    int64_t bits = ns > 1 ? 64 - __builtin_clzll((uint64_t)(ns - 1)) : 0;
    while (2 * B <= M) {
        B *= 2;
        lg++;
    }
    struct slot_scan sc = {a->slots, (uint64_t)ns, n, M,
                           bits > lg ? bits - lg : 0, {{0, 0, 0, 0}}};
    run_morsels(threads, M, scan_slots, &sc);
    uint64_t last = 0;
    for (t = 0; t < M; t++) {
        if (sc.m[t].bad >= 0) {
            *bad = sc.m[t].bad;
            return 0;
        }
        if (MORSEL_LO(n, M, t) < MORSEL_LO(n, M, t + 1)) {
            if (!sc.m[t].ordered || sc.m[t].head < last)
                B = 1;
            last = sc.m[t].tail;
        }
    }
    a->bounds[0] = 0;
    for (t = 1; t < B; t++)
        a->bounds[t] = first_at_least(a->slots, a->bounds[t - 1], n, sc.k,
                                      (uint64_t)t);
    a->bounds[B] = n;
    run_morsels(threads, B, rows, a);
    return B;
}

/*
 * Deposit n values v[i] into slots slots[i] of one value column.
 *
 * State: e_top[ns], dev[L][ns], C[L][ns] (int64, level-major). W, the
 * mantissa bits m and the guard rails [e_min, e_max] are those of the
 * format (FloatFormat); W and m are constants of each instantiation.
 * Values are not checked: they have passed check_values (finite, below
 * FloatFormat.abs_limit), so no window rises above e_max. One pass over
 * a morsel's rows; per value:
 *
 * 1. take the grid exponent of its natural window from its bits and raise
 *    the slot's window to it, shifting dev/C as
 *    GroupedBinnedAcc._prepare_windows does. A value needs a raise iff
 *    efr + m - W + 1 > e_top (EMPTY_E is the smallest int64). The lower
 *    guard rail is not checked: a later value may still raise the window
 *    above it, so it is checked on the final windows, by finalize and
 *    export_states.
 * 2. per level l: S = r + M_l in the format's arithmetic, units =
 *    bits(S) - bits(M_l), r -= S - M_l. |r| < 2**(e_l - (m - W + 1)), so
 *    S stays in M_l's binade, where one unit of the bits is
 *    2**(e_l - m): the units are (S - M_l) * 2**(m - e_l) exactly. Levels
 *    below e_min are skipped: their extractor would not be a normal
 *    number, and any raise that makes the window legal shifts them out,
 *    so they cannot reach a result bit.
 *
 * Depositing at a window and raising it later gives the bits of
 * depositing at the raised window: a value's extraction at a window W
 * (or more) above its own is exactly 0. So the order of raises and adds
 * within the pass changes no bit.
 */
#define DEFINE_DEPOSIT(NAME, T, U, EFR, EXTRACTOR, MANT, W)                   \
    static void NAME##_rows(void *arg, int64_t t, int64_t thread)             \
    {                                                                         \
        struct dep_task *a = arg;                                             \
        const T *v = a->v;                                                    \
        const int64_t *slots = a->slots;                                      \
        int64_t ns = a->c.ns, L = a->c.L, e_min = a->c.e_min;                 \
        int64_t *e_top = a->c.e_top, *dev = a->c.dev, *C = a->c.C;            \
        (void)thread;                                                         \
        for (int64_t i = a->bounds[t]; i < a->bounds[t + 1]; i++) {           \
            T r = v[i];                                                       \
            int64_t efr = EFR(r);                                             \
            if (efr == ZERO_EFR)                                              \
                continue; /* zeros deposit nothing and open no window */      \
            int64_t s = slots[i], e = e_top[s], req = efr + (MANT) - (W) + 1; \
            if (req > e) {                                                    \
                int64_t up = -floor_div(-req, (W)) * (W);                     \
                if (e != EMPTY_E) {                                           \
                    shift_levels(dev, ns, L, s, (up - e) / (W));              \
                    shift_levels(C, ns, L, s, (up - e) / (W));                \
                }                                                             \
                e_top[s] = e = up;                                            \
            }                                                                 \
            for (int64_t l = 0; l < L && e - l * (W) >= e_min; l++) {         \
                T M_l = EXTRACTOR(e - l * (W)), S = r + M_l;                  \
                U bs, bm;                                                     \
                memcpy(&bs, &S, sizeof bs);                                   \
                memcpy(&bm, &M_l, sizeof bm);                                 \
                dev[l * ns + s] += (int64_t)bs - (int64_t)bm;                 \
                r = r - (S - M_l);                                            \
            }                                                                 \
        }                                                                     \
    }                                                                         \
                                                                              \
    int64_t NAME(int64_t n, const T *v, const int64_t *slots, int64_t ns,     \
                 int64_t L, int64_t e_min, int64_t *e_top, int64_t *dev,      \
                 int64_t *C, int64_t threads, int64_t morsels, int64_t *bad)  \
    {                                                                         \
        struct dep_task a = {{ns, L, 0 /* e_max */, e_min, e_top, dev, C},    \
                             v, slots, {0}};                                  \
        return deposit(&a, n, threads, morsels, NAME##_rows, bad);            \
    }

DEFINE_DEPOSIT(repro_deposit_f64, double, uint64_t, efr_f64, extractor_f64,
               52, 40)
DEFINE_DEPOSIT(repro_deposit_f32, float, uint32_t, efr_f32, extractor_f32,
               23, 18)

/* A finalize: morsel t takes slots [ns * t / M, ns * (t + 1) / M), and
 * records the first error it met. */
struct fin_task {
    struct column c;
    void *out;
    int64_t stride, M;
    struct {
        int rc;
        int64_t bad;
    } m[MAX_MORSELS];
};

/*
 * Renormalise one value column's state in place and round every slot to
 * the format, out[s * stride]; one pass, bit for bit finalize_state after
 * renorm (binned.py), over M morsels of contiguous slots.
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
#define DEFINE_FINALIZE(NAME, T, POW2, MANT, W)                               \
    static void NAME##_slots(void *arg, int64_t t, int64_t thread)            \
    {                                                                         \
        struct fin_task *a = arg;                                             \
        int64_t ns = a->c.ns, L = a->c.L, e_max = a->c.e_max;                 \
        int64_t e_min = a->c.e_min, stride = a->stride, c;                    \
        int64_t hi = MORSEL_LO(ns, a->M, t + 1);                              \
        const int64_t *e_top = a->c.e_top;                                    \
        int64_t *dev = a->c.dev, *C = a->c.C;                                 \
        T *out = a->out;                                                      \
        (void)thread;                                                         \
        a->m[t].rc = DEP_OK;                                                  \
        for (int64_t s = MORSEL_LO(ns, a->M, t); s < hi; s++) {               \
            for (int64_t l = 0; l < L; l++) {                                 \
                int64_t carry = dev[l * ns + s] >> ((MANT) - 2); /* floor */  \
                if (__builtin_add_overflow(C[l * ns + s], carry, &c)) {       \
                    a->m[t].bad = s;                                          \
                    a->m[t].rc = DEP_OVERFLOW;                                \
                    return;                                                   \
                }                                                             \
                C[l * ns + s] = c;                                            \
                dev[l * ns + s] -= carry * ((int64_t)1 << ((MANT) - 2));      \
            }                                                                 \
            int64_t e = e_top[s];                                             \
            T q = 0;                                                          \
            if (e != EMPTY_E) {                                               \
                if (e > e_max || e - (L - 1) * (W) < e_min) {                 \
                    a->m[t].bad = e;                                          \
                    a->m[t].rc = DEP_RANGE;                                   \
                    return;                                                   \
                }                                                             \
                for (int64_t l = L - 1; l >= 0; l--) {                        \
                    int64_t el = e - l * (W);                                 \
                    T term = (T)C[l * ns + s] * POW2(el - 2)                  \
                             + (T)dev[l * ns + s] * POW2(el - (MANT));        \
                    q = q + term;                                             \
                }                                                             \
            }                                                                 \
            out[s * stride] = q;                                              \
        }                                                                     \
    }                                                                         \
                                                                              \
    int NAME(int64_t ns, int64_t L, int64_t e_max, int64_t e_min,             \
             int64_t *e_top, int64_t *dev, int64_t *C, T *out,                \
             int64_t stride, int64_t threads, int64_t morsels, int64_t *bad)  \
    {                                                                         \
        struct fin_task a = {{ns, L, e_max, e_min, e_top, dev, C}, out,       \
                             stride, clamp_morsels(morsels), {{0, 0}}};       \
        run_morsels(threads, a.M, NAME##_slots, &a);                          \
        for (int64_t t = 0; t < a.M; t++) {                                   \
            if (a.m[t].rc != DEP_OK) {                                        \
                *bad = a.m[t].bad;                                            \
                return a.m[t].rc;                                             \
            }                                                                 \
        }                                                                     \
        return DEP_OK;                                                        \
    }

DEFINE_FINALIZE(repro_finalize_f64, double, pow2, 52, 40)
DEFINE_FINALIZE(repro_finalize_f32, float, pow2f, 23, 18)

/* A value scan over M morsels of contiguous elements, and the first
 * element of each morsel outside the limit (the morsel's end if none). */
struct scan_task {
    const void *v;
    uint64_t limit;
    int64_t n, M;
    int64_t first[MAX_MORSELS];
};

/*
 * Index of the first value among v[0..n) that is NaN, Inf or of magnitude
 * at least the float whose bits are `limit` (finite, > 0), n if none; the
 * lowest morsel with one holds the first. One unsigned compare of the
 * sign-cleared bits tests all three: the bits of non-negative floats
 * order as their values, and those of Inf and NaN lie above every finite
 * value's.
 */
#define DEFINE_FIRST_OUTSIDE(NAME, T, U)                                      \
    static void NAME##_scan(void *arg, int64_t t, int64_t thread)             \
    {                                                                         \
        struct scan_task *a = arg;                                            \
        const T *v = a->v;                                                    \
        U abs_mask = (U)-1 >> 1, limit = (U)a->limit;                         \
        int64_t i, hi = MORSEL_LO(a->n, a->M, t + 1);                         \
        (void)thread;                                                         \
        for (i = MORSEL_LO(a->n, a->M, t); i < hi; i++) {                     \
            U b;                                                              \
            memcpy(&b, &v[i], sizeof b);                                      \
            if ((b & abs_mask) >= limit)                                      \
                break;                                                        \
        }                                                                     \
        a->first[t] = i;                                                      \
    }                                                                         \
                                                                              \
    int64_t NAME(int64_t n, const T *v, uint64_t limit, int64_t threads,      \
                 int64_t morsels)                                             \
    {                                                                         \
        struct scan_task a = {v, limit, n, clamp_morsels(morsels), {0}};      \
        run_morsels(threads, a.M, NAME##_scan, &a);                           \
        for (int64_t t = 0; t < a.M; t++) {                                   \
            if (a.first[t] < MORSEL_LO(n, a.M, t + 1))                        \
                return a.first[t];                                            \
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
 * this, with the fence in the scatter, is the only architecture-specific
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

/* Write out the complete line buffer `line` to the output line at ls, for
 * the run of one output stream that starts at `start`. A line that holds
 * only this run's bytes goes out as one streaming store; the run's first
 * line, whose bytes before `start` belong to other runs, as plain stores
 * of the run's bytes alone. A line completes once per LINE bytes of a
 * run, so this is kept out of the scatter loop. */
static __attribute__((noinline)) void emit_line(const char *line, char *start,
                                                char *ls)
{
    if (ls >= start)
        store_line(ls, line);
    else
        memcpy(start, line + (start - ls), (size_t)(ls + LINE - start));
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

/* A partition over M morsels of contiguous rows. Row i is keys[i] and
 * the element at vals + i * (element size). Morsel m's 2 * F
 * counters lie at hist + 2 * F * m: first its histogram (then its write
 * cursors), then its run starts. Thread t's 2 * F line buffers lie at
 * lines + 2 * F * LINE * t: partition p's key line, then its value line. */
struct part_task {
    const int64_t *keys;
    const char *vals;
    int64_t n, M, shift;
    uint64_t mask;
    int64_t *hist;
    char *lines;
    int64_t *okeys;
    char *ovals;
};

static void part_count(void *arg, int64_t m, int64_t thread)
{
    struct part_task *a = arg;
    int64_t F = (int64_t)a->mask + 1, *cnt = a->hist + 2 * F * m;
    int64_t hi = MORSEL_LO(a->n, a->M, m + 1);
    (void)thread;
    memset(cnt, 0, (size_t)F * sizeof *cnt);
    for (int64_t i = MORSEL_LO(a->n, a->M, m); i < hi; i++)
        cnt[((uint64_t)a->keys[i] >> a->shift) & a->mask]++;
}

/* Put element x, bound for dst, in the stream's line buffer at
 * dst % LINE; write the line out once x completes it. The run dst belongs
 * to starts at element *first of base, read only then. The element size
 * divides LINE and dst is aligned to it, so x never straddles two lines. */
#define DEFINE_PUT(NAME, U)                                                   \
    static inline void NAME(char *line, U *base, const int64_t *first,        \
                            U *dst, U x)                                      \
    {                                                                         \
        uintptr_t off = (uintptr_t)dst & (LINE - 1);                          \
        memcpy(line + off, &x, sizeof x);                                     \
        if (off == LINE - sizeof x)                                           \
            emit_line(line, (char *)(base + *first), (char *)dst - off);      \
    }

DEFINE_PUT(put_u8, uint8_t)
DEFINE_PUT(put_u16, uint16_t)
DEFINE_PUT(put_u32, uint32_t)
DEFINE_PUT(put_u64, uint64_t)

#ifdef __SSE2__
#define SFENCE() _mm_sfence()
#else
#define SFENCE() ((void)0)
#endif

/* Scatter morsel m's rows to their write cursors through the thread's
 * line buffers, then write out the last, partial line of each of the
 * morsel's runs. */
#define DEFINE_SCATTER(NAME, U, PUT)                                          \
    static void NAME(void *arg, int64_t m, int64_t thread)                    \
    {                                                                         \
        struct part_task *a = arg;                                            \
        const int64_t *keys = a->keys;                                        \
        const char *vals = a->vals;                                           \
        int64_t shift = a->shift, F = (int64_t)a->mask + 1;                   \
        int64_t *cur = a->hist + 2 * F * m, *start = cur + F;                 \
        int64_t hi = MORSEL_LO(a->n, a->M, m + 1);                            \
        uint64_t mask = a->mask;                                              \
        uint64_t *okeys = (uint64_t *)a->okeys;                               \
        U *ovals = (U *)a->ovals;                                             \
        char *lines = a->lines + 2 * F * LINE * thread;                       \
        memcpy(start, cur, (size_t)F * sizeof *cur);                          \
        for (int64_t i = MORSEL_LO(a->n, a->M, m); i < hi; i++) {             \
            uint64_t key = (uint64_t)keys[i];                                 \
            int64_t p = (int64_t)((key >> shift) & mask);                     \
            int64_t d = cur[p]++;                                             \
            char *kl = lines + 2 * p * LINE;                                  \
            U x;                                                              \
            put_u64(kl, okeys, start + p, okeys + d, key);                    \
            memcpy(&x, vals + i * (int64_t)sizeof x, sizeof x);               \
            PUT(kl + LINE, ovals, start + p, ovals + d, x);                   \
        }                                                                     \
        for (int64_t p = 0; p < F; p++) {                                     \
            char *kl = lines + 2 * p * LINE;                                  \
            wc_flush(kl, (char *)(okeys + start[p]),                          \
                     (char *)(okeys + cur[p]));                               \
            wc_flush(kl + LINE, (char *)(ovals + start[p]),                   \
                     (char *)(ovals + cur[p]));                               \
        }                                                                     \
        SFENCE(); /* the streaming stores, visible before the join */         \
    }

DEFINE_SCATTER(scatter_u8, uint8_t, put_u8)
DEFINE_SCATTER(scatter_u16, uint16_t, put_u16)
DEFINE_SCATTER(scatter_u32, uint32_t, put_u32)
DEFINE_SCATTER(scatter_u64, uint64_t, put_u64)

/*
 * Stable counting sort of n rows on (key >> shift) & (F - 1), F a power
 * of two, on `threads` threads over M morsels of contiguous rows (the
 * per-thread-histogram partition of Polychroniou & Ross, SIGMOD 2014,
 * with a histogram per morsel). Row i is keys[i] and one element of
 * elem_bytes bytes (1, 2, 4 or 8) at vals + i * elem_bytes; rows go to
 * okeys/ovals, each aligned to its element size, grouped by partition,
 * in input order within one. bounds (F + 1 entries) receives the
 * partition starts and n. hist (M * 2 * F entries) and lines (threads *
 * 2 * F * LINE bytes, plus LINE spare bytes to align them) are scratch.
 * Each morsel counts the partitions of its rows; one exclusive scan in
 * (partition, morsel) order turns the counts into write cursors; each
 * morsel then scatters its own rows. Morsel m's rows of a partition thus
 * follow those of morsels before it: the output is that of one thread,
 * byte for byte. The scatter combines writes (Balkesen et al., ICDE
 * 2013): a thread fills a line buffer per partition and stream and
 * writes each full line of its morsel's rows out at once (see
 * emit_line), so those lines are never read for ownership. Every element
 * size divides the line, so elements are written whole. The shift is
 * unsigned and the mask keeps the id below F, so every key, negative or
 * too large, lands in some partition: range checks belong to the caller.
 */
void repro_partition(int64_t n, const int64_t *keys, const char *vals,
                     int64_t elem_bytes, int64_t F, int64_t shift,
                     int64_t *okeys, char *ovals, int64_t *bounds,
                     int64_t threads, int64_t morsels, int64_t *hist,
                     char *lines)
{
    int64_t M = clamp_morsels(morsels), pos = 0;
    morsel_fn scatter = elem_bytes == 1   ? scatter_u8
                        : elem_bytes == 2 ? scatter_u16
                        : elem_bytes == 4 ? scatter_u32
                                          : scatter_u64;
    struct part_task a = {keys, vals, n, M, shift, (uint64_t)F - 1, hist,
                          lines + (LINE - (uintptr_t)lines % LINE) % LINE,
                          okeys, ovals};
    run_morsels(threads, M, part_count, &a);
    for (int64_t p = 0; p < F; p++) {
        bounds[p] = pos;
        for (int64_t m = 0; m < M; m++) {
            int64_t c = hist[2 * F * m + p];
            hist[2 * F * m + p] = pos;
            pos += c;
        }
    }
    bounds[F] = n;
    run_morsels(threads, M, scatter, &a);
}
