package repro.spark;

import org.apache.spark.sql.Row;
import org.apache.spark.sql.expressions.MutableAggregationBuffer;
import org.apache.spark.sql.expressions.UserDefinedAggregateFunction;
import org.apache.spark.sql.types.DataType;
import org.apache.spark.sql.types.DataTypes;
import org.apache.spark.sql.types.StructType;

/**
 * The paper's {@code repro<ScalarT,L>} as an aggregate of Spark's own
 * {@code HashAggregate}: {@code update} is {@code +=(scalar)}, {@code merge}
 * is {@code +=(repro)} and {@code evaluate} the final conversion.
 *
 * <p>The buffer is 1 + 2L non-null longs, {@code (e, d_0..d_{L-1},
 * c_0..c_{L-1})}: the window top exponent {@code e} and, per level, the
 * sum of the deposited integer units as {@code c * 2**(m-2) + d}, the
 * state layout of {@code core._kernels.c} and of a row of
 * {@code GroupedBinnedAcc.export_states()}. Every sum is exact, so the
 * result is a pure function of the input multiset (DESIGN.md §2).
 * {@code e} is {@link #EMPTY} while only zeros were seen and
 * {@link #NONE} while no value was, so an all-NULL group sums to NULL.
 *
 * <p>{@code update} adds each unit to {@code d} and folds {@code d} into
 * the carry ({@code c += d >> (m-2); d &= mask}, which keeps the value)
 * before it could wrap; {@code merge} folds both states and then adds.
 * Every carry is added with {@link Math#addExact}, so no long can wrap:
 * a state past its headroom raises, naming the column.
 * {@link #mergeStates} and {@link #finish} are functions of
 * {@code long[]} states, the buffer's fields in order.
 */
public final class ReproSum extends UserDefinedAggregateFunction {
    private static final long serialVersionUID = 1L;

    /** Window of a state that has seen only zeros ({@code core.params.EMPTY_E}). */
    public static final long EMPTY = Long.MIN_VALUE;
    /** Window of a state that has seen no value at all. */
    public static final long NONE = Long.MIN_VALUE + 1;
    private static final long FOLD_AT = 1L << 62;

    private final String column;
    private final boolean single;
    private final int L, m, W, eLo, eHi;
    /** {@code 2**(m-2) - 1}: the bits of a folded {@code d} */
    private final long mask;
    /** per level, the extractor 1.5 * 2**(m - lev*W) */
    private final double[] M;

    /**
     * @param column the value column's name, for error texts
     * @param single float32 when true, float64 otherwise
     * @param L levels kept
     * @param W exponent distance between two levels
     * @param eBotMin lowest admissible exponent of the lowest level
     * @param eTopMax highest admissible window top exponent
     */
    public ReproSum(String column, boolean single, int L, int W, int eBotMin, int eTopMax) {
        this.column = column;
        this.single = single;
        this.L = L;
        this.W = W;
        this.m = single ? 23 : 52;
        this.eLo = eBotMin + (L - 1) * W;
        this.eHi = eTopMax;
        this.mask = (1L << (m - 2)) - 1;
        this.M = new double[L];
        for (int lev = 0; lev < L; lev++) M[lev] = Math.scalb(1.5, m - lev * W);
    }

    @Override public String name() { return "reprosum"; }

    @Override public String toString() {
        return "ReproSum(L=" + L + ", " + (single ? "float32" : "float64") + ")";
    }

    @Override public StructType inputSchema() {
        return new StructType().add("x", DataTypes.DoubleType);
    }

    @Override public StructType bufferSchema() {
        StructType s = new StructType().add("e", DataTypes.LongType, false);
        for (int lev = 0; lev < L; lev++) s = s.add("d" + lev, DataTypes.LongType, false);
        for (int lev = 0; lev < L; lev++) s = s.add("c" + lev, DataTypes.LongType, false);
        return s;
    }

    @Override public DataType dataType() {
        return single ? DataTypes.FloatType : DataTypes.DoubleType;
    }

    @Override public boolean deterministic() { return true; }

    @Override public void initialize(MutableAggregationBuffer buf) {
        buf.update(0, NONE);
        for (int i = 1; i <= 2 * L; i++) buf.update(i, 0L);
    }

    /** Deposits one value at its natural window; see DESIGN.md §6. */
    @Override public void update(MutableAggregationBuffer buf, Row input) {
        if (input.isNullAt(0)) return;
        double x = input.getDouble(0);
        if (single) x = (float) x;
        if (!(Math.abs(x) <= (single ? Float.MAX_VALUE : Double.MAX_VALUE))) {
            String what = Double.isNaN(x) ? "NaN" : x > 0 ? "inf" : "-inf";
            throw new ArithmeticException(prefix() + " holds " + what
                + "; reproducible SUM is defined for finite inputs only");
        }
        long e = buf.getLong(0);
        if (x == 0) {
            if (e == NONE) buf.update(0, EMPTY);
            return;
        }
        // |x| in [2**E, 2**(E+1)): the natural window is the smallest grid
        // exponent with |x| < 2**(e - m + W - 1)
        int E = single ? Math.getExponent((float) x) : Math.getExponent(x);
        if (E < (single ? Float.MIN_EXPONENT : Double.MIN_EXPONENT)) {  // subnormal
            E = single ? Math.getExponent((float) x * 0x1p23f) - 23
                       : Math.getExponent(x * 0x1p52) - 52;
        }
        long ex = -Math.floorDiv(-(E + m - W + 2), W) * W;
        if (e <= NONE) {
            e = ex;
            buf.update(0, e);
        } else if (ex > e) {
            long[] s = read(buf);
            align(s, ex);
            write(buf, s);
            e = ex;
        }
        int lev0 = (int) ((e - ex) / W);
        // scaled once to the window's grid, which is exact; level lev then
        // extracts q = (r + M) - M in the format's arithmetic, and
        // q * 2**(lev*W) is an integer
        if (single) {
            float r = Math.scalb((float) x, (int) (m - ex));
            for (int lev = 0; lev0 + lev < L; lev++) {
                float q = (r + (float) M[lev]) - (float) M[lev];
                r -= q;
                deposit(buf, lev0 + lev, (long) Math.scalb((double) q, lev * W));
            }
        } else {
            double r = Math.scalb(x, (int) (m - ex));
            for (int lev = 0; lev0 + lev < L; lev++) {
                double q = (r + M[lev]) - M[lev];
                r -= q;
                deposit(buf, lev0 + lev, (long) Math.scalb(q, lev * W));
            }
        }
    }

    /**
     * Adds {@code u} units to level {@code lev}'s {@code d}. A unit is at
     * most {@code 2**(W-1)}, so {@code d} cannot wrap before it passes
     * {@code 2**62}, where it is folded into the carry.
     */
    private void deposit(MutableAggregationBuffer buf, int lev, long u) {
        int d = 1 + lev;
        long x = buf.getLong(d) + u;
        if (Math.abs(x) > FOLD_AT) {
            int c = 1 + L + lev;
            buf.update(c, add(buf.getLong(c), x >> (m - 2)));
            x &= mask;
        }
        buf.update(d, x);
    }

    @Override public void merge(MutableAggregationBuffer buf, Row other) {
        long[] a = read(buf);
        mergeStates(a, read(other));
        write(buf, a);
    }

    @Override public Object evaluate(Row buf) {
        return finish(read(buf));
    }

    private long[] read(Row r) {
        long[] s = new long[1 + 2 * L];
        for (int i = 0; i <= 2 * L; i++) s[i] = r.getLong(i);
        return s;
    }

    private void write(MutableAggregationBuffer buf, long[] s) {
        for (int i = 0; i <= 2 * L; i++) buf.update(i, s[i]);
    }

    /**
     * Adds every state of {@code b}, consecutive blocks of 1 + 2L longs,
     * into the state {@code a}. Each pair is aligned to the larger window,
     * and each {@code d} is folded into its carry
     * ({@code c += d >> (m-2); d &= mask}) before the levels are added,
     * so {@code a} ends folded. {@code b} is folded in place.
     */
    public void mergeStates(long[] a, long[] b) {
        fold(a, 0);
        for (int o = 0; o < b.length; o += 1 + 2 * L) {
            if (b[o] == NONE) continue;
            fold(b, o);
            if (a[0] <= NONE) {
                System.arraycopy(b, o, a, 0, 1 + 2 * L);
                continue;
            }
            if (b[o] == EMPTY) continue;
            if (b[o] > a[0]) align(a, b[o]);
            int s = (int) ((a[0] - b[o]) / W);
            for (int lev = s; lev < L; lev++) {
                int d = 1 + lev, c = 1 + L + lev;
                long x = a[d] + b[o + d - s];  // both in [0, 2**(m-2))
                a[c] = add(add(a[c], b[o + c - s]), x >> (m - 2));
                a[d] = x & mask;
            }
        }
    }

    /** Folds every {@code d} of the state at {@code s[o]} into its carry. */
    private void fold(long[] s, int o) {
        for (int lev = 0; lev < L; lev++) {
            int d = o + 1 + lev, c = o + 1 + L + lev;
            s[c] = add(s[c], s[d] >> (m - 2));
            s[d] &= mask;
        }
    }

    /** Shifts a live state's levels down to the higher window {@code ex}. */
    private void align(long[] s, long ex) {
        int sh = (int) Math.min(L, (ex - s[0]) / W);
        for (int lev = L - 1; lev >= 0; lev--) {
            s[1 + lev] = lev >= sh ? s[1 + lev - sh] : 0;
            s[1 + L + lev] = lev >= sh ? s[1 + L + lev - sh] : 0;
        }
        s[0] = ex;
    }

    /**
     * The rounded sum of a state: NULL if it saw no value, 0 if only
     * zeros. Per level {@code d} is folded into {@code dev} in
     * {@code [0, 2**(m-2))} and the carry {@code C}, and
     * {@code Q += C*2**(e_l-2) + dev*2**(e_l-m)} runs from the lowest
     * level up in the format's arithmetic, as the compiled finalize does.
     * A window outside the guard rails raises, naming the column.
     */
    public Object finish(long[] s) {
        long e = s[0];
        if (e == NONE) return null;
        if (e == EMPTY) return single ? (Object) 0.0f : (Object) 0.0;
        if (e < eLo || e > eHi) {
            throw new ArithmeticException(prefix() + " has a group whose sum is outside the "
                + "supported range for " + (single ? "float32" : "float64") + " with L=" + L
                + ": window top exponent " + e + " must lie in [" + eLo + ", " + eHi + "]");
        }
        double qd = 0.0;
        float qf = 0.0f;
        for (int lev = L - 1; lev >= 0; lev--) {
            long C = add(s[1 + L + lev], s[1 + lev] >> (m - 2));
            long dev = s[1 + lev] & mask;
            int el = (int) (e - (long) lev * W);
            if (single) {
                qf = qf + ((float) C * (float) Math.scalb(1.0, el - 2)
                           + (float) dev * (float) Math.scalb(1.0, el - m));
            } else {
                qd = qd + ((double) C * Math.scalb(1.0, el - 2)
                           + (double) dev * Math.scalb(1.0, el - m));
            }
        }
        return single ? (Object) qf : (Object) qd;
    }

    private long add(long a, long b) {
        try {
            return Math.addExact(a, b);
        } catch (ArithmeticException ex) {
            throw new ArithmeticException(prefix() + " has a group whose level sum "
                + "exceeds the range of a long; split the group");
        }
    }

    private String prefix() {
        return "repro_sum: value column '" + column + "'";
    }
}
