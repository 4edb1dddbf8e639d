"""Reproducible GROUPBY SUM for Spark DataFrames.

This is the paper's algorithm (Sections IV/V) inside Spark's own
aggregation operator: :func:`rsum_groupby` is one Catalyst plan of JVM
expressions, with no Python operator in it. The binned format makes
that possible: a value's contribution to the bin at exponent ``e`` is a
pure function of the value and ``e`` (DESIGN.md §2), so every value can
be deposited on its own, at its own natural window, and the per-bin
sums merged later in any order.

Pipeline shape: deposit projection → Spark's partial aggregate →
shuffle → final aggregate → SQL align/renorm/finalize:

1. ``stack`` turns every input row into one (keys, column id, value) row
   per value column, so each expression below is written once for all
   value columns. NaN and ±Inf raise in the JVM, naming the column.
2. A projection deposits each value at its natural window ``e``
   (``FloatFormat.top_exponent``). The value is scaled once to the
   window's grid, ``y = x * 2**(m-e)``, which is exact, so level ``l``
   extracts ``q = (r + M) - M`` against the constant
   ``M = 1.5 * 2**(m - l*W)`` in the format's arithmetic. Each level's
   integer units are split into two long halves.
3. ``groupBy(keys, column id, window)`` sums the halves exactly, with
   Spark's own partial aggregation before the shuffle.
4. :func:`_merge_states` aligns every group's windows to its largest,
   renormalises and finalizes, also in SQL. Because every per-level sum
   is exact, the result is bit-identical for any order or partitioning.

A single-phase grouped-aggregate pandas UDAF (:func:`repro_sum_udf`) is
also provided for direct use in ``df.groupBy(...).agg(...)``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..core.binned import BinnedSum
from ..core.params import EMPTY_E, FloatFormat, fmt_for

__all__ = ["rsum_groupby", "repro_sum_udf"]

#: per-bin columns besides the keys: value column id and window; then,
#: per level l, ``__h<l>`` and ``__l<l>``, the sums of the units' halves
_J, _E = "__j", "__e"


def _as_list(x) -> list[str]:
    return [x] if isinstance(x, str) else list(x)


def _key_codes(pdf: pd.DataFrame, keycols: list[str], index: dict,
               rows: list) -> np.ndarray:
    """Dense per-partition group code of every row of one Arrow batch.

    ``index`` maps key tuples to codes and ``rows`` lists the key tuples
    in code order; both persist across the batches of a partition and
    grow with every key not seen before.
    """
    codes_local = pdf.groupby(keycols, sort=False, dropna=False).ngroup().to_numpy()
    first = np.unique(codes_local, return_index=True)[1]
    ktups = [
        tuple(r)
        for r in pdf.iloc[first][keycols].itertuples(index=False, name=None)
    ]
    gcodes = np.empty(len(ktups), np.int64)
    for i, t in enumerate(ktups):
        code = index.get(t)
        if code is None:
            code = len(index)
            index[t] = code
            rows.append(t)
        gcodes[i] = code
    return gcodes[codes_local]


def _q(name: str) -> str:
    """``name`` as a quoted SQL identifier."""
    return "`" + name.replace("`", "``") + "`"


def _s(text: str) -> str:
    """``text`` as an SQL string literal."""
    return "'" + text.replace("\\", "\\\\").replace("'", "\\'") + "'"


def _d(x: float) -> str:
    """``x`` as an SQL double literal; ``repr`` round-trips exactly."""
    return f"{x!r}D"


def _finite(c: str, name: str, who: str) -> str:
    """SQL: ``c``, or an error raised in the JVM that names the column
    where ``c`` is NaN or ±Inf. NaN must be caught there: pandas (in the
    UDAF) would read it as NULL and drop it."""
    what = f"CASE WHEN isnan({c}) THEN 'NaN' WHEN {c} > 0 THEN 'inf' ELSE '-inf' END"
    msg = (f"concat({_s(f'{who}: value column {name!r} holds ')}, {what}, "
           f"'; reproducible SUM is defined for finite inputs only')")
    # one test per value: NaN fails every comparison
    return (f"CASE WHEN NOT abs({c}) <= {_d(float(np.finfo(np.float64).max))}"
            f" THEN raise_error({msg}) ELSE {c} END")


def _times_pow2(c: str, k: int) -> str:
    """SQL: ``c * 2**k`` for a constant ``k``, in multiplies that stay finite."""
    while k > 1000:
        c, k = f"{c} * {_d(2.0 ** 1000)}", k - 1000
    return f"{c} * {_d(2.0 ** k)}"


def rsum_groupby(df: DataFrame, keys, values, *, L: int = 2,
                 dtype="float64") -> DataFrame:
    """Reproducible per-group sums of ``values`` grouped by ``keys``.

    Returns a DataFrame with the key columns plus one ``<v>_rsum``
    column per value column. The result is a pure function of the input
    *multiset*: repartitioning, reordering, or changing
    ``spark.sql.shuffle.partitions`` does not change a single bit
    (asserted in tests). ``L`` controls accuracy as in the paper
    (L=2 ≈ IEEE accuracy, L=3 far beyond it). As SQL SUM, NULLs are
    ignored and a group whose values are all NULL sums to NULL.
    NaN, ±Inf and a group whose sum leaves the supported range raise,
    naming the column.
    """
    keycols, valcols = _as_list(keys), _as_list(values)
    fmt = fmt_for(np.float32 if str(dtype) in ("float32", "float") else np.float64)
    W, m = fmt.W, fmt.m
    # the lowest extractor, 1.5 * 2**(m - (L-1)*W), must be a normal number
    max_L = 1 + (m - np.finfo(fmt.dtype).minexp) // W
    if not 1 <= L <= max_L:
        raise ValueError(f"rsum_groupby: L={L} is outside [1, {max_L}], the levels "
                         f"whose extractors are normal {fmt.dtype.name} numbers")
    ftype = "FLOAT" if fmt.dtype == np.float32 else "DOUBLE"
    lo_bits = (m - 2) // 2  # the units' halves, as _merge_states reads them
    keys = [_q(k) for k in keycols]

    pairs = ", ".join(
        f"{j}, {_finite(f'CAST({_q(vc)} AS {ftype})', vc, 'rsum_groupby')}"
        for j, vc in enumerate(valcols))
    stacked = df.selectExpr(*keys, f"stack({len(valcols)}, {pairs}) AS ({_J}, __x)")
    # SELECTs whose columns refer to the ones before them; one per level,
    # as the analyzer resolves such a chain one link per iteration
    # natural window: |x| in [2**E, 2**(E+1)) gives e = W*ceil((E+m-W+2)/W);
    # log2 may miss E by one, so e can be one level off, which y shows
    cols = [f"CASE WHEN __x = 0 THEN {EMPTY_E}L ELSE ceil((floor(log2(abs(__x)))"
            f" + {m - W + 2}) / {W}) * {W} END AS __e0",
            # NULL x: NULL window, 0 units
            f"coalesce(CASE WHEN __x = 0 THEN 0.0D WHEN __e0 < {m - 1000}"
            f" THEN __x * {_d(2.0 ** 1000)} * pow(2.0D, {m - 1000} - __e0)"
            f" ELSE __x * pow(2.0D, {m} - __e0) END, 0.0D) AS __y"]
    high, low = f"abs(__y) >= {_d(2.0 ** (W - 1))}", "abs(__y) < 0.5D AND __y != 0"
    cols += [f"__e0 + CASE WHEN {high} THEN {W} WHEN {low} THEN -{W} ELSE 0 END AS {_E}",
             f"CAST(__y * CASE WHEN {high} THEN {_d(2.0 ** -W)}"
             f" WHEN {low} THEN {_d(2.0 ** W)} ELSE 1.0D END AS {ftype}) AS __r0"]
    # per level, exact error-free extraction in the format's arithmetic
    dep, units = stacked.selectExpr(*keys, _J, *cols), []
    for lev in range(L):
        M = f"CAST({_d(1.5 * 2.0 ** (m - lev * W))} AS {ftype})"
        q = f"CAST(__q{lev} AS DOUBLE)"
        dep = dep.selectExpr("*", f"(__r{lev} + {M}) - {M} AS __q{lev}",
                             f"__r{lev} - __q{lev} AS __r{lev + 1}",
                             f"CAST({_times_pow2(q, lev * W)} AS BIGINT) AS __u{lev}")
        units += [f"sum(shiftright(__u{lev}, {lo_bits})) AS __h{lev}",
                  f"sum(__u{lev} & {(1 << lo_bits) - 1}) AS __l{lev}"]
    bins = dep.groupBy(*keycols, _J, _E).agg(*map(F.expr, units))
    return _merge_states(bins, keycols, valcols, L=L, fmt=fmt)


def _merge_states(bins: DataFrame, keycols: list[str], valcols: list[str], *,
                  L: int, fmt: FloatFormat) -> DataFrame:
    """Merge and finalize per-bin sums per group in Spark SQL alone.

    ``bins`` holds the key columns, the value column id ``__j``, a
    window ``__e`` and, per level ``l``, the sums ``__h<l>`` and
    ``__l<l>`` of the high and low halves of the units deposited there,
    ``units = h * 2**lo_bits + l``. A group may have any number of rows
    per column, in any order; ``__e`` is ``EMPTY_E`` for rows of zeros
    and NULL for rows of NULLs. The steps are those of
    ``GroupedBinnedAcc.merge_state_rows`` followed by ``finalize``:

    * align — every live row is shifted ``s = (e_max - e) / W`` levels to
      its group's largest window ``e_max``; rows with ``s >= L`` and
      ``EMPTY_E`` rows contribute nothing;
    * sum — per level, the halves as longs; a deposited unit is at most
      ``2**(W-1)``, so both its halves are below ``2**lo_bits`` and no
      sum can overflow (2**38 rows of headroom for double) whether or
      not ANSI overflow checks are on;
    * renorm — the halves recombine into ``dev in [0, 2**(m-2))`` and a
      carry ``C``, in exact integer steps;
    * finalize — ``Q = Q + (C*2**(e_l-2) + dev*2**(e_l-m))`` from the
      lowest level up, in the format's own arithmetic, as
      ``finalize_state`` does. ``pow(2.0, int)`` is exact for
      representable powers of two, so each product is rounded once.

    A group whose merged window leaves ``[e_bot_min + (L-1)*W,
    e_top_max]`` raises, naming the column. Returns the key columns plus
    ``<v>_rsum`` per value column; a group whose rows are all
    ``EMPTY_E`` or NULL sums to 0, and one whose rows are all NULL sums
    to NULL.
    """
    W, m = fmt.W, fmt.m
    lo_bits = (m - 2) // 2            # units = hi * 2**lo_bits + lo
    hi_bits = (m - 2) - lo_bits
    dev_mask = (1 << (m - 2)) - 1
    ftype = "FLOAT" if fmt.dtype == np.float32 else "DOUBLE"
    keys = [_q(k) for k in keycols]

    # EMPTY_E (the smallest long) loses every max(); EMPTY_E and NULL
    # rows get a NULL shift, so they contribute nothing. Partitioning by
    # the keys alone serves the window and both aggregations below.
    live = bins.repartition(*keycols).selectExpr("*", (
        f"(max({_E}) OVER (PARTITION BY {', '.join(keys)}, {_J})"
        f" - nullif({_E}, {EMPTY_E}L)) DIV {W} AS __s"))

    def aligned(part: str, lev: int) -> str:
        """A row's share of level ``lev`` once shifted down ``s`` levels:
        its own level ``lev - s``."""
        whens = " ".join(f"WHEN {s} THEN __{part}{lev - s}" for s in range(lev + 1))
        return f"sum(CASE __s {whens} ELSE 0 END) AS __{part}{lev}"

    merged = live.groupBy(*keycols, _J).agg(
        F.expr(f"max({_E}) AS {_E}"),
        *[F.expr(aligned(part, lev)) for lev in range(L) for part in "hl"])

    def scaled(n: str, k: str) -> str:
        """``n * 2**k`` rounded once to the output format."""
        if ftype == "FLOAT":
            return f"CAST({n} AS FLOAT) * CAST(pow(2.0D, {k}) AS FLOAT)"
        return f"CAST({n} AS DOUBLE) * pow(2.0D, {k})"

    Q = f"CAST(0.0D AS {ftype})"
    for lev in reversed(range(L)):
        H, Lo = f"__h{lev}", f"__l{lev}"
        # D = H * 2**lo_bits + Lo, split into C * 2**(m-2) + dev
        low = (f"(shiftleft({H} & {(1 << hi_bits) - 1}, {lo_bits})"
               f" + ({Lo} & {dev_mask}))")
        C = (f"shiftright({H}, {hi_bits}) + shiftright({Lo}, {m - 2})"
             f" + shiftright({low}, {m - 2})")
        e_l = f"{_E} - {lev * W}"
        Q = (f"({Q} + ({scaled(C, e_l + ' - 2')}"
             f" + {scaled(f'{low} & {dev_mask}', e_l + f' - {m}')}))")
    e_lo, e_hi = fmt.e_bot_min + (L - 1) * W, fmt.e_top_max
    names = ", ".join(_s(repr(vc)) for vc in valcols)
    out_of_range = (
        f"raise_error(concat('rsum_groupby: value column ', element_at(array({names}),"
        f" {_J} + 1), ' has a group whose sum is outside the supported range for "
        f"{fmt.dtype.name} with L={L}: window top exponent ', {_E},"
        f" ' must lie in [{e_lo}, {e_hi}]'))")
    # max(e) is EMPTY_E for a group of zeros, NULL for one of NULLs
    sums = merged.selectExpr(*keys, _J, (
        f"CASE WHEN {_E} = {EMPTY_E}L THEN CAST(0.0D AS {ftype})"
        f" WHEN {_E} NOT BETWEEN {e_lo} AND {e_hi} THEN {out_of_range}"
        f" ELSE {Q} END AS __sum"))
    return sums.groupBy(*keycols).agg(*[
        F.expr(f"max(CASE WHEN {_J} = {j} THEN __sum END) AS {_q(vc + '_rsum')}")
        for j, vc in enumerate(valcols)])


def pandas_sum_groupby(df: DataFrame, keys, values) -> DataFrame:
    """Plain (non-reproducible) double SUM through a pandas operator.

    The mapInPandas partial → shuffle → final-merge pipeline with
    ordinary float64 accumulation: the cost of the Python/JVM boundary
    that :func:`rsum_groupby` no longer pays, for perfbench's layer
    numbers and Table IV's pandas-pipeline row. Columns are named
    ``<v>_rsum`` to be drop-in comparable.
    """
    keycols, valcols = _as_list(keys), _as_list(values)
    key_fields = [df.schema[k] for k in keycols]
    schema = T.StructType(
        list(key_fields) + [T.StructField(f"{v}_rsum", T.DoubleType())
                            for v in valcols]
    )

    def partial(batches):
        # built-in-operator cost profile: one scatter-add per element per
        # column into a dense table (the paper's float baseline)
        index: dict[tuple, int] = {}
        rows: list[tuple] = []
        table = np.zeros((0, len(valcols)))
        for pdf in batches:
            if len(pdf) == 0:
                continue
            slots = _key_codes(pdf, keycols, index, rows)
            if len(index) > table.shape[0]:
                table = np.vstack(
                    [table, np.zeros((len(index) - table.shape[0], len(valcols)))]
                )
            vals = pdf[valcols].to_numpy(np.float64, na_value=0.0)
            for jcol in range(len(valcols)):
                np.add.at(table[:, jcol], slots, vals[:, jcol])
        if rows:
            out = {kc: [r[i] for r in rows] for i, kc in enumerate(keycols)}
            for jcol, vc in enumerate(valcols):
                out[f"{vc}_rsum"] = table[: len(rows), jcol]
            yield pd.DataFrame(out)

    partials = df.select(*keycols, *valcols).mapInPandas(partial, schema)
    return partials.groupBy(*keycols).agg(
        *[F.sum(f"{v}_rsum").alias(f"{v}_rsum") for v in valcols]
    )


def repro_sum_udf(L: int = 2, dtype="float64"):
    """Single-phase reproducible SUM as a grouped-agg pandas UDAF.

    Usage: ``df.groupBy("k").agg(repro_sum_udf(L=2)(F.col("v")).alias("s"))``.
    Spark gathers each group's values into one pandas Series (no partial
    aggregation); the vectorized binned kernel makes the result
    independent of the gather order. NaN and ±Inf raise in the JVM,
    naming the column, before pandas could read NaN as NULL. Suited to
    moderate group sizes — for very large groups prefer
    :func:`rsum_groupby`, which aggregates partials per partition.
    """
    npdtype = np.float32 if str(dtype) in ("float32", "float") else np.float64
    ret = "float" if npdtype is np.float32 else "double"

    @F.pandas_udf(ret)
    def repro_sum(v: pd.Series) -> float:
        v = v.dropna()  # SQL SUM ignores NULLs, and is NULL if all are
        if v.empty:
            return None
        return BinnedSum(L=L, dtype=npdtype).add_vector(v.to_numpy()).finalize()

    def call(col) -> Column:
        name = col if isinstance(col, str) else col._jc.toString()
        sql = _q(col) if isinstance(col, str) else name
        return repro_sum(F.expr(_finite(sql, name, "repro_sum_udf")))

    return call
