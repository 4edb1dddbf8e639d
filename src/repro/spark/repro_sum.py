"""Reproducible GROUPBY SUM for Spark DataFrames.

This is the paper's algorithm (Sections IV/V) installed as a custom
physical aggregation operator in Spark, per the repro plan: an
*associative* reproducible numeric type (the binned state of
``repro.core.binned``) with *vectorized batch summation* over Arrow
record batches.

Pipeline shape: mapInPandas partial → shuffle → SQL align/sum/renorm/
finalize (mirrors Spark's own partial-aggregate → shuffle → final merge):

1. ``mapInPandas`` — within each input partition, every Arrow batch is
   grouped and deposited through the vectorized kernel into per-group
   binned states (with summation buffers by default: the buffered
   accumulator of Section V; ``buffered=False`` gives the per-element
   drop-in path of Section IV). One state row per (group, partition) is
   emitted, as flat ``LongType`` columns ``<v>__e``, ``<v>__d0..`` and
   ``<v>__c0..``; ``<v>__e`` is NULL where the group's values in the
   partition are all NULL.
2. Spark SQL expressions, run entirely in the JVM (:func:`_merge_states`):
   after the shuffle every state row is aligned to its group's largest
   window, the per-level deviations and carries are summed as exact
   longs, renormalised, and finalised lowest level first. Because the
   state is associative and its per-level sums are exact, the result is
   bit-identical for any order/partitioning.

A single-phase grouped-aggregate pandas UDAF (:func:`repro_sum_udf`) is
also provided for direct use in ``df.groupBy(...).agg(...)``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..core.binned import BinnedSum, GroupedBinnedAcc
from ..core.params import EMPTY_E, FloatFormat, fmt_for

__all__ = ["rsum_groupby", "repro_sum_udf"]


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


def _state_fields(vc: str, L: int) -> list[T.StructField]:
    """Flat state columns of value column ``vc``: window, deviations, carries."""
    return (
        [T.StructField(f"{vc}__e", T.LongType())]
        + [T.StructField(f"{vc}__d{lev}", T.LongType()) for lev in range(L)]
        + [T.StructField(f"{vc}__c{lev}", T.LongType()) for lev in range(L)]
    )


def rsum_groupby(
    df: DataFrame,
    keys,
    values,
    *,
    L: int = 2,
    dtype="float64",
    buffered: bool = True,
) -> DataFrame:
    """Reproducible per-group sums of ``values`` grouped by ``keys``.

    Returns a DataFrame with the key columns plus one ``<v>_rsum``
    column per value column. The result is a pure function of the input
    *multiset*: repartitioning, reordering, or changing
    ``spark.sql.shuffle.partitions`` does not change a single bit
    (asserted in tests). ``L`` controls accuracy as in the paper
    (L=2 ≈ IEEE accuracy, L=3 far beyond it). As SQL SUM, NULLs are
    ignored and a group whose values are all NULL sums to NULL.
    """
    keycols, valcols = _as_list(keys), _as_list(values)
    fmt = fmt_for(np.float32 if str(dtype) in ("float32", "float") else np.float64)
    npdtype = fmt.dtype.type
    ncols = len(valcols)

    state_fields = [df.schema[k] for k in keycols]
    for vc in valcols:
        state_fields += _state_fields(vc, L)
    state_schema = T.StructType(state_fields)

    def partial(batches):
        """Per-partition partial aggregation with vectorized deposits."""
        # slot i holds the group whose key tuple is rows[i]
        acc = GroupedBinnedAcc(L=L, dtype=npdtype, ncols=ncols, dense_n_groups=0)
        index: dict[tuple, int] = {}
        rows: list[tuple] = []
        seen = np.zeros((0, ncols), bool)  # a non-NULL value per slot and column
        for pdf in batches:
            if len(pdf) == 0:
                continue
            slots = _key_codes(pdf, keycols, index, rows)
            acc.grow(len(rows) - acc.n_slots)
            seen = np.pad(seen, ((0, len(rows) - len(seen)), (0, 0)))
            vals = pdf[valcols].to_numpy(np.float64, na_value=np.nan)
            # SQL SUM ignores NULLs; for summation NULL->0 is equivalent.
            # A NaN here is a NULL: the JVM rejected real NaNs upstream.
            nan = np.isnan(vals)
            for j in range(ncols):
                seen[slots[~nan[:, j]], j] = True
            if nan.any():
                vals = np.where(nan, 0.0, vals)
            try:
                acc.update_slots(slots, vals, fast=buffered)
            except ValueError:
                bad = ~np.isfinite(vals)
                if not bad.any():
                    raise
                j = int(np.flatnonzero(bad.any(axis=0))[0])
                raise ValueError(
                    f"rsum_groupby: value column {valcols[j]!r} holds "
                    f"{vals[bad[:, j], j][0]}; reproducible SUM is defined "
                    f"for finite inputs only"
                ) from None
        if not rows:
            return
        out = {kc: pd.Series([r[i] for r in rows]) for i, kc in enumerate(keycols)}
        for j, vc in enumerate(valcols):
            _, e, dev, C = acc.export_states(j)
            # a NULL window marks a group with no non-NULL value here
            out[f"{vc}__e"] = pd.Series(e, dtype="Int64").where(seen[:, j])
            for lev in range(L):
                out[f"{vc}__d{lev}"] = dev[:, lev]
            for lev in range(L):
                out[f"{vc}__c{lev}"] = C[:, lev]
        yield pd.DataFrame(out)

    # pandas reads NULL and NaN alike, so NaN is rejected here, in the JVM
    guarded = [
        F.when(F.isnan(vc), F.raise_error(
            F.lit(f"rsum_groupby: value column {vc!r} holds NaN; "
                  f"reproducible SUM is defined for finite inputs only")
        )).otherwise(F.col(vc)).alias(vc)
        for vc in valcols
    ]
    partials = df.select(*keycols, *guarded).mapInPandas(partial, state_schema)
    return _merge_states(partials, keycols, valcols, L=L, fmt=fmt)


def _q(name: str) -> str:
    """``name`` as a quoted SQL identifier."""
    return "`" + name.replace("`", "``") + "`"


def _merge_states(states: DataFrame, keycols: list[str], valcols: list[str], *,
                  L: int, fmt: FloatFormat) -> DataFrame:
    """Merge and finalize partial states per group in Spark SQL alone.

    ``states`` holds the key columns and, per value column, the flat
    state of :func:`_state_fields`: any number of canonical rows
    (``0 <= dev < 2**(m-2)``) per group, in any order; a row whose window
    is NULL had only NULL values. This is
    ``GroupedBinnedAcc.merge_state_rows`` followed by ``finalize``, as
    JVM expressions:

    * align — every live row is shifted ``s = (e_max - e) / W`` levels to
      its group's largest window ``e_max``; rows with ``s >= L`` and
      ``EMPTY_E`` rows contribute nothing;
    * sum — per level, carries as plain longs and deviations as two
      halves of ``(m-2)//2`` and fewer bits, so no sum can overflow
      (each half sum has 2**38 rows of headroom for double) whether
      or not ANSI overflow checks are on;
    * renorm — the halves recombine into ``dev in [0, 2**(m-2))`` and a
      carry added to ``C``, in exact integer steps;
    * finalize — ``Q = Q + (C*2**(e_l-2) + dev*2**(e_l-m))`` from the
      lowest level up, in the format's own arithmetic, as
      ``finalize_state`` does. ``pow(2.0, int)`` is exact for
      representable powers of two, so each product is rounded once.

    Returns the key columns plus ``<v>_rsum`` per value column; a group
    whose rows are all ``EMPTY_E`` or NULL sums to 0, and one whose rows
    are all NULL sums to NULL.
    """
    W, m = fmt.W, fmt.m
    lo_bits = (m - 2) // 2            # dev = hi * 2**lo_bits + lo
    hi_bits = (m - 2) - lo_bits
    dev_mask = (1 << (m - 2)) - 1
    ftype = "FLOAT" if fmt.dtype == np.float32 else "DOUBLE"
    keys = [_q(k) for k in keycols]

    def c(vc: str, part: str, lev="") -> str:
        return _q(f"{vc}__{part}{lev}")

    # EMPTY_E (the smallest long) loses every max(); EMPTY_E and NULL
    # rows get a NULL shift, so they contribute nothing
    live = states.withColumns({
        f"{vc}__s": F.expr(f"(max({c(vc, 'e')}) OVER (PARTITION BY {', '.join(keys)})"
                           f" - nullif({c(vc, 'e')}, {EMPTY_E}L)) DIV {W}")
        for vc in valcols
    })

    def aligned(vc: str, part: str, lev: int) -> str:
        """A row's share of level ``lev`` once shifted down ``s`` levels:
        its own level ``lev - s`` (as hi/lo deviation half or carry)."""
        x = {"h": lambda t: f"shiftright({c(vc, 'd', t)}, {lo_bits})",
             "l": lambda t: f"{c(vc, 'd', t)} & {(1 << lo_bits) - 1}",
             "c": lambda t: c(vc, "c", t)}[part]
        whens = " ".join(f"WHEN {s} THEN {x(lev - s)}" for s in range(lev + 1))
        return f"CASE {c(vc, 's')} {whens} ELSE 0 END AS {c(vc, part, lev)}"

    cols, aggs = list(keys), []
    for vc in valcols:
        cols.append(c(vc, "e"))
        aggs.append(F.expr(f"max({c(vc, 'e')}) AS {c(vc, 'e')}"))
        for lev in range(L):
            for part in "hlc":
                cols.append(aligned(vc, part, lev))
                aggs.append(F.expr(f"sum({c(vc, part, lev)}) AS {c(vc, part, lev)}"))
    merged = live.selectExpr(*cols).groupBy(*keycols).agg(*aggs)

    def scaled(n: str, k: str) -> str:
        """``n * 2**k`` rounded once to the output format."""
        if ftype == "FLOAT":
            return f"CAST({n} AS FLOAT) * CAST(pow(2.0D, {k}) AS FLOAT)"
        return f"CAST({n} AS DOUBLE) * pow(2.0D, {k})"

    results = []
    for vc in valcols:
        Q = f"CAST(0.0D AS {ftype})"
        for lev in reversed(range(L)):
            H, Lo = c(vc, "h", lev), c(vc, "l", lev)
            # D = H * 2**lo_bits + Lo, split into carry * 2**(m-2) + dev
            low = (f"(shiftleft({H} & {(1 << hi_bits) - 1}, {lo_bits})"
                   f" + ({Lo} & {dev_mask}))")
            carry = (f"shiftright({H}, {hi_bits}) + shiftright({Lo}, {m - 2})"
                     f" + shiftright({low}, {m - 2})")
            C = f"{c(vc, 'c', lev)} + {carry}"
            dev = f"{low} & {dev_mask}"
            e_l = f"{c(vc, 'e')} - {lev * W}"
            Q = f"({Q} + ({scaled(C, e_l + ' - 2')} + {scaled(dev, e_l + f' - {m}')}))"
        # max(e) is EMPTY_E for a group of zeros, NULL for one of NULLs
        results.append(f"CASE {c(vc, 'e')} WHEN {EMPTY_E}L THEN CAST(0.0D AS {ftype})"
                       f" ELSE {Q} END AS {_q(vc + '_rsum')}")
    return merged.selectExpr(*keys, *results)


def pandas_sum_groupby(df: DataFrame, keys, values) -> DataFrame:
    """Plain (non-reproducible) double SUM through the *same* pipeline.

    The Table IV baseline: the paper swaps the aggregation operator
    inside MonetDB, keeping scan/decompression identical. The analogous
    in-place swap here keeps the mapInPandas partial → shuffle →
    final-merge pipeline and only replaces the reproducible state with
    ordinary float64 accumulation — so comparing against it isolates the
    cost of reproducibility, not the Python/JVM boundary. Columns are
    named ``<v>_rsum`` to be drop-in comparable.
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
    independent of the gather order. Suited to moderate group sizes —
    for very large groups prefer :func:`rsum_groupby`, which aggregates
    partials per partition.
    """
    npdtype = np.float32 if str(dtype) in ("float32", "float") else np.float64
    ret = "float" if npdtype is np.float32 else "double"

    @F.pandas_udf(ret)
    def repro_sum(v: pd.Series) -> float:
        v = v.dropna()  # SQL SUM ignores NULLs, and is NULL if all are
        if v.empty:
            return None
        return BinnedSum(L=L, dtype=npdtype).add_vector(v.to_numpy()).finalize()

    return repro_sum
