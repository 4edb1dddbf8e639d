"""Reproducible GROUPBY SUM for Spark DataFrames.

This is the paper's ``repro<ScalarT,L>`` (Section IV) inside Spark's
own aggregation operator. :func:`repro_sum` is an aggregate Column
backed by ``ReproSum.java`` (compiled on first use, see
:mod:`repro.spark._jar`): ``update`` deposits one value at its natural
window, ``merge`` aligns two states and adds them, and ``evaluate``
renormalises and rounds once. The binned format makes that possible: a
value's contribution to the bin at exponent ``e`` is a pure function of
the value and ``e`` (DESIGN.md §2), so every value can be deposited on
its own and partial states merged in any order.

:func:`rsum_groupby` is ``groupBy(keys).agg(repro_sum(v) ...)``, which
Spark runs as partial ``HashAggregate`` → shuffle of the keys and
``1 + 2L`` longs per group and column → final ``HashAggregate``. The
longs are ``(e, dev[L], C[L])``, the state of ``GroupedBinnedAcc`` (a row
of its ``export_states()``). No row leaves the JVM. Because every per-level sum is exact, the result is
bit-identical for any order or partitioning.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T
from pyspark.sql.classic.column import Column, _to_seq

from ..core.params import fmt_for
from . import _jar

__all__ = ["rsum_groupby", "repro_sum"]


def _as_list(x) -> list[str]:
    return [x] if isinstance(x, str) else list(x)


def _q(name: str) -> str:
    """``name`` as a quoted SQL identifier."""
    return "`" + name.replace("`", "``") + "`"


def repro_sum(col, *, L: int = 2, dtype="float64") -> Column:
    """Reproducible SUM of one column, as an aggregate Column.

    Usage: ``df.groupBy("k").agg(repro_sum("v", L=2).alias("s"))``.
    ``dtype`` is any NumPy spelling of float64 or float32, or Spark's
    ``"float"`` (float32); any other raises ``TypeError``. The column is
    cast to double (then rounded to float for float32) and summed by
    ``ReproSum.java`` in Spark's own ``HashAggregate``, with partial
    aggregation before the shuffle. As
    SQL SUM, NULLs are ignored and an all-NULL group sums to NULL. NaN,
    ±Inf and a group whose sum leaves the supported range raise, naming
    the column. The result has the format's type (``double`` or
    ``float``).
    """
    # NumPy reads "float" as float64; Spark's "float" is float32
    fmt = fmt_for(np.float32 if isinstance(dtype, str) and dtype == "float" else dtype)
    fmt.check_L(L)
    name = col if isinstance(col, str) else col._jc.toString()
    arg = F.col(_q(col)) if isinstance(col, str) else col
    spark = SparkSession.active()
    agg = _jar.udaf(spark, name, fmt, L)
    return Column(agg.apply(_to_seq(spark.sparkContext, [arg.cast("double")._jc])))


def rsum_groupby(df: DataFrame, keys, values, *, L: int = 2,
                 dtype="float64") -> DataFrame:
    """Reproducible per-group sums of ``values`` grouped by ``keys``.

    Returns a DataFrame with the key columns plus one ``<v>_rsum``
    column per value column: ``df.groupBy(keys)`` aggregated by one
    :func:`repro_sum` per value column. The result is a pure function of
    the input *multiset*: repartitioning, reordering, or changing
    ``spark.sql.shuffle.partitions`` does not change a single bit
    (asserted in tests). ``L`` controls accuracy as in the paper
    (L=2 ≈ IEEE accuracy, L=3 far beyond it). As SQL SUM, NULLs are
    ignored and a group whose values are all NULL sums to NULL.
    NaN, ±Inf and a group whose sum leaves the supported range raise,
    naming the column.
    """
    return df.groupBy(*_as_list(keys)).agg(*[
        repro_sum(vc, L=L, dtype=dtype).alias(vc + "_rsum") for vc in _as_list(values)])


def pandas_sum_groupby(df: DataFrame, keys, values) -> DataFrame:
    """Plain (non-reproducible) double SUM through a pandas operator.

    The mapInPandas partial (pandas' float64 ``groupby().sum()`` per
    Arrow batch, then over the batches) → shuffle → final-merge
    pipeline: the cost of the Python/JVM boundary
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
        # one partial sum per group and batch, then one per group; NULL
        # values add 0 and NULL keys form one group
        sums = [pdf.groupby(keycols, sort=False, dropna=False)[valcols].sum()
                for pdf in batches if len(pdf)]
        if sums:
            out = pd.concat(sums).groupby(level=keycols, sort=False, dropna=False).sum()
            yield out.rename(columns=lambda v: f"{v}_rsum").reset_index()

    partials = df.select(*keycols, *valcols).mapInPandas(partial, schema)
    return partials.groupBy(*keycols).agg(
        *[F.sum(f"{v}_rsum").alias(f"{v}_rsum") for v in valcols]
    )
