"""TPC-H Query 1 variants for the end-to-end experiment (Table IV).

The paper integrates its types into MonetDB and runs a modified TPC-H
where DECIMAL columns are replaced by DOUBLE; Q1 is the
aggregation-heaviest query. Here the host engine is Spark SQL and the
four variants are:

* ``q1_native``      — built-in double sums (Spark's hash aggregate);
* ``q1_repro``       — reproducible sums via :func:`repro_sum`, in one
                       aggregation of the same shape as ``q1_native``;
* ``q1_sorted``      — reproducible-by-sorting baseline;
* ``q1_scan_other``  — the query minus aggregation (scan + filter +
                       projection), used to split total time into
                       "Aggregations" and "Other" like Table IV.

All variants share the same projected input (:func:`q1_projected`), so
result equivalence is checked against the DuckDB oracle and
reproducibility is asserted at the bit level across repartitionings.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .. import synth_data
from .repro_sum import pandas_sum_groupby, repro_sum
from .sorted_agg import sorted_sum_groupby

__all__ = [
    "Q1_KEYS",
    "Q1_SUMS",
    "q1_input",
    "q1_projected",
    "q1_native",
    "q1_pandas_double",
    "q1_repro",
    "q1_sorted",
    "q1_scan_other",
    "q1_pipeline_other",
]

Q1_KEYS = ["l_returnflag", "l_linestatus"]
#: the four SUM aggregates of Q1 (DECIMALs replaced by DOUBLE).
Q1_SUMS = ["sum_qty", "sum_base_price", "sum_disc_price", "sum_charge"]
_CUTOFF = "1998-09-02"


def q1_input(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    """TPC-H-lite lineitem with the Q1 numeric columns cast to DOUBLE."""
    li = synth_data.lineitem(spark, sf=sf, seed=seed)
    return li.withColumn("l_quantity", F.col("l_quantity").cast("double")) \
             .withColumn("l_extendedprice", F.col("l_extendedprice").cast("double"))


def q1_projected(lineitem: DataFrame) -> DataFrame:
    """Scan + filter + arithmetic projection shared by all variants."""
    return (
        lineitem.where(F.col("l_shipdate") <= F.lit(_CUTOFF))
        .select(
            *Q1_KEYS,
            F.col("l_quantity").alias("sum_qty"),
            F.col("l_extendedprice").alias("sum_base_price"),
            (F.col("l_extendedprice") * (1 - F.col("l_discount"))).alias(
                "sum_disc_price"
            ),
            (
                F.col("l_extendedprice")
                * (1 - F.col("l_discount"))
                * (1 + F.col("l_tax"))
            ).alias("sum_charge"),
        )
    )


def _with_count(agg: DataFrame, proj: DataFrame, suffix: str) -> DataFrame:
    """Attach the (integer, intrinsically reproducible) group counts and
    derive the AVG columns from the reproducible sums — in SQL every
    aggregate reduces to SUM and COUNT (paper Section I)."""
    counts = proj.groupBy(*Q1_KEYS).agg(F.count(F.lit(1)).alias("count_order"))
    return _with_avgs(agg.join(counts, on=Q1_KEYS), suffix)


def _with_avgs(out: DataFrame, suffix: str) -> DataFrame:
    """The AVG columns, as the sums over ``count_order``."""
    for c in ("sum_qty", "sum_base_price"):
        out = out.withColumn(
            c.replace("sum", "avg"), F.col(c + suffix) / F.col("count_order")
        )
    return out


def q1_native(lineitem: DataFrame) -> DataFrame:
    """Built-in double aggregation (non-reproducible baseline)."""
    proj = q1_projected(lineitem)
    return proj.groupBy(*Q1_KEYS).agg(
        *[F.sum(c).alias(c) for c in Q1_SUMS],
        F.avg("sum_qty").alias("avg_qty"),
        F.avg("sum_base_price").alias("avg_price"),
        F.count(F.lit(1)).alias("count_order"),
    )


def q1_pandas_double(lineitem: DataFrame) -> DataFrame:
    """Q1 with plain doubles through a pandas-operator pipeline: the cost
    of the Python/JVM boundary alone (Table IV's pandas-pipeline row)."""
    proj = q1_projected(lineitem)
    agg = pandas_sum_groupby(proj, Q1_KEYS, Q1_SUMS)
    return _with_count(agg, proj, "_rsum")


def q1_repro(lineitem: DataFrame, *, L: int = 4) -> DataFrame:
    """Q1 with reproducible sums (repro<double,L>, Table IV uses L=4).

    One aggregation, as ``q1_native``: the four :func:`repro_sum`
    columns and the count, with the AVG columns derived from them."""
    agg = q1_projected(lineitem).groupBy(*Q1_KEYS).agg(
        *[repro_sum(c, L=L).alias(c + "_rsum") for c in Q1_SUMS],
        F.count(F.lit(1)).alias("count_order"),
    )
    return _with_avgs(agg, "_rsum")


def q1_sorted(lineitem: DataFrame) -> DataFrame:
    """Q1 via the reproducible-by-sorting baseline."""
    proj = q1_projected(lineitem)
    agg = sorted_sum_groupby(proj, Q1_KEYS, Q1_SUMS)
    return _with_count(agg, proj, "_ssum")


def q1_scan_other(lineitem: DataFrame) -> DataFrame:
    """The non-aggregation part of Q1 (scan+filter+projection), with a
    trivial count to force execution — the "Other" cost for the JVM
    rows of Table IV (native and repro)."""
    return q1_projected(lineitem).select(
        F.count(F.lit(1)).alias("n"),
    )


def q1_pipeline_other(lineitem: DataFrame) -> DataFrame:
    """The non-aggregation cost of the *pandas-operator* pipeline:
    scan + filter + projection + Arrow transfer into Python workers,
    with an identity mapInPandas that consumes every batch and emits
    nothing. Subtracting this from a variant's total isolates its
    aggregation-operator cost — the "Other"/"Aggregations" split of
    Table IV for the pandas-pipeline row."""
    import pandas as pd
    from pyspark.sql import types as T

    def consume(batches):
        for pdf in batches:
            if len(pdf) == 0:
                continue
        return
        yield  # pragma: no cover — makes `consume` a generator

    proj = q1_projected(lineitem)
    return proj.mapInPandas(consume, T.StructType([T.StructField("x", T.LongType())]))
