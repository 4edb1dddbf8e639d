"""Spark sorted-aggregation baseline (the Table IV 'double (sorted)' column)."""
import numpy as np

from repro.oracle import assert_equivalent
from repro.spark import sorted_sum_groupby
from repro.synth_data import groupby_pairs


def test_matches_duckdb(spark):
    df = groupby_pairs(spark, n=20_000, n_groups=30, dist="uniform12", seed=1)
    got = sorted_sum_groupby(df, "k", "v").withColumnRenamed("v_ssum", "s")
    assert_equivalent(got, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=df)


def test_bit_stable_across_partitionings(spark):
    df = groupby_pairs(spark, n=20_000, n_groups=30, dist="mixed", seed=2)
    a = sorted_sum_groupby(df, "k", "v").toPandas().sort_values("k")
    b = sorted_sum_groupby(df.repartition(9), "k", "v").toPandas().sort_values("k")
    assert np.array_equal(
        a["v_ssum"].to_numpy().view(np.int64), b["v_ssum"].to_numpy().view(np.int64)
    )


def test_multicolumn(spark):
    from pyspark.sql import functions as F

    df = groupby_pairs(spark, n=5_000, n_groups=6, seed=3)
    df = df.withColumn("w", F.col("v") * 2)
    out = sorted_sum_groupby(df, "k", ["v", "w"]).toPandas().sort_values("k")
    np.testing.assert_allclose(out["w_ssum"], out["v_ssum"] * 2, rtol=1e-12)


def test_nulls_like_native_sum(spark):
    """NULL adds nothing and an all-NULL group sums to NULL, as native
    ``sum``: the fold does not carry a NULL (NaN in pandas) into the sum."""
    from pyspark.sql import functions as F

    df = spark.createDataFrame([(1, 1.0), (1, None), (2, None), (3, 2.0)],
                               "k long, v double")
    got = sorted_sum_groupby(df, "k", "v").orderBy("k").collect()
    want = df.groupBy("k").agg(F.sum("v").alias("v_ssum")).orderBy("k").collect()
    assert got == want == [(1, 1.0), (2, None), (3, 2.0)]
