"""The Spark reproducible GROUPBY: bit-stability, oracle equivalence, and
``repro_sum`` as an aggregate Column."""
import contextlib

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import GroupedBinnedAcc
from repro.oracle import assert_equivalent
from repro.spark import pandas_sum_groupby, repro_sum, rsum_groupby
from repro.synth_data import groupby_pairs, np_groupby_input


@contextlib.contextmanager
def _arrow_batch_rows(spark, n: int):
    """Arrow batches of at most ``n`` rows inside the block."""
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    old = spark.conf.get(key)
    spark.conf.set(key, str(n))
    try:
        yield
    finally:
        spark.conf.set(key, old)


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64) if a.dtype == np.float64 else a.view(np.int32)


def _local_ref(n, n_groups, dist, seed, L, dtype=np.float64):
    """Per-group sums through the unbuffered per-element NumPy path."""
    keys, vals = np_groupby_input(n, n_groups, dist=dist, seed=seed)
    acc = GroupedBinnedAcc(L=L, dtype=dtype, dense_n_groups=n_groups)
    return acc.update(keys, vals, fast=False).finalize()[:, 0]


class TestBitExactness:
    @pytest.mark.parametrize("L", [1, 2, 4])
    def test_matches_local_binned_sum(self, spark, L):
        df = groupby_pairs(spark, n=50_000, n_groups=64, dist="mixed", seed=L)
        got = (
            rsum_groupby(df, "k", "v", L=L)
            .toPandas().sort_values("k").reset_index(drop=True)
        )
        ref = _local_ref(50_000, 64, "mixed", L, L)
        assert np.array_equal(_bits(got["v_rsum"].to_numpy()), _bits(ref))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_dtype_matches_unbuffered_reference(self, spark, dtype):
        df = groupby_pairs(spark, n=30_000, n_groups=10, dist="mixed", seed=2)
        ref = _local_ref(30_000, 10, "mixed", 2, 2, dtype=np.dtype(dtype))
        got = (
            rsum_groupby(df, "k", "v", L=2, dtype=dtype)
            .toPandas().sort_values("k")
        )
        assert np.array_equal(_bits(got["v_rsum"].to_numpy().astype(dtype)),
                              _bits(ref))

    @pytest.mark.parametrize("parts", [1, 3, 16])
    def test_repartition_bit_stable(self, spark, parts):
        df = groupby_pairs(spark, n=40_000, n_groups=32, dist="mixed", seed=3)
        ref = _local_ref(40_000, 32, "mixed", 3, 2)
        got = (
            rsum_groupby(df.repartition(parts), "k", "v", L=2)
            .toPandas().sort_values("k")
        )
        assert np.array_equal(_bits(got["v_rsum"].to_numpy()), _bits(ref))

    def test_reordered_input_bit_stable(self, spark):
        df = groupby_pairs(spark, n=40_000, n_groups=32, dist="mixed", seed=3)
        ref = _local_ref(40_000, 32, "mixed", 3, 2)
        shuffled = df.orderBy(F.col("v").desc()).repartition(5)
        got = rsum_groupby(shuffled, "k", "v", L=2).toPandas().sort_values("k")
        assert np.array_equal(_bits(got["v_rsum"].to_numpy()), _bits(ref))

    def test_shuffle_partitions_setting_bit_stable(self, spark):
        df = groupby_pairs(spark, n=20_000, n_groups=16, dist="mixed", seed=4)
        ref = _local_ref(20_000, 16, "mixed", 4, 2)
        old = spark.conf.get("spark.sql.shuffle.partitions")
        try:
            for n in ("7", "64"):
                spark.conf.set("spark.sql.shuffle.partitions", n)
                got = rsum_groupby(df, "k", "v", L=2).toPandas().sort_values("k")
                assert np.array_equal(_bits(got["v_rsum"].to_numpy()), _bits(ref))
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", old)


class TestOracleEquivalence:
    def test_against_duckdb_sum(self, spark):
        df = groupby_pairs(spark, n=30_000, n_groups=50, dist="uniform12", seed=5)
        got = rsum_groupby(df, "k", "v", L=2).withColumnRenamed("v_rsum", "s")
        assert_equivalent(got, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=df)

    def test_multicolumn_against_duckdb(self, spark):
        keys, v1 = np_groupby_input(20_000, 20, dist="uniform12", seed=6)
        _, v2 = np_groupby_input(20_000, 20, dist="exp1", seed=7)
        pdf = pd.DataFrame({"k": keys, "a": v1, "b": v2})
        df = spark.createDataFrame(pdf)
        got = (
            rsum_groupby(df, "k", ["a", "b"], L=2)
            .withColumnRenamed("a_rsum", "sa").withColumnRenamed("b_rsum", "sb")
        )
        assert_equivalent(
            got, "SELECT k, sum(a) AS sa, sum(b) AS sb FROM t GROUP BY k", t=pdf
        )

    def test_udaf_against_duckdb(self, spark):
        df = groupby_pairs(spark, n=20_000, n_groups=25, dist="uniform12", seed=8)
        got = df.groupBy("k").agg(repro_sum(F.col("v"), L=2).alias("s"))
        assert_equivalent(got, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=df)


class TestUdaf:
    def test_udaf_matches_two_phase_bits(self, spark):
        df = groupby_pairs(spark, n=25_000, n_groups=40, dist="mixed", seed=9)
        a = (
            df.groupBy("k").agg(repro_sum(F.col("v"), L=3).alias("s"))
            .toPandas().sort_values("k")
        )
        b = rsum_groupby(df, "k", "v", L=3).toPandas().sort_values("k")
        assert np.array_equal(_bits(a["s"].to_numpy()), _bits(b["v_rsum"].to_numpy()))

    def test_udaf_repartition_stable(self, spark):
        df = groupby_pairs(spark, n=20_000, n_groups=8, dist="mixed", seed=10)
        a = (df.groupBy("k").agg(repro_sum(F.col("v"), L=2).alias("s"))
             .toPandas().sort_values("k"))
        b = (
            df.repartition(11).groupBy("k").agg(repro_sum(F.col("v"), L=2).alias("s"))
            .toPandas().sort_values("k")
        )
        assert np.array_equal(_bits(a["s"].to_numpy()), _bits(b["s"].to_numpy()))


class TestSemantics:
    def test_multiple_key_columns(self, spark):
        pdf = pd.DataFrame({
            "k1": ["a", "a", "b", "b", "a"],
            "k2": [1, 2, 1, 1, 1],
            "v": [1.0, 2.0, 3.0, 4.0, 0.5],
        })
        df = spark.createDataFrame(pdf)
        got = rsum_groupby(df, ["k1", "k2"], "v", L=2).toPandas()
        got = got.sort_values(["k1", "k2"]).reset_index(drop=True)
        assert got["v_rsum"].tolist() == [1.5, 2.0, 7.0]

    def test_float32_output_type(self, spark):
        df = groupby_pairs(spark, n=1000, n_groups=4, seed=11)
        out = rsum_groupby(df, "k", "v", L=2, dtype="float32")
        assert dict(out.dtypes)["v_rsum"] == "float"
        assert out.count() == 4

    @pytest.mark.parametrize("parts", [1, 3])
    def test_pandas_sum_nulls(self, spark, parts):
        """The pandas pipeline's double SUM over several Arrow batches per
        partition: NULL values add 0, NULL keys form one group, and a group
        gets one row."""
        rows = [("a", 1, 1.0, None), ("a", 1, 2.0, 1.0), (None, 1, None, 4.0),
                (None, 1, 8.0, None), ("b", None, 16.0, 2.0), ("a", 2, 32.0, 8.0)] * 3
        df = spark.createDataFrame(spark.sparkContext.parallelize(rows, parts),
                                   "k1 string, k2 long, x double, y double")
        with _arrow_batch_rows(spark, 4):
            got = pandas_sum_groupby(df, ["k1", "k2"], ["x", "y"]).collect()
        assert sorted((r.k1 or "", r.k2 or 0, r.x_rsum, r.y_rsum) for r in got) == [
            ("", 1, 24.0, 12.0), ("a", 1, 9.0, 3.0), ("a", 2, 96.0, 24.0),
            ("b", 0, 48.0, 6.0)]

    def test_dtype_spellings(self, spark):
        """Every NumPy spelling of float32, and Spark's "float", sums in
        float32 as "float32" does; a dtype of no float format raises."""
        df = spark.createDataFrame(pd.DataFrame({"k": [0, 0, 1], "v": [0.1, 0.2, 3.0]}))
        want = rsum_groupby(df, "k", "v", dtype="float32").orderBy("k").collect()
        for dtype in (np.float32, "f4", np.dtype("float32"), "float"):
            out = rsum_groupby(df, "k", "v", dtype=dtype)
            assert isinstance(out.schema["v_rsum"].dataType, T.FloatType), dtype
            assert out.orderBy("k").collect() == want, dtype
        with pytest.raises(TypeError, match="unsupported dtype int64"):
            rsum_groupby(df, "k", "v", dtype="int64")

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_nulls_ignored_like_sql_sum(self, spark, dtype):
        """NULLs are skipped; a column whose values in a group are all
        NULL sums to NULL, and one whose values are all zero to 0.0."""
        df = spark.createDataFrame(
            [(0, 1.0, None), (0, None, None), (1, None, 2.0), (1, None, None),
             (2, 0.0, None), (2, -0.0, 0.0)],
            "k long, a double, b double",
        )
        for parts in (1, 4):
            got = rsum_groupby(df.repartition(parts), "k", ["a", "b"], L=2,
                               dtype=dtype).collect()
            assert sorted(got) == [(0, 1.0, None), (1, None, 2.0), (2, 0.0, 0.0)]

    def test_udaf_nulls_like_sql_sum(self, spark):
        df = spark.createDataFrame(
            [(0, 1.0), (0, None), (1, None), (1, None), (2, 0.0), (2, None)],
            "k long, v double",
        )
        got = df.groupBy("k").agg(repro_sum(F.col("v"), L=2).alias("s"))
        assert sorted(got.collect()) == [(0, 1.0), (1, None), (2, 0.0)]

    def test_nan_raises_naming_column(self, spark):
        """NaN is a value, not a NULL: SQL SUM would return NaN, which
        has no reproducible sum, so the JVM rejects it, naming the column."""
        df = spark.createDataFrame(
            [(1, 1.0, 1.0), (1, 2.0, float("nan")), (1, 3.0, None)],
            "k long, a double, b double",
        )
        with pytest.raises(Exception, match=r"column 'b' holds NaN"):
            rsum_groupby(df, "k", ["a", "b"], L=2).collect()
        assert rsum_groupby(df.where("k = 0"), "k", ["a", "b"], L=2).count() == 0

    def test_udaf_nan_raises_naming_column(self, spark):
        """``repro_sum`` alone rejects NaN too, naming the column."""
        df = spark.createDataFrame([(0, 1.0), (0, float("nan"))], "k long, v double")
        with pytest.raises(Exception, match=r"column 'v' holds NaN"):
            df.groupBy("k").agg(repro_sum(F.col("v"), L=2)).collect()

    @pytest.mark.parametrize("parts", [1, 2])
    def test_guard_rail_checks_the_group_window(self, spark, parts):
        """A value below the lower guard rail is legal when its group's
        merged window is in range, whether or not it shares a partition
        with the larger value."""
        rows = [(0, 1e-305), (0, 1.0)]
        df = spark.createDataFrame(spark.sparkContext.parallelize(rows, parts),
                                   "k long, v double")
        assert rsum_groupby(df, "k", "v", L=2).collect() == [(0, 1.0)]

    @pytest.mark.parametrize("dtype, tiny", [("float64", 1e-305), ("float32", 1e-40)])
    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_group_of_tiny_values_raises_naming_column(self, spark, dtype, tiny, parts):
        rows = [(0, 1.0, tiny), (0, 2.0, -tiny / 3), (1, 1.0, 1.0)]
        df = spark.createDataFrame(spark.sparkContext.parallelize(rows, parts),
                                   "k long, a double, b double")
        with pytest.raises(Exception, match=r"column 'b' .* outside the supported range"):
            rsum_groupby(df, "k", ["a", "b"], L=2, dtype=dtype).collect()

    def test_empty_input(self, spark):
        df = groupby_pairs(spark, n=10, n_groups=2, seed=12).where(F.lit(False))
        assert rsum_groupby(df, "k", "v", L=2).count() == 0

    def test_infinity_raises(self, spark):
        pdf = pd.DataFrame({"k": [0], "v": [np.inf]})
        df = spark.createDataFrame(pdf)
        with pytest.raises(Exception, match="finite"):
            rsum_groupby(df, "k", "v", L=2).collect()

    def test_infinity_error_names_column(self, spark):
        pdf = pd.DataFrame({"k": [0, 1], "a": [1.0, 2.0], "b": [3.0, -np.inf]})
        df = spark.createDataFrame(pdf)
        with pytest.raises(Exception, match=r"column 'b' holds -inf; .* finite"):
            rsum_groupby(df, "k", ["a", "b"], L=2).collect()


class TestNonReproDemo:
    """The paper's Algorithm 1: same rows, different physical order,
    different native result — while rsum is bit-identical."""

    def test_native_sum_order_dependent(self, spark):
        rows = [(0, 1.0), (0, 1e16), (0, -1e16)]
        asc = spark.createDataFrame(rows, "k long, v double").coalesce(1)
        desc = (
            spark.createDataFrame(rows[::-1], "k long, v double").coalesce(1)
        )
        a = asc.groupBy("k").agg(F.sum("v")).collect()[0][1]
        b = desc.groupBy("k").agg(F.sum("v")).collect()[0][1]
        assert a != b  # 0.0 vs 1.0 — data independence violated

    def test_rsum_order_independent(self, spark):
        rows = [(0, 1.0), (0, 1e16), (0, -1e16)]
        asc = spark.createDataFrame(rows, "k long, v double").coalesce(1)
        desc = spark.createDataFrame(rows[::-1], "k long, v double").coalesce(1)
        a = rsum_groupby(asc, "k", "v", L=2).collect()[0][1]
        b = rsum_groupby(desc, "k", "v", L=2).collect()[0][1]
        assert a == b == 1.0
