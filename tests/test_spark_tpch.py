"""TPC-H Q1 variants (Table IV's query) on Spark + DuckDB oracle."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.spark import tpch

SF = 0.004


@pytest.fixture(scope="module")
def lineitem(spark):
    df = tpch.q1_input(spark, sf=SF).persist()
    df.count()
    yield df
    df.unpersist()


# DuckDB-side Q1 with sums scaled so the oracle's 6-decimal rounding is
# meaningful for ~1e8-magnitude aggregates (see oracle.py docstring).
_ORACLE_SQL = """
SELECT l_returnflag, l_linestatus,
       sum(l_quantity)/1e3                                           AS qty_k,
       sum(l_extendedprice)/1e6                                      AS price_m,
       sum(l_extendedprice*(1-l_discount))/1e6                       AS disc_m,
       sum(l_extendedprice*(1-l_discount)*(1+l_tax))/1e6             AS charge_m,
       count(*)                                                      AS n
FROM t WHERE CAST(l_shipdate AS DATE) <= DATE '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


def _scaled(agg, suffix):
    return agg.select(
        "l_returnflag", "l_linestatus",
        (F.col("sum_qty" + suffix) / 1e3).alias("qty_k"),
        (F.col("sum_base_price" + suffix) / 1e6).alias("price_m"),
        (F.col("sum_disc_price" + suffix) / 1e6).alias("disc_m"),
        (F.col("sum_charge" + suffix) / 1e6).alias("charge_m"),
        F.col("count_order").alias("n"),
    )


class TestOracle:
    def test_native_matches_duckdb(self, spark, lineitem):
        got = _scaled(tpch.q1_native(lineitem), "")
        assert_equivalent(got, _ORACLE_SQL, t=lineitem)

    @pytest.mark.parametrize("L", [2, 4])
    def test_repro_matches_duckdb(self, spark, lineitem, L):
        got = _scaled(tpch.q1_repro(lineitem, L=L), "_rsum")
        assert_equivalent(got, _ORACLE_SQL, t=lineitem)

    def test_sorted_matches_duckdb(self, spark, lineitem):
        got = _scaled(tpch.q1_sorted(lineitem), "_ssum")
        assert_equivalent(got, _ORACLE_SQL, t=lineitem)

    def test_pandas_double_matches_duckdb(self, spark, lineitem):
        got = _scaled(tpch.q1_pandas_double(lineitem), "_rsum")
        assert_equivalent(got, _ORACLE_SQL, t=lineitem)


class TestReproducibility:
    def test_repro_q1_bit_stable_across_partitionings(self, spark, lineitem):
        a = (
            tpch.q1_repro(lineitem, L=4).toPandas()
            .sort_values(tpch.Q1_KEYS).reset_index(drop=True)
        )
        b = (
            tpch.q1_repro(lineitem.repartition(13), L=4).toPandas()
            .sort_values(tpch.Q1_KEYS).reset_index(drop=True)
        )
        for c in tpch.Q1_SUMS:
            av = a[c + "_rsum"].to_numpy()
            bv = b[c + "_rsum"].to_numpy()
            assert np.array_equal(av.view(np.int64), bv.view(np.int64)), c

    def test_sorted_q1_stable_across_partitionings(self, spark, lineitem):
        a = (
            tpch.q1_sorted(lineitem).toPandas()
            .sort_values(tpch.Q1_KEYS).reset_index(drop=True)
        )
        b = (
            tpch.q1_sorted(lineitem.repartition(7)).toPandas()
            .sort_values(tpch.Q1_KEYS).reset_index(drop=True)
        )
        for c in tpch.Q1_SUMS:
            assert np.array_equal(
                a[c + "_ssum"].to_numpy().view(np.int64),
                b[c + "_ssum"].to_numpy().view(np.int64),
            ), c


class TestShape:
    def test_six_groups(self, spark, lineitem):
        out = tpch.q1_native(lineitem)
        assert out.count() == 6  # 3 returnflags x 2 linestatus

    def test_avg_columns_derived_from_sums(self, spark, lineitem):
        got = (
            tpch.q1_repro(lineitem, L=4).toPandas()
            .sort_values(tpch.Q1_KEYS).reset_index(drop=True)
        )
        np.testing.assert_allclose(
            got["avg_qty"], got["sum_qty_rsum"] / got["count_order"], rtol=1e-12
        )

    def test_scan_other_counts_filtered_rows(self, spark, lineitem):
        n = tpch.q1_scan_other(lineitem).collect()[0][0]
        m = lineitem.where(F.col("l_shipdate") <= "1998-09-02").count()
        assert n == m
