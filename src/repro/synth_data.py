"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1's lineitem (6M rows). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def np_groupby_input(
    n: int,
    n_groups: int,
    *,
    dist: str = "uniform12",
    dtype=np.float64,
    seed: int = 7,
):
    """<key, value> arrays for the paper's aggregation micro-benchmarks.

    Keys are uniform over ``[0, n_groups)`` (the paper's Section VI-A
    setup — "keys are drawn uniformly at random from [0, n_groups)").
    Value distributions:

    * ``uniform12`` — U[1,2), the Table II accuracy workload;
    * ``exp1`` — Exp(1), the other Table II workload;
    * ``mixed`` — U[1,2) scaled by 10**U{-8..8}: wide dynamic range,
      the kind of data for which fixed-point DECIMALs fail;
    * ``prices`` — two-decimal price-like values in [9, 999.99], the
      fixed-point-friendly case.

    Returns ``(keys int64, values dtype)``; deterministic in ``seed``.
    """
    g = _rng(seed)
    keys = g.integers(0, n_groups, n).astype(np.int64)
    if dist == "uniform12":
        v = g.random(n) + 1.0
    elif dist == "exp1":
        v = g.exponential(1.0, n)
    elif dist == "mixed":
        v = (g.random(n) + 1.0) * 10.0 ** g.integers(-8, 9, n)
    elif dist == "prices":
        v = np.round(g.random(n) * 990.99 + 9.0, 2)
    else:
        raise ValueError(f"unknown dist {dist!r}")
    return keys, v.astype(dtype)


def groupby_pairs(
    spark: SparkSession,
    *,
    n: int,
    n_groups: int,
    dist: str = "uniform12",
    seed: int = 7,
) -> DataFrame:
    """Spark DataFrame (k long, v double) over :func:`np_groupby_input`."""
    keys, vals = np_groupby_input(n, n_groups, dist=dist, seed=seed)
    return spark.createDataFrame(pd.DataFrame({"k": keys, "v": vals}))
