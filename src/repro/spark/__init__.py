"""PySpark layer: reproducible GROUPBY as a custom physical operator.

* :mod:`repro.spark.repro_sum` — the headline deliverable: the binned
  reproducible sum as one Spark SQL plan (deposit projection → Spark's
  partial aggregate → shuffle → SQL align/renorm/finalize), and as a
  grouped-agg pandas UDAF.
* :mod:`repro.spark.sorted_agg` — reproducible-by-sorting baseline.
* :mod:`repro.spark.tpch` — TPC-H Q1 variants for Table IV.
"""
from .repro_sum import pandas_sum_groupby, repro_sum_udf, rsum_groupby
from .sorted_agg import sorted_sum_groupby

__all__ = [
    "rsum_groupby",
    "repro_sum_udf",
    "pandas_sum_groupby",
    "sorted_sum_groupby",
]
