"""PySpark layer: reproducible GROUPBY inside Spark's own aggregate.

* :mod:`repro.spark.repro_sum` — the headline deliverable: the binned
  reproducible sum as a JVM aggregate (``ReproSum.java``) that Spark
  runs in its partial and final ``HashAggregate``, as a Column function
  (:func:`repro_sum`) and per group and column (:func:`rsum_groupby`).
* :mod:`repro.spark.sorted_agg` — reproducible-by-sorting baseline.
* :mod:`repro.spark.tpch` — TPC-H Q1 variants for Table IV.
"""
from .repro_sum import pandas_sum_groupby, repro_sum, rsum_groupby
from .sorted_agg import sorted_sum_groupby

__all__ = [
    "rsum_groupby",
    "repro_sum",
    "pandas_sum_groupby",
    "sorted_sum_groupby",
]
