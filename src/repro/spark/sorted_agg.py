"""Reproducible-by-sorting GROUPBY for Spark — the paper's baseline.

The only way to make an unmodified engine reproducible across input
permutations is to impose a deterministic order before folding
(Section II-C "Deterministic order of operations", Table IV column
"double (sorted)"). Here each group's rows are shuffled to one task,
sorted by a deterministic key (the value columns themselves, so the
result depends only on the input multiset), and folded sequentially in
IEEE order via ``np.cumsum`` (a left fold). This pays the full sorting
price the paper measures at >7x end-to-end.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

__all__ = ["sorted_sum_groupby"]


def sorted_sum_groupby(df: DataFrame, keys, values) -> DataFrame:
    """Deterministically ordered per-group sums ``<v>_ssum`` (float64).

    Runs the paper's global input sort — a full ORDER BY over keys and
    values (range shuffle + sort) — before the fold, which is what the
    unmodified-engine baseline must pay. The fold itself re-sorts each
    group (cheap, already ordered) so the result is a pure function of
    the input multiset regardless of how the range partitioner split the
    sorted runs. As SQL SUM, NULLs add nothing and an all-NULL group
    sums to NULL; a pandas float column cannot tell NaN from NULL, so a
    NaN is skipped too (native ``sum`` gives NaN).
    """
    keycols = [keys] if isinstance(keys, str) else list(keys)
    valcols = [values] if isinstance(values, str) else list(values)
    df = df.orderBy(*keycols, *valcols)
    key_fields = [df.schema[k] for k in keycols]
    out_schema = T.StructType(
        list(key_fields) + [T.StructField(f"{v}_ssum", T.DoubleType()) for v in valcols]
    )

    def fold(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(valcols, kind="stable")
        res = {kc: [pdf[kc].iloc[0]] for kc in keycols}
        for vc in valcols:
            arr = pdf[vc].dropna().to_numpy(np.float64)  # NULL is NaN here
            res[f"{vc}_ssum"] = [np.cumsum(arr)[-1] if arr.size else None]
        return pd.DataFrame(res)

    return df.select(*keycols, *valcols).groupBy(*keycols).applyInPandas(
        fold, out_schema
    )
