"""HASHAGGREGATION over a dense identity-hashed table (paper Section IV).

The paper's baseline operator: look up the group's intermediate
aggregate by key and fold the value in. Keys are dense ints in
``[0, n_groups)`` and the hash function is identity (the paper's own
setup: "we use IDENTITYHASHING … not unrealistic in column stores,
where dense ranges are common due to domain encoding"), so the hash
table is a dense array indexed by key. Input is processed in batches of
``BATCH`` elements to model streaming execution.
"""
from __future__ import annotations

import numpy as np

from .accumulators import make_acc

__all__ = ["check_input", "hash_aggregate"]

#: rows per ``update`` of the NumPy kinds; the batch size changes no bit
BATCH = 1 << 16


def hash_aggregate(
    keys: np.ndarray,
    values: np.ndarray,
    n_groups: int,
    *,
    kind: str = "builtin",
    **acc_kw,
):
    """Aggregate ``values`` by dense ``keys``; returns the accumulator.

    ``kind`` selects the intermediate-aggregate data type (see
    ``accumulators.make_acc``). The returned accumulator exposes
    ``finalize()`` (float64 sums) and ``result_bits()``. A key outside
    ``[0, n_groups)`` raises ``IndexError``; this is the operators' one
    key check. The NumPy kinds take ``BATCH`` rows per ``update``;
    ``repro_buffered`` deposits the whole input in one ``update``, which
    ``GroupedBinnedAcc.update_slots`` cuts into kernel calls of at most
    2**22 rows.
    """
    keys = np.asarray(keys, np.int64)
    values = np.asarray(values)
    check_input(keys, values, n_groups)
    acc = make_acc(kind, n_groups, **acc_kw)
    step = keys.size if kind == "repro_buffered" else BATCH
    for i in range(0, keys.size, max(step, 1)):
        acc.update(keys[i : i + step], values[i : i + step])
    return acc


def check_input(keys: np.ndarray, values: np.ndarray, n_groups: int) -> None:
    """Raise unless ``keys`` (int64) and ``values`` pair up and every key
    is in ``[0, n_groups)``."""
    if keys.shape != values.shape:
        raise ValueError("keys and values must have the same length")
    # one pass: a negative key is a huge unsigned one
    if keys.size and keys.view(np.uint64).max() >= np.uint64(n_groups):
        bad = keys[(keys < 0) | (keys >= n_groups)][0]
        raise IndexError(f"key {bad} out of range for {n_groups} groups")
