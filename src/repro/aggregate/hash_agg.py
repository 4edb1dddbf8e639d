"""HASHAGGREGATION over a dense identity-hashed table (paper Section IV).

The paper's baseline operator: look up the group's intermediate
aggregate by key and fold the value in. Keys are dense ints in
``[0, n_groups)`` and the hash function is identity (the paper's own
setup: "we use IDENTITYHASHING … not unrealistic in column stores,
where dense ranges are common due to domain encoding"), so the hash
table is a dense array indexed by key. Input is processed in batches of
each accumulator's ``batch`` rows to model streaming execution.
"""
from __future__ import annotations

import numpy as np

from ..core import _kernels
from .accumulators import make_acc

__all__ = ["hash_aggregate"]


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
    ``finalize()`` (float64 sums) and ``result_bits()``. The keys go to
    the accumulator as given, ``batch`` rows per ``update`` (the whole
    input where that is ``None``); its table raises ``IndexError`` for a
    key outside ``[0, n_groups)``, before the batch changes it. Keys and
    values must be 1-D and of one length (else ``ValueError``).
    """
    keys, values = _kernels.pairs(keys, values)
    acc = make_acc(kind, n_groups, **acc_kw)
    step = acc.batch or keys.size
    for i in range(0, keys.size, max(step, 1)):
        acc.update(keys[i : i + step], values[i : i + step])
    return acc
