"""SORTAGGREGATION — the reproducible-by-ordering baseline.

The paper's only system-agnostic alternative for reproducibility
(Section II-C, VI-A): impose a deterministic total order on the input
and fold in that order. We sort by (key, value) so the result is a pure
function of the input *multiset* (permutation-independent), then fold
each run left-to-right in the target dtype. The paper measures this
approach at >= 60 ns/element — 20x its algorithm — and 7x end-to-end in
MonetDB (Table IV).
"""
from __future__ import annotations

import numpy as np

from ..core.binned import slot_ids

__all__ = ["sort_aggregate"]


def sort_aggregate(keys: np.ndarray, values: np.ndarray, n_groups: int,
                   dtype=np.float64) -> np.ndarray:
    """Deterministically ordered per-group left-fold sums.

    Returns a dense array of per-group sums (groups absent from the
    input sum to 0). The fold is sequential within each run
    (``np.add.reduceat`` evaluates slices left to right in order), so
    any run of this function on any permutation of the same pairs gives
    the same bits. Keys are checked as every table checks them
    (``core.binned.slot_ids``): a key that is not an integer raises
    ``TypeError``, one outside ``[0, n_groups)`` ``IndexError``.
    """
    keys = slot_ids(keys, n_groups)
    v = np.asarray(values, dtype)
    order = np.lexsort((v, keys))
    ks, vs = keys[order], v[order]
    out = np.zeros(n_groups, dtype)
    if ks.size == 0:
        return out
    starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    sums = np.add.reduceat(vs, starts)
    out[ks[starts]] = sums
    return out
