"""PARTITIONANDAGGREGATE (paper Algorithm 4).

1. Radix-partition the input on the key's *high* digit with fan-out
   ``F = f**d`` (``f = 256``; identity hashing on dense keys): the
   partition id is ``key >> s`` and the partition-local key is
   ``key & (2**s - 1)``, with ``2**s`` the smallest power of two such
   that ``F * 2**s >= n_groups``. Partition ``p`` thus owns the
   contiguous slice ``[p << s, (p + 1) << s)`` of the shared table.
2. Aggregate the partition-ordered rows straight into the shared table,
   for every kind. Consecutive rows then hit one partition's slice — a
   cache-sized table — at a time, so a partition's slice is its private
   table and there is no transfer phase (Algorithm 4 lines 4–6). The
   partition is stable and partitions hold disjoint groups, so every
   group receives the same adds in the same order as in one-pass
   HASHAGGREGATION: the result bits are those of ``hash_aggregate``.

The partitioning substrate is a compiled stable counting sort
(``core/_kernels.c``) — the single-pass software-managed radix partition
of [9, 31, 33] (see DESIGN.md §5). Its histogram pass rejects a key
outside ``[0, n_groups)`` with ``IndexError``.
"""
from __future__ import annotations

import numpy as np

from ..core import _kernels
from .accumulators import make_acc
# hash_aggregate: not called here, but perfbench/local.py traces this name
from .hash_agg import check_input, hash_aggregate  # noqa: F401
from .tuning import FANOUT, choose_depth

__all__ = ["parallel_partition", "partition_and_aggregate"]


def parallel_partition(keys: np.ndarray, values: np.ndarray, F: int):
    """Partition <key,value> pairs on ``key mod F``; F must be a power of two.

    Returns ``(keys_part, values_part, bounds)`` where partition ``p``
    occupies ``slice(bounds[p], bounds[p+1])`` and rows are grouped by
    partition (stable within a partition, like the paper's partitioning
    routine which concatenates per-thread sub-partitions).
    """
    return _kernels.partition(keys, values, F)


def partition_and_aggregate(
    keys: np.ndarray,
    values: np.ndarray,
    n_groups: int,
    *,
    kind: str = "repro_buffered",
    d: int | None = None,
    f: int = FANOUT,
    batch: int = 1 << 16,
    **acc_kw,
):
    """Algorithm 4 over dense keys in [0, n_groups); returns the shared table.

    ``d`` (levels of partitioning) defaults to the offline thresholds of
    ``tuning.choose_depth``. The shared table's accumulator backend is
    ``kind``. ``batch`` is the number of rows per ``update`` of the
    NumPy kinds; ``repro_buffered`` deposits in calls of up to 2**22
    rows instead. A key outside ``[0, n_groups)`` raises ``IndexError``.
    """
    keys = np.asarray(keys, np.int64)
    values = np.asarray(values)
    if d is None:
        d = choose_depth(n_groups, kind)
    # Simulator scaling: the paper runs F = 256**d over 2**30 rows
    # (>=16k rows per partition); at this repo's scaled-down input sizes
    # the same F would leave a handful of rows per partition while the
    # counting sort scatters into F output streams at once. Clamp F so
    # the cache-footprint division (n_groups/F) — the effect Algorithm 4
    # exists for — is preserved. Results are bit-identical for any F
    # (tested).
    F = min(f**d, 1 << 12)

    shared = make_acc(kind, n_groups, **acc_kw)
    if F > 1:
        _, keys, values, _ = _partition_high(keys, values, n_groups, F)
    else:
        check_input(keys, values, n_groups)
    # the compiled deposit cuts its own input; NumPy kinds stream batches
    step = keys.size if kind == "repro_buffered" else batch
    for i in range(0, keys.size, max(step, 1)):
        shared.update(keys[i : i + step], values[i : i + step])
    return shared


def _partition_high(keys, values, n_groups: int, F: int):
    """Partition on the key's high digit ``key >> s``, checking the keys.

    ``2**s`` is the smallest power of two with ``F * 2**s >= n_groups``.
    Returns ``(s, keys_part, values_part, bounds)``.
    """
    s = max(0, (n_groups - 1).bit_length() - (F.bit_length() - 1))
    return (s, *_kernels.partition(keys, values, F, s, n_groups))
