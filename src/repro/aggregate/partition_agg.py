"""PARTITIONANDAGGREGATE (paper Algorithm 4).

1. Radix-partition the input on the key's low bits with fan-out
   ``F = f**d`` (``f = 256``; identity hashing on dense keys, so the
   partition id is ``key mod F`` and the partition-local key is
   ``key div F``).
2. HASHAGGREGATION of each partition into a private table (any
   accumulator backend, in particular repro types with summation
   buffers).
3. Transfer the private tables into one shared table; for repro types
   the shared table holds plain (unbuffered) ``repro<ScalarT,L>``
   states merged with ``operator+=(repro)`` — Algorithm 4 lines 4–6.

The partitioning substrate is a compiled stable counting sort
(``core/_kernels.c``) — the single-pass software-managed radix partition
of [9, 31, 33] (see DESIGN.md §5).
"""
from __future__ import annotations

import math

import numpy as np

from ..core import _kernels
from .accumulators import make_acc
from .hash_agg import hash_aggregate
from .tuning import FANOUT, choose_depth

__all__ = ["parallel_partition", "partition_and_aggregate"]


def parallel_partition(keys: np.ndarray, values: np.ndarray, F: int):
    """Partition <key,value> pairs on ``key mod F``; F must be a power of two.

    Returns ``(keys_part, values_part, bounds)`` where partition ``p``
    occupies ``slice(bounds[p], bounds[p+1])`` and rows are grouped by
    partition (stable within a partition, like the paper's partitioning
    routine which concatenates per-thread sub-partitions).
    """
    if F < 1 or F & (F - 1):
        raise ValueError("fan-out must be a power of two")
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
    the unbuffered variant of ``kind``.
    """
    keys = np.asarray(keys, np.int64)
    values = np.asarray(values)
    if d is None:
        d = choose_depth(n_groups, kind)
    # Simulator scaling: the paper runs F = 256**d over 2**30 rows
    # (>=16k rows per partition); at this repo's scaled-down input sizes
    # the same F would leave a handful of rows per partition and the
    # per-partition dispatch overhead of the Python substrate would
    # dominate. Clamp F so the cache-footprint division (n_groups/F) —
    # the effect Algorithm 4 exists for — is preserved without the
    # dispatch artefact. Results are bit-identical for any F (tested).
    F = min(f**d, 1 << 12)
    shared_kind = "repro" if kind.startswith("repro") else kind
    shared = make_acc(shared_kind, n_groups, **acc_kw)

    if F == 1:  # PARALLELPARTITION is a no-op that forwards its input
        acc = hash_aggregate(
            keys, values, n_groups, kind=kind, batch=batch, **acc_kw
        )
        shared.merge_from(acc, 0, 1)
        return shared

    pk, pv, bounds = parallel_partition(keys, values, F)
    n_local = math.ceil(n_groups / F)
    shift = F.bit_length() - 1  # local key = key div F (dense identity hash)
    for p in range(F):
        lo, hi = bounds[p], bounds[p + 1]
        if lo == hi:
            continue
        local = hash_aggregate(
            pk[lo:hi] >> shift, pv[lo:hi], n_local,
            kind=kind, batch=batch, **acc_kw,
        )
        shared.merge_from(local, p, F)
    return shared
