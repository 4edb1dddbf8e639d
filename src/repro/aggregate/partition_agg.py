"""PARTITIONANDAGGREGATE (paper Algorithm 4): partition, then HASHAGGREGATION.

1. Radix-partition the input on the key's *high* digit with fan-out
   ``F = FANOUT**d`` (identity hashing on dense keys): the partition id
   is ``key >> s``, with ``2**s`` the smallest power of two such that
   ``F * 2**s >= n_groups``. Partition ``p`` thus owns the contiguous
   slice ``[p << s, (p + 1) << s)`` of the shared table.
2. Run ``hash_aggregate`` over the partition-ordered rows. Consecutive
   rows then hit one partition's slice — a cache-sized table — at a
   time, so a partition's slice is its private table and there is no
   transfer phase (Algorithm 4 lines 4–6). The partition is stable and
   partitions hold disjoint groups, so every group receives the same
   adds in the same order as in one-pass HASHAGGREGATION: the result
   bits are those of ``hash_aggregate`` on the unpartitioned input.

The partitioning substrate is a compiled stable counting sort
(``core/_kernels.c``) of ⟨key, value⟩ rows, one key and one value each
as Algorithm 4 partitions them — the single-pass radix partition of
[9, 31, 33] with per-morsel histograms and write-combined,
streaming-store output, run on one thread per usable core and at most
one per morsel (see DESIGN.md §5); the deposit and finalize that follow
split their work into morsels by slot, so no two threads touch one
group. It routes on ``((uint64)key >> s) & (F - 1)``,
which stays in bounds for any key, so the keys are checked once, by
the table they enter (``core.binned.slot_ids``).

The partition writes into a per-thread scratch pair that every call on
the thread reuses (a key and a value per row of the largest input the
thread has partitioned, 16 bytes for float64 values, held until the
thread exits), so a query pays for no fresh
pages. ``hash_aggregate`` consumes the partitioned rows inside the call
and no accumulator keeps the arrays its ``update`` receives, so a
later call cannot change an earlier result.
"""
from __future__ import annotations

import threading

import numpy as np

from ..core import _kernels
# not called here: the traced perfbench run reads it; goes after ROADMAP item 1
from .accumulators import make_acc  # noqa: F401
from .hash_agg import hash_aggregate
from .tuning import FANOUT, choose_depth

__all__ = ["parallel_partition", "partition_and_aggregate"]

#: this thread's partition output, reused by every call on the thread
_scratch = threading.local()


def _partition_out(n: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """This thread's partition output for ``n`` rows of ``dtype`` values.

    The arrays only grow: they are replaced only when ``n`` rows do not
    fit or the value dtype differs, and held until the thread exits.
    Reused, they are memory the kernel has written before, so no call
    pays for fresh pages.
    """
    keys, vals = getattr(_scratch, "out", (None, None))
    if keys is None or keys.size < n or vals.dtype != dtype:
        _scratch.out = keys = vals = None  # free the old pair first
        keys, vals = np.empty(n, np.int64), np.empty(n, dtype)
        _scratch.out = keys, vals
    return keys[:n], vals[:n]


# not called here: the traced perfbench run reads it; goes after ROADMAP item 1
def parallel_partition(keys: np.ndarray, values: np.ndarray, F: int):
    """``_kernels.partition`` on ``key mod F``; F must be a power of two."""
    return _kernels.partition(keys, values, F)


def partition_and_aggregate(
    keys: np.ndarray,
    values: np.ndarray,
    n_groups: int,
    *,
    kind: str = "repro_buffered",
    d: int | None = None,
    **kw,
):
    """Algorithm 4 over dense keys in [0, n_groups); returns the shared table.

    ``d`` (levels of partitioning) defaults to the offline thresholds of
    ``tuning.choose_depth``. ``kind`` and ``kw`` (the accumulator's own
    arguments) go to ``hash_aggregate``, whose table raises ``IndexError``
    for a key outside ``[0, n_groups)``. Keys and values must be 1-D and
    of one length (else ``ValueError``, at any depth, before partitioning).
    """
    keys, values = _kernels.pairs(keys, values)
    if d is None:
        d = choose_depth(n_groups, kind)
    # Simulator scaling: the paper runs F = 256**d over 2**30 rows
    # (>=16k rows per partition); at this repo's scaled-down input sizes
    # the same F would leave a handful of rows per partition while the
    # counting sort scatters into F output streams at once. Clamp F so
    # the cache-footprint division (n_groups/F) — the effect Algorithm 4
    # exists for — is preserved. Results are bit-identical for any F
    # (tested).
    F = min(FANOUT**d, 1 << 12)
    if F > 1:
        s = max(0, (n_groups - 1).bit_length() - (F.bit_length() - 1))
        out = _partition_out(keys.size, values.dtype)
        keys, values, _ = _kernels.partition(keys, values, F, s, out=out)
    return hash_aggregate(keys, values, n_groups, kind=kind, **kw)
