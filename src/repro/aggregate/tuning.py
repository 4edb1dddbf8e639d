"""Tuning models of Section V-C: buffer size (Eq. 4) and partitioning depth.

Eq. 4: ``bsz = min(ceil(|cache| / (n_groups / F * sizeof(ScalarT))),
bsz_max)`` — buffers as large as possible while the working set (one
buffer per group per partition) stays inside the per-core cache budget.
The paper's effective budget is 1 MiB per core (half of the 20 MiB LLC
divided by 8 cores, observed in Figure 8); we use the same constant.
It is kept as the paper's model: no operator calls it, because here the
batch, not a per-group buffer, is the unit of deposit (DESIGN.md §5).

Partitioning-depth thresholds are the offline-determined cross-over
points the paper reports (Figure 9 and Section VI-C): a level of
partitioning pays off once the number of groups exceeds the point where
the final aggregation no longer fits in cache.
"""
from __future__ import annotations

import math

__all__ = ["CACHE_BYTES", "BSZ_MAX", "FANOUT", "eq4_bsz", "choose_depth"]

#: effective last-level cache per core (paper: ~1 MiB, Section VI-D).
CACHE_BYTES = 1 << 20
#: largest buffer size available (elements); paper: "largest buffer size
#: available in the system" — we cap at 4096 like Figure 8's sweep.
BSZ_MAX = 1 << 12
#: partitioning fan-out per level (paper Section V-B: f = 256).
FANOUT = 256

#: The paper's offline thresholds on its Haswell testbed, for reference:
#: builtin/decimal partition from 2^16 / 2^25 groups (Section VI-C),
#: unbuffered repro from ~2^15 / ~2^22, buffered repro from 2^10 / 2^18
#: (Figure 9).
PAPER_DEPTH_THRESHOLDS = {
    "builtin": (1 << 16, 1 << 25),
    "decimal": (1 << 16, 1 << 25),
    "repro": (1 << 15, 1 << 22),
    "repro_buffered": (1 << 10, 1 << 18),
}

#: Offline-measured thresholds for THIS substrate (the paper's own
#: methodology — "we simply determine the optimal number of levels
#: offline", Section V-C — applied to NumPy-on-one-socket economics):
#: scatter-adds into multi-MiB tables stay cheap until far later than on
#: the paper's hardware, while a partitioning pass costs a stable sort,
#: so every type partitions later; repro types still partition *earlier*
#: than built-ins because their per-group state is (2L+1)x wider. The
#: buffered type partitions earliest: only partition-ordered rows let its
#: compiled deposit run on several threads. From 2^17 groups d = 1 beat
#: d = 0 in every cell measured on 2 and 4 CPUs (EXPERIMENTS.md, Table
#: III); on one CPU the crossover lies near 2^18 and depends on L.
_DEPTH_THRESHOLDS = {
    "builtin": (1 << 22, 1 << 26),
    "decimal": (1 << 22, 1 << 26),
    "repro": (1 << 19, 1 << 24),
    "repro_buffered": (1 << 17, 1 << 24),
}


def eq4_bsz(n_groups: int, F: int = 1, itemsize: int = 8,
            cache_bytes: int = CACHE_BYTES, bsz_max: int = BSZ_MAX) -> int:
    """Equation 4: cache-filling buffer size, rounded to a power of two.

    The paper's model, for reference; no operator calls it.

    The paper's Figure 8 sweeps power-of-two sizes; rounding down to a
    power of two keeps the working set within the cache budget.
    """
    groups_per_part = max(1, math.ceil(n_groups / F))
    raw = math.ceil(cache_bytes / (groups_per_part * itemsize))
    bsz = min(raw, bsz_max)
    return max(1, 1 << (bsz - 1).bit_length() if bsz & (bsz - 1) == 0
               else 1 << (bsz.bit_length() - 1))


def choose_depth(n_groups: int, kind: str = "repro_buffered") -> int:
    """Offline-selected number of partitioning levels d (F = 256**d)."""
    t1, t2 = _DEPTH_THRESHOLDS[kind]
    if n_groups >= t2:
        return 2
    if n_groups >= t1:
        return 1
    return 0
