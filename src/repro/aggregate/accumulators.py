"""Pluggable accumulator backends for the aggregation operators.

These mirror the data types compared in the paper's evaluation
(Section VI): built-in IEEE floats, fixed-point ``DECIMAL(p)`` types
on two int64 limbs for every p (the paper's 32-, 64- and 128-bit
integers), and the reproducible ``repro<ScalarT,L>`` types with and
without summation buffers.

Every backend exposes the same dense-table interface used by
HASHAGGREGATION / PARTITIONANDAGGREGATE:

* ``batch`` — rows per ``update`` in ``hash_aggregate`` (``None``: all);
* ``update(idx, vals)`` — scatter a batch of values into table rows,
  whose keys ``core.binned.slot_ids`` checks first; DECIMAL and repro
  raise ``ValueError`` for values they cannot hold before any change;
* ``merge_from(other, base, stride=1)`` — builtin and repro kinds only:
  add a private table into a shared one, other's row ``i`` into row
  ``base + i * stride`` (the transfer phase of the paper's Algorithm 4,
  which ``partition_and_aggregate`` does not need; only perfbench calls
  it). The repro kinds add exported states with ``merge_state_rows``;
* ``finalize()`` — per-row sums as float64 for comparison; DECIMAL
  raises ``OverflowError`` for a sum past its range;
* ``result_bits()`` — a canonical byte-level representation used by the
  reproducibility tests (bit-pattern equality, not approximate).
"""
from __future__ import annotations

import numpy as np

from ..core import _kernels
from ..core.binned import GroupedBinnedAcc, slot_ids

__all__ = [
    "BuiltinAcc",
    "DecimalAcc",
    "ReproAcc",
    "BufferedReproAcc",
    "make_acc",
]

#: rows per ``update`` of the NumPy kinds; the batch size changes no bit
BATCH = 1 << 16


class BuiltinAcc:
    """Built-in float32/float64 accumulation: one scatter-add per element.

    The paper's baseline (``operator+=`` is a single hardware add).
    Not reproducible: result bits depend on the order of the adds.
    """

    kind, batch = "builtin", BATCH

    def __init__(self, n_groups: int, dtype=np.float64):
        self.table = np.zeros(n_groups, dtype)

    def update(self, idx: np.ndarray, vals: np.ndarray) -> None:
        idx = slot_ids(idx, self.table.size)
        np.add.at(self.table, idx, vals.astype(self.table.dtype, copy=False))

    # the traced perfbench run reads this; goes after ROADMAP item 1
    def merge_from(self, other: "BuiltinAcc", base: int, stride: int = 1) -> None:
        dst = self.table[base::stride]
        n = min(dst.size, other.table.size)  # last partition may be short
        dst[:n] += other.table[:n]

    def finalize(self) -> np.ndarray:
        return self.table.astype(np.float64)

    def result_bits(self) -> bytes:
        return self.table.tobytes()


class DecimalAcc:
    """Fixed-point DECIMAL(p) on integers (paper Section II-C / VI-C).

    ``p`` decimal digits total, ``frac`` of them fractional; values are
    scaled by ``10**frac`` and rounded to integers on entry (this is the
    *assumption* of fixed-point arithmetic: inputs are exact multiples
    of the smallest unit). Every p keeps each group's sum in two int64
    limbs standing in for the paper's ``__int128``: ``lo`` holds the low
    31 bits and ``hi`` the rest, carries folded after each ``update``.
    Integer addition is associative, so this is reproducible by
    construction — but it cannot represent data whose scale is unknown
    or whose magnitudes vary widely. NaN, ±Inf and values that scale
    past DECIMAL(p) or int64 raise ``ValueError``, and an ``update`` that
    could carry a group past the limbs' headroom (about 2**93 units)
    ``OverflowError``, before the table changes; ``exact_ints`` and
    ``finalize`` raise ``OverflowError`` for a final sum past ``10**p - 1``
    units, whatever the order or split of the input.
    """

    kind, batch = "decimal", BATCH

    def __init__(self, n_groups: int, p: int = 19, frac: int = 2):
        self.p, self.frac = p, frac
        self.scale = 10**frac
        self.lo = np.zeros(n_groups, np.int64)
        self.hi = np.zeros(n_groups, np.int64)
        # one past the units a value may scale to: DECIMAL(p)'s 10**p - 1,
        # the int64 cast's 2**63 - 1; exact floats
        self._units = float(min(10**p, 2**63))

    def update(self, idx: np.ndarray, vals: np.ndarray) -> None:
        idx = slot_ids(idx, self.lo.size)
        v = np.asarray(vals, np.float64)
        x = np.rint(v * self.scale)
        i = _kernels.first_outside(x, self._units)
        if i < x.size:
            raise ValueError(f"DECIMAL({self.p}, {self.frac}) cannot hold "
                             f"{v.ravel(order='K')[i]}")
        # a value moves hi by at most 2**32 and lo's carry by 1, so below
        # this every touched hi stays under 2**62 + rows and lo under 2**63
        h = np.abs(self.hi[idx])
        if idx.size and int(h.max()) > (1 << 62) - (idx.size << 32):
            raise OverflowError(f"DECIMAL({self.p}, {self.frac}): {idx.size} more "
                                f"rows could carry group {idx[h.argmax()]}'s sum "
                                f"past 2**93 units")
        x = x.astype(np.int64)
        np.add.at(self.lo, idx, x & 0x7FFFFFFF)
        np.add.at(self.hi, idx, x >> 31)
        self.hi += self.lo >> 31
        self.lo &= 0x7FFFFFFF

    def exact_ints(self) -> list[int]:
        """The exact scaled integer sums; ``OverflowError`` naming the
        first group whose sum lies past ``10**p - 1`` units."""
        sums = [(h << 31) + l for h, l in zip(self.hi.tolist(), self.lo.tolist())]
        top = 10**self.p - 1
        if sums and (max(sums) > top or min(sums) < -top):
            g = next(g for g, s in enumerate(sums) if abs(s) > top)
            raise OverflowError(f"DECIMAL({self.p}, {self.frac}) cannot hold "
                                f"group {g}'s sum of {sums[g]} units")
        return sums

    def finalize(self) -> np.ndarray:
        # each sum rounds to the nearest float64, then the division rounds
        return np.array(self.exact_ints(), np.float64) / self.scale

    def result_bits(self) -> bytes:
        return self.lo.tobytes() + self.hi.tobytes()


class ReproAcc:
    """repro<ScalarT,L> as drop-in aggregate, *without* buffers (Section IV).

    Cost profile per element: gather window + L error-free transforms +
    L scatter-adds — the source of the paper's 4–12x slowdown.
    """

    kind, batch = "repro", BATCH

    def __init__(self, n_groups: int, dtype=np.float64, L: int = 2):
        self.acc = GroupedBinnedAcc(L=L, dtype=dtype, dense_n_groups=n_groups)

    def update(self, idx: np.ndarray, vals: np.ndarray) -> None:
        self.acc.update(idx, vals, fast=False)

    # the traced perfbench run reads this; goes after ROADMAP item 1
    def merge_from(self, other: "ReproAcc", base: int, stride: int = 1) -> None:
        keys, e, dev, C = other.acc.export_states()
        n = min(keys.size, len(range(base, self.acc.n_slots, stride)))  # last may be short
        self.acc.merge_state_rows(base + keys[:n] * stride, e[:n], dev[:n], C[:n])

    def finalize(self) -> np.ndarray:
        return self.acc.finalize()[:, 0].astype(np.float64, copy=False)

    def result_bits(self) -> bytes:
        keys, e, d, c = self.acc.export_states()
        return e.tobytes() + d.tobytes() + c.tobytes()


class BufferedReproAcc(ReproAcc):
    """repro<ScalarT,L> *with* summation buffers (Section V).

    Performance realisation in this substrate: the processing batch
    plays the role of the per-group summation buffer, and each batch is
    one call of the compiled deposit loop (``GroupedBinnedAcc``'s fast
    path), which amortises the per-call costs as a full buffer does. The
    literal array-per-group layout of Figure 5 is not built: the kernel
    gives the same bits without it (see DESIGN.md §5). ``hash_aggregate``
    deposits its whole input — partition-ordered under
    ``partition_and_aggregate``, so the kernel splits it into morsels by
    slot — in one ``update`` (``GroupedBinnedAcc.update`` cuts it into
    kernel calls of at most 2**22 rows); ``finalize`` rounds in the same
    compiled library.
    """

    kind, batch = "repro_buffered", None

    def update(self, idx: np.ndarray, vals: np.ndarray) -> None:
        self.acc.update(idx, vals)


def make_acc(kind: str, n_groups: int, **kw):
    """Factory used by the operators and the benchmark harness.

    kind: "builtin" | "decimal" | "repro" | "repro_buffered".
    """
    return {
        "builtin": BuiltinAcc,
        "decimal": DecimalAcc,
        "repro": ReproAcc,
        "repro_buffered": BufferedReproAcc,
    }[kind](n_groups, **kw)
