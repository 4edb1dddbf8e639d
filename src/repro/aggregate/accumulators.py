"""Pluggable accumulator backends for the aggregation operators.

These mirror the data types compared in the paper's evaluation
(Section VI): built-in IEEE floats, fixed-point ``DECIMAL(p)`` types
implemented on integers (p = 9, 19, 38 as 32-, 64- and two-limb 64-bit
integers — the paper uses ``__int128`` for p = 38), and the reproducible
``repro<ScalarT,L>`` types with and without summation buffers.

Every backend exposes the same dense-table interface used by
HASHAGGREGATION / PARTITIONANDAGGREGATE:

* ``update(idx, vals)`` — scatter a batch of values into table rows;
* ``merge_from(other, base, stride=1)`` — fold a private table into a
  shared one, placing other's row ``i`` at ``base + i * stride`` (the
  transfer phase of the paper's Algorithm 4, which
  ``partition_and_aggregate`` does not need; only perfbench calls it);
* ``finalize()`` — per-row sums as float64 for comparison;
* ``result_bits()`` — a canonical byte-level representation used by the
  reproducibility tests (bit-pattern equality, not approximate).
"""
from __future__ import annotations

import numpy as np

from ..core.binned import GroupedBinnedAcc

__all__ = [
    "BuiltinAcc",
    "DecimalAcc",
    "ReproAcc",
    "BufferedReproAcc",
    "make_acc",
]


class BuiltinAcc:
    """Built-in float32/float64 accumulation: one scatter-add per element.

    The paper's baseline (``operator+=`` is a single hardware add).
    Not reproducible: result bits depend on the order of the adds.
    """

    kind = "builtin"

    def __init__(self, n_groups: int, dtype=np.float64):
        self.table = np.zeros(n_groups, dtype)

    def update(self, idx: np.ndarray, vals: np.ndarray) -> None:
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
    of the smallest unit). Storage: int32 for p<=9, int64 for p<=19,
    and a two-limb (low 31 bits / high) int64 pair for p=38 standing in
    for ``__int128``. Integer addition is associative, so these are
    reproducible by construction — but they cannot represent data whose
    scale is unknown or whose magnitudes vary widely.
    """

    kind = "decimal"

    def __init__(self, n_groups: int, p: int = 19, frac: int = 2):
        self.p, self.frac = p, frac
        self.scale = 10**frac
        if p <= 9:
            self.table = np.zeros(n_groups, np.int32)
            self._two_limb = False
        elif p <= 19:
            self.table = np.zeros(n_groups, np.int64)
            self._two_limb = False
        else:  # p = 38: two-limb emulation of __int128
            self.lo = np.zeros(n_groups, np.int64)
            self.hi = np.zeros(n_groups, np.int64)
            self._two_limb = True

    def _scaled(self, vals: np.ndarray) -> np.ndarray:
        return np.rint(np.asarray(vals, np.float64) * self.scale).astype(np.int64)

    def update(self, idx: np.ndarray, vals: np.ndarray) -> None:
        x = self._scaled(vals)
        if self._two_limb:
            np.add.at(self.lo, idx, x & 0x7FFFFFFF)
            np.add.at(self.hi, idx, x >> 31)
        else:
            np.add.at(self.table, idx, x.astype(self.table.dtype, copy=False))

    # the traced perfbench run reads this; goes after ROADMAP item 1
    def merge_from(self, other: "DecimalAcc", base: int, stride: int = 1) -> None:
        if self._two_limb:
            dst_lo, dst_hi = self.lo[base::stride], self.hi[base::stride]
            n = min(dst_lo.size, other.lo.size)
            dst_lo[:n] += other.lo[:n]
            dst_hi[:n] += other.hi[:n]
        else:
            dst = self.table[base::stride]
            n = min(dst.size, other.table.size)
            dst[:n] += other.table[:n]

    def exact_ints(self) -> list[int]:
        """The exact scaled integer sums (arbitrary precision for p=38)."""
        if self._two_limb:
            return [int(h) * (1 << 31) + int(l) for h, l in zip(self.hi, self.lo)]
        return [int(x) for x in self.table]

    def finalize(self) -> np.ndarray:
        if self._two_limb:
            return np.array([x / self.scale for x in self.exact_ints()])
        return self.table.astype(np.float64) / self.scale

    def result_bits(self) -> bytes:
        if self._two_limb:
            return self.lo.tobytes() + self.hi.tobytes()
        return self.table.tobytes()


class ReproAcc:
    """repro<ScalarT,L> as drop-in aggregate, *without* buffers (Section IV).

    Cost profile per element: gather window + L error-free transforms +
    L scatter-adds — the source of the paper's 4–12x slowdown.
    """

    kind = "repro"

    def __init__(self, n_groups: int, dtype=np.float64, L: int = 2):
        self.acc = GroupedBinnedAcc(L=L, dtype=dtype, dense_n_groups=n_groups)

    def update(self, idx: np.ndarray, vals: np.ndarray) -> None:
        self.acc.update_slots(
            idx, np.asarray(vals, self.acc.fmt.dtype), fast=False
        )

    # the traced perfbench run reads this; goes after ROADMAP item 1
    def merge_from(self, other: "ReproAcc", base: int, stride: int = 1) -> None:
        # a transfer phase over disjoint groups: private states are
        # adopted into the shared table directly
        self.acc.adopt_strided(other.acc, base, stride)

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
    ``partition_and_aggregate``, so the kernel splits it over threads by
    slot — in one ``update`` (``GroupedBinnedAcc.update_slots`` cuts it
    into kernel calls of at most 2**22 rows); ``finalize`` rounds in the
    same compiled library.
    """

    kind = "repro_buffered"

    def update(self, idx: np.ndarray, vals: np.ndarray) -> None:
        self.acc.update_slots(idx, np.asarray(vals, self.acc.fmt.dtype))


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
