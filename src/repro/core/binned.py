"""The reproducible, associative summation state (``repro<ScalarT,L>``).

This module implements the paper's reproducible floating-point type
(Section IV) on top of the binned/level decomposition of Section III:

* every input value is split, by error-free transformations against a
  ladder of extractors ``M_l = 1.5 * 2**(e_top - l*W)``, into per-level
  *contributions* that are integer multiples of the level's grid
  ``2**(e_l - m)``;
* per-level totals are therefore **exact** integer sums — independent of
  arrival order and of how the input stream is split across batches,
  partitions, or Spark tasks;
* the retained window is the top ``L`` levels anchored at the natural
  bin of the running maximum; merging two states aligns levels on the
  shared global grid and adds exactly, as ``ReproSum.mergeStates`` does.

State layout (per group, per value column): window top exponent
``e_top`` (``EMPTY_E`` until a nonzero value is seen), ``dev[L]`` — the
running sum's deviation from ``1.5*ufp`` in integer grid units — and
carry counters ``C[L]`` (units of ``0.25*ufp``, the paper's carry-bit
count). ``S^(l) = 1.5*2**(e_l) + dev_l * 2**(e_l - m)``; the paper's
invariant ``S in [1.5, 1.75)*ufp(S)`` is ``dev in [0, 2**(m-2))``.
Keeping ``dev``/``C`` as int64 makes every accumulation step exact by
construction; renormalisation (the paper's carry-bit propagation) is a
presentation-layer step performed on export, merge rows and finalise;
a carry sum that would leave int64 raises ``OverflowError``. One value
check, ``_kernels.check_values``, rejects NaN, ±Inf and magnitudes whose
window lies above the upper guard rail before any state changes. The
float-state reference of Algorithm 2 lives in ``rsum_scalar.py`` and is
tested to agree bit-for-bit.
"""
from __future__ import annotations

import numpy as np

from . import _kernels
from .params import EMPTY_E, FloatFormat, fmt_for

__all__ = [
    "slot_ids",
    "deposit_units",
    "renorm",
    "finalize_state",
    "BinnedSum",
    "GroupedBinnedAcc",
]


def slot_ids(keys, n: int) -> np.ndarray:
    """Integer ``keys`` as int64 ids of a table of ``n`` slots: the key
    check of every table. Raises ``TypeError`` for keys that are not
    integers and ``IndexError`` naming the first key outside ``[0, n)``
    as given. One unsigned max pass: a negative key, read as int64, is a
    huge unsigned one; uint64 keys are viewed, not copied."""
    keys = _kernels.integer_keys(keys)
    ids = keys.view(np.int64) if keys.dtype == np.uint64 else keys.astype(np.int64, copy=False)
    u = ids.view(np.uint64)
    if ids.size and int(u.max()) >= n:
        raise _kernels.key_error(keys[u >= n][0], n)
    return ids


def deposit_units(fmt: FloatFormat, L: int, values: np.ndarray, e_top: np.ndarray):
    """Split ``values`` into per-level contributions, in integer grid units.

    ``e_top`` is the per-element window-top exponent (already >= each
    value's natural bin). Returns an int64 array of shape ``(L, n)``
    where row ``l`` holds each value's contribution to level ``l`` in
    units of ``2**(e_top - l*W - m)``. The chain of error-free
    transformations is computed in ``fmt.dtype`` arithmetic, so the
    decomposition is bit-identical to the scalar reference.
    """
    v = np.asarray(values, dtype=fmt.dtype)
    e = np.asarray(e_top, dtype=np.int64)
    one = fmt.dtype.type(1.5)
    M = np.ldexp(one, e.astype(np.int32))
    units = np.empty((L, v.size), np.int64)
    r = v
    for lev in range(L):
        q = (r + M) - M  # error-free extraction: q = round(r, grid_l)
        scale = (fmt.m - e + lev * fmt.W).astype(np.int32)
        units[lev] = np.ldexp(q, scale).astype(np.int64)  # exact integers
        r = r - q  # exact remainder
        if lev + 1 < L:
            M = np.ldexp(M, np.int32(-fmt.W))
    return units


def renorm(dev: np.ndarray, C: np.ndarray, fmt: FloatFormat) -> None:
    """Carry-bit propagation: restore ``dev in [0, 2**(m-2))`` in place.

    Mirrors Algorithm 2 lines 14–18: move whole multiples of
    ``0.25*ufp = 2**(m-2)`` grid units from the running sum into the
    carry counter. The shift floors, so negative deviations (mixed signs
    in the input) fold exactly. A carry sum that leaves int64 raises
    ``OverflowError`` before anything changes.
    """
    carry = dev >> (fmt.m - 2)
    _check_add(C, carry)
    C += carry
    dev &= (1 << (fmt.m - 2)) - 1


def _check_add(a: np.ndarray, b: np.ndarray) -> None:
    """Raise ``OverflowError`` if some ``a + b`` leaves int64, as
    ``Math.addExact`` throws; only operands past ``2**62`` can."""
    big = 1 << 62
    if any(x.size and (x.max() >= big or x.min() < -big) for x in (a, b)):
        s = a + b
        if np.any((a ^ s) & (b ^ s) < 0):
            raise _kernels.overflow_error()


def finalize_state(fmt: FloatFormat, L: int, e_top, dev, C):
    """Finalisation sum (paper Section III-C): lowest level first.

    ``Q = sum_l ((S_l - 1.5*ufp_l) + 0.25*ufp_l*C_l)`` evaluated in
    ``fmt.dtype`` from level L up to level 1 to avoid cancellation.
    Accepts per-slot arrays: ``e_top (n,)``, ``dev``/``C`` ``(L, n)``.
    ``dev`` must be renormalised (< 2**(m-2)) so its float image is exact.
    """
    e = np.asarray(e_top, np.int64)
    d = np.asarray(dev, np.int64).reshape(L, -1)
    c = np.asarray(C, np.int64).reshape(L, -1)
    live = e != EMPTY_E
    esafe = np.where(live, e, 0)
    Q = np.zeros(e.shape, fmt.dtype)
    for lev in reversed(range(L)):
        el = (esafe - lev * fmt.W).astype(np.int32)
        term = np.ldexp(c[lev].astype(fmt.dtype), el - 2) + np.ldexp(
            d[lev].astype(fmt.dtype), el - fmt.m
        )
        Q = Q + term
    return np.where(live, Q, fmt.dtype.type(0)).astype(fmt.dtype, copy=False)


#: rows deposited between two renormalisations, at most (see _note_adds)
_RENORM_EVERY = 1 << 22


class BinnedSum:
    """Reproducible sum of one stream of numbers (Section III, no grouping).

    The public face of RSUM: `add_vector` is the vectorized batch
    summation (Algorithm 3's role), `add` the per-element path, `merge`
    the associative combine, `finalize` the rounded result. Any split of
    the input into `add_vector`/`add`/`merge` calls, in any order,
    yields bit-identical `finalize()` output. The state is a one-slot
    :class:`GroupedBinnedAcc`, so deposits run through the compiled kernel.
    """

    def __init__(self, L: int = 2, dtype=np.float64):
        self._acc = GroupedBinnedAcc(L=L, dtype=dtype, dense_n_groups=1)
        self.fmt, self.L = self._acc.fmt, L

    def add_vector(self, values) -> "BinnedSum":
        v = np.asarray(values, dtype=self.fmt.dtype).ravel()
        self._acc.update(np.zeros(v.size, np.int64), v)
        return self

    def add(self, x) -> "BinnedSum":
        return self.add_vector(np.asarray([x]))

    def merge(self, other: "BinnedSum") -> "BinnedSum":
        """Associative combine (``operator+=(repro<ScalarT,L>)``)."""
        self._acc.merge(other._acc)
        return self

    def state(self):
        """(e_top, dev, C) after renormalisation — the canonical bits."""
        _, e, dev, C = self._acc.export_states()
        return int(e[0]), dev[0], C[0]

    def finalize(self):
        return self._acc.finalize()[0, 0]


class GroupedBinnedAcc:
    """Many reproducible accumulators keyed by group — the GROUPBY state.

    One instance holds, for every group and every value column, a binned
    summation state. Deposit paths:

    * :meth:`update` with ``fast=True`` — the
      compiled deposit loop of ``_kernels.c``, one call per batch;
    * ``fast=False`` — the *unbuffered* NumPy path: one gather + L
      extractions + L scatter-adds **per element**, mirroring the cost
      profile of using ``repro<ScalarT,L>`` as a drop-in aggregate type
      (paper Section IV / Figure 4).

    Keys are slot ids: ints in ``[0, n_slots)`` (the paper's
    IDENTITYHASHING setup; no lookup cost), checked by :func:`slot_ids`
    wherever they enter; values are checked by ``_kernels.check_values``
    before them. A table built with ``dense_n_groups`` has that
    many slots; one built without grows to its largest key. Callers with
    other keys factorise them first.
    """

    def __init__(self, *, L: int = 2, dtype=np.float64, ncols: int = 1,
                 dense_n_groups: int | None = None):
        self.fmt = fmt_for(dtype)
        self.fmt.check_L(L)
        if ncols < 1:
            raise ValueError("ncols must be >= 1")
        self.L, self.ncols = L, ncols
        self._grows = dense_n_groups is None
        n0 = dense_n_groups or 0
        self.e_top = np.full((ncols, n0), EMPTY_E, np.int64)
        self.dev = np.zeros((ncols, L, n0), np.int64)
        self.C = np.zeros((ncols, L, n0), np.int64)
        self._since_renorm = 0

    # ---------------------------------------------------------------- slots
    @property
    def n_slots(self) -> int:
        return self.e_top.shape[1]

    def keys(self) -> np.ndarray:
        return np.arange(self.n_slots)

    def _grow(self, slots: np.ndarray) -> None:
        """Append empty slots up to the largest of the int64 ``slots``."""
        add = int(slots.max(initial=-1)) + 1 - self.n_slots
        if add > 0:
            self.e_top, self.dev, self.C = (
                np.concatenate([a, np.full(a.shape[:-1] + (add,), v, np.int64)], axis=-1)
                for a, v in ((self.e_top, EMPTY_E), (self.dev, 0), (self.C, 0)))

    def slots_for(self, keys, *, grow: bool = True) -> np.ndarray:
        """:func:`slot_ids` of ``keys`` below ``n_slots`` in a dense table,
        below 2**63 in a growing one, which ``grow`` then grows to them."""
        slots = slot_ids(keys, 1 << 63 if self._grows else self.n_slots)
        if self._grows and grow:
            self._grow(slots)
        return slots

    # -------------------------------------------------------------- windows
    def _aligned(self, a: np.ndarray, e: np.ndarray, top: np.ndarray) -> np.ndarray:
        """Levels ``a (L, k)`` of windows ``e`` moved, in place, into windows
        ``top >= e`` and returned: level lev takes level lev - (top - e) / W,
        or 0. An empty window (``EMPTY_E``) holds zeros, which stay."""
        s = (top - np.where(e == EMPTY_E, top, e)) // self.fmt.W
        k = np.flatnonzero(s)
        src = np.arange(self.L)[:, None] - s[k]
        a[:, k] = np.where(src >= 0, np.take_along_axis(a[:, k], np.maximum(src, 0), 0), 0)
        return a

    def _prepare_windows(self, j: int, slots: np.ndarray, absvals: np.ndarray):
        """Per-batch extractor-validity check (Algorithm 3 line 4): raise the
        windows of ``slots`` (column j) to their values' natural windows,
        level shifts moving int64 deviations exactly; returns each row's
        window, 0 while empty."""
        if slots.size:
            # only the batch's span of slots: partition-ordered input keeps
            # it near the batch size however large the table is
            lo = int(slots.min())
            amax = np.zeros(int(slots.max()) + 1 - lo, self.fmt.dtype)
            np.maximum.at(amax, slots - lo, absvals)
            idx = np.flatnonzero(amax > 0)
            req, idx = self.fmt.top_exponent(amax[idx]), idx + lo
            up = req > self.e_top[j, idx]  # EMPTY_E is below any window
            idx, req = idx[up], req[up]
            for a in (self.dev[j], self.C[j]):
                a[:, idx] = self._aligned(a[:, idx], self.e_top[j, idx], req)
            self.e_top[j, idx] = req
        e = self.e_top[j, slots]
        return np.where(e == EMPTY_E, 0, e)

    # ------------------------------------------------------------- deposits
    def update(self, keys, values, *, fast: bool = True) -> "GroupedBinnedAcc":
        """Deposit a batch of <key, value(s)> pairs.

        ``fast=True`` (default) is the *batch summation* path — the
        performance realisation of the paper's summation buffers in this
        substrate: the batch plays the buffer's role and is one call of
        the compiled deposit loop per value column, which raises each
        value's slot window and deposits its L levels in one pass.
        ``fast=False`` is the per-element NumPy cost model of the drop-in
        ``repro<ScalarT,L>`` type of Section IV (one gather + L generic
        extractions + L scatter-adds per element). Both produce identical
        bits (tested). Values not of shape ``(len(keys), ncols)``, values
        ``_kernels.check_values`` rejects (NaN/Inf, or a magnitude whose
        window lies above the upper guard rail) and keys :meth:`slots_for`
        rejects raise before any state changes. A window below the lower
        rail raises only in ``finalize``/``export_states``, since a later
        value may still raise it, so the split of the input into calls
        changes no outcome.
        """
        keys, vals = np.asarray(keys), np.asarray(values)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape != keys.shape + (self.ncols,):
            raise ValueError(f"values must have shape (len(keys), {self.ncols})")
        # columns contiguous, as the kernel takes them
        vals = np.asfortranarray(vals, dtype=self.fmt.dtype)
        _kernels.check_values(self.fmt, self.L, vals)
        slots = np.ascontiguousarray(self.slots_for(keys))
        # no step of either path exceeds the lazy-renorm budget
        step = _RENORM_EVERY
        for i in range(0, vals.shape[0], step):
            s, v = slots[i:i + step], vals[i:i + step]
            for j in range(self.ncols):
                if fast:
                    _kernels.deposit(self.fmt, self.L, self.e_top[j], self.dev[j],
                                     self.C[j], s, v[:, j])
                else:
                    e = self._prepare_windows(j, s, np.abs(v[:, j]))
                    units = deposit_units(self.fmt, self.L, v[:, j], e)
                    for lev in range(self.L):
                        np.add.at(self.dev[j, lev], s, units[lev])
            self._note_adds(s.size)
        return self

    def _note_adds(self, n: int) -> None:
        # int64 deviations hold >= 2**22 worst-case contributions between
        # renormalisations (2**22 * 2**(W-1) < 2**62 for double).
        self._since_renorm += n
        if self._since_renorm > _RENORM_EVERY:
            self.renorm_all()

    def renorm_all(self) -> None:
        for j in range(self.ncols):
            renorm(self.dev[j], self.C[j], self.fmt)
        self._since_renorm = 0

    # ---------------------------------------------------------------- merge
    def merge_state_rows(self, keys, e_tops, devs, Cs, j: int = 0) -> None:
        """``+=(repro)`` of exported rows ``e_tops (k,)``, ``devs``/``Cs``
        ``(k, L)`` (:meth:`export_states`' layout), at most one per key
        (else ``ValueError``), into column j, as ``_merged`` says.
        ``EMPTY_E`` rows are identities whose keys still appear in the output.
        """
        slots = self.slots_for(keys, grow=False)
        if np.bincount(slots).max(initial=0) > 1:
            raise ValueError("merge_state_rows takes at most one row per key")
        self._store(slots, {j: self._merged(j, slots, e_tops, devs, Cs)})

    def merge(self, other: "GroupedBinnedAcc") -> "GroupedBinnedAcc":
        """``+=(repro)`` of every slot and column of ``other``, which stays."""
        if other.fmt is not self.fmt or other.L != self.L or other.ncols != self.ncols:
            raise TypeError("incompatible accumulators")
        slots = self.slots_for(other.keys(), grow=False)
        self._store(slots, {j: self._merged(j, slots, other.e_top[j], other.dev[j].T,
                                            other.C[j].T) for j in range(self.ncols)})
        return self

    def _merged(self, j: int, slots: np.ndarray, e_tops, devs, Cs):
        """Column j's ``(e_top, dev, C)`` of ``slots`` after ``+=`` of the
        rows, as ``ReproSum.mergeStates`` computes it: a folded copy of
        each row and the slot's state (empty past a growing table's end)
        are aligned to the larger window and added level by level. A carry
        sum that leaves int64 raises ``OverflowError``. Only copies are
        changed, so a merge that raises leaves the table as it was."""
        e_in = np.asarray(e_tops, np.int64)
        d_in, c_in = (np.array(x, np.int64).reshape(-1, self.L).T for x in (devs, Cs))
        renorm(d_in, c_in, self.fmt)
        d_in[:, e_in == EMPTY_E] = c_in[:, e_in == EMPTY_E] = 0  # identities
        old = slots < self.n_slots
        e = np.full(slots.size, EMPTY_E, np.int64)
        d, c = np.zeros_like(d_in), np.zeros_like(c_in)
        e[old], d[:, old], c[:, old] = (a[..., slots[old]] for a in (
            self.e_top[j], self.dev[j], self.C[j]))
        top = np.maximum(e, e_in)  # EMPTY_E is below any window
        self.fmt.check_window(top[top > self.fmt.e_top_max], self.L)
        d, c, d_in, c_in = (self._aligned(x, w, top) for x, w in (
            (d, e), (c, e), (d_in, e_in), (c_in, e_in)))
        _check_add(c, c_in)
        return top, d + d_in, c + c_in

    def _store(self, slots: np.ndarray, merged: dict) -> None:
        """Write ``{j: _merged(j, slots, ...)}`` into ``slots``."""
        self._grow(slots)
        for j, (e, d, c) in merged.items():
            self.e_top[j, slots], self.dev[j][:, slots], self.C[j][:, slots] = e, d, c
        # a folded row adds < 2**(m-2) units to a level: 2**11 deposits' bound
        self._note_adds(1 << 11)

    # ------------------------------------------------------------- export
    def export_states(self, j: int = 0):
        """(keys, e_top, dev (n,L), C (n,L)) — canonical renormalised bits.

        Raises ``ValueError`` if a window lies outside the guard rails.
        """
        self.fmt.check_window(self.e_top, self.L)
        self.renorm_all()
        return self.keys(), self.e_top[j].copy(), self.dev[j].T.copy(), self.C[j].T.copy()

    def finalize(self) -> np.ndarray:
        """Per-slot rounded sums, shape (n_slots, ncols) in the format dtype.

        One pass of the compiled kernel per column renormalises the state
        and rounds it, bit for bit ``finalize_state``. Raises
        ``ValueError`` if a window lies outside the guard rails.
        """
        out = np.empty((self.n_slots, self.ncols), self.fmt.dtype)
        for j in range(self.ncols):
            _kernels.finalize(self.fmt, self.L, self.e_top[j], self.dev[j],
                              self.C[j], out[:, j])
        self._since_renorm = 0
        return out
