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
  shared global grid and adds exactly.

State layout (per group, per value column): window top exponent
``e_top`` (``EMPTY_E`` until a nonzero value is seen), ``dev[L]`` — the
running sum's deviation from ``1.5*ufp`` in integer grid units — and
carry counters ``C[L]`` (units of ``0.25*ufp``, the paper's carry-bit
count). ``S^(l) = 1.5*2**(e_l) + dev_l * 2**(e_l - m)``; the paper's
invariant ``S in [1.5, 1.75)*ufp(S)`` is ``dev in [0, 2**(m-2))``.
Keeping ``dev``/``C`` as int64 makes every accumulation step exact by
construction; renormalisation (the paper's carry-bit propagation) is a
presentation-layer step performed before export/merge/finalise. The
float-state reference of Algorithm 2 lives in ``rsum_scalar.py`` and is
tested to agree bit-for-bit.
"""
from __future__ import annotations

import numpy as np

from . import _kernels
from .params import EMPTY_E, FloatFormat, fmt_for

__all__ = [
    "deposit_units",
    "renorm",
    "finalize_state",
    "BinnedSum",
    "GroupedBinnedAcc",
]


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
    carry counter. Floor division handles negative deviations (mixed
    signs in the input) exactly.
    """
    cap = np.int64(1) << (fmt.m - 2)
    carry = np.floor_divide(dev, cap)
    C += carry
    dev -= carry * cap


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


def _rank_within(slots: np.ndarray) -> np.ndarray:
    """Each row's rank among the rows of the same slot, in row order."""
    order = np.argsort(slots, kind="stable")
    s = slots[order]
    start = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    rank = np.empty(s.size, np.int64)
    rank[order] = np.arange(s.size) - np.repeat(start, np.diff(np.r_[start, s.size]))
    return rank


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
        self._acc.update_slots(np.zeros(v.size, np.int64), v)
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

    * :meth:`update` / :meth:`update_slots` with ``fast=True`` — the
      compiled deposit loop of ``_kernels.c``, one call per batch;
    * ``fast=False`` — the *unbuffered* NumPy path: one gather + L
      extractions + L scatter-adds **per element**, mirroring the cost
      profile of using ``repro<ScalarT,L>`` as a drop-in aggregate type
      (paper Section IV / Figure 4).

    Keys are slot ids: ints in ``[0, n_slots)`` (the paper's
    IDENTITYHASHING setup; no lookup cost). A table built with
    ``dense_n_groups`` has that many slots; one built without grows to
    its largest key. Callers with other keys factorise them first.
    """

    def __init__(self, *, L: int = 2, dtype=np.float64, ncols: int = 1,
                 dense_n_groups: int | None = None):
        if L < 1 or ncols < 1:
            raise ValueError("L and ncols must be >= 1")
        self.fmt = fmt_for(dtype)
        self.L = L
        self.ncols = ncols
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

    def _grow(self, add: int) -> None:
        """Append ``add`` empty slots, the slot ids that follow."""
        if add <= 0:
            return
        self.e_top = np.concatenate(
            [self.e_top, np.full((self.ncols, add), EMPTY_E, np.int64)], axis=1
        )
        self.dev = np.concatenate(
            [self.dev, np.zeros((self.ncols, self.L, add), np.int64)], axis=2
        )
        self.C = np.concatenate(
            [self.C, np.zeros((self.ncols, self.L, add), np.int64)], axis=2
        )

    def slots_for(self, keys) -> np.ndarray:
        """Integer ``keys`` as int64 slot ids; a growing table first grows
        to its largest key. Raises ``TypeError`` for keys that are not
        integers and ``IndexError`` for a negative key."""
        keys = np.asarray(keys)
        if keys.size == 0:
            return keys.astype(np.int64)
        if keys.dtype.kind not in "iu":
            raise TypeError(f"keys must be integer slot ids, not {keys.dtype}")
        slots = keys.astype(np.int64, copy=False)
        if slots.min() < 0:
            raise IndexError(f"slot {slots.min()} is negative")
        if self._grows:
            self._grow(int(slots.max()) + 1 - self.n_slots)
        return slots

    # -------------------------------------------------------------- windows
    def _raise_windows(self, j: int, idx: np.ndarray, req: np.ndarray) -> None:
        """Raise windows of slots ``idx`` (column j) to at least ``req``.

        Level shifts move int64 deviations between levels exactly.
        """
        cur = self.e_top[j, idx]
        empty = cur == EMPTY_E
        self.e_top[j, idx[empty]] = req[empty]
        liveidx = idx[~empty]
        livereq = req[~empty]
        livecur = cur[~empty]
        need = livereq > livecur
        if np.any(need):
            ii = liveidx[need]
            s = (livereq[need] - livecur[need]) // self.fmt.W
            for sv in np.unique(s):
                sel = ii[s == sv]
                if sv >= self.L:
                    self.dev[j][:, sel] = 0
                    self.C[j][:, sel] = 0
                else:
                    self.dev[j][sv:, sel] = self.dev[j][: self.L - sv, sel]
                    self.dev[j][:sv, sel] = 0
                    self.C[j][sv:, sel] = self.C[j][: self.L - sv, sel]
                    self.C[j][:sv, sel] = 0
            self.e_top[j, ii] = livereq[need]
        # only the upper rail: a later raise may still lift a window above
        # the lower one, so that is checked on the final windows
        e = self.e_top[j, idx]
        self.fmt.check_window(e[e > self.fmt.e_top_max], self.L)

    def _prepare_windows(self, j: int, slots: np.ndarray, absvals: np.ndarray):
        """Per-batch extractor-validity check (Algorithm 3 line 4)."""
        if slots.size:
            # only the batch's span of slots: partition-ordered input keeps
            # it near the batch size however large the table is
            lo = int(slots.min())
            amax = np.zeros(int(slots.max()) + 1 - lo, self.fmt.dtype)
            np.maximum.at(amax, slots - lo, absvals)
            idx = np.flatnonzero(amax > 0)
            if idx.size:
                req = self.fmt.top_exponent(amax[idx])
                self._raise_windows(j, idx + lo, req)
        e = self.e_top[j, slots]
        return np.where(e == EMPTY_E, 0, e)

    # ------------------------------------------------------------- deposits
    def update(self, keys, values, *, fast: bool = True) -> "GroupedBinnedAcc":
        """Deposit a batch of <key, value(s)> pairs.

        ``fast=True`` (default) is the *batch summation* path — the
        performance realisation of the paper's summation buffers in this
        substrate: the batch plays the buffer's role and is one call of
        the compiled deposit loop per value column, which raises the
        batch's windows and then deposits every value's L levels.
        ``fast=False`` is the per-element NumPy cost model of the drop-in
        ``repro<ScalarT,L>`` type of Section IV (one gather + L generic
        extractions + L scatter-adds per element). Both produce identical
        bits (tested). A batch holding NaN/Inf raises before any state
        changes. A window above the upper guard rail raises here; one below
        the lower rail raises only in ``finalize``/``export_states``, since
        a later value may still raise it, so the split of the input into
        calls changes no outcome.
        """
        vals = np.asarray(values)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[1] != self.ncols:
            raise ValueError(f"expected {self.ncols} value columns")
        slots = self.slots_for(keys)
        self.update_slots(slots, vals, fast=fast)
        return self

    def update_slots(self, slots: np.ndarray, vals: np.ndarray, *,
                     fast: bool = True) -> None:
        vals = np.asarray(vals)
        if vals.ndim == 1:
            vals = vals[:, None]
        # columns contiguous, as the kernel takes them
        vals = np.asfortranarray(vals, dtype=self.fmt.dtype)
        _kernels.check_finite(vals)
        n = vals.shape[0]
        if not fast:
            for j in range(self.ncols):
                e = self._prepare_windows(j, slots, np.abs(vals[:, j]))
                units = deposit_units(self.fmt, self.L, vals[:, j], e)
                for lev in range(self.L):
                    np.add.at(self.dev[j, lev], slots, units[lev])
            self._note_adds(n)
            return
        slots = np.ascontiguousarray(slots, np.int64)
        # one kernel call never exceeds the lazy-renorm budget
        step = _RENORM_EVERY
        for i in range(0, n, step):
            for j in range(self.ncols):
                _kernels.deposit(self.fmt, self.L, self.e_top[j], self.dev[j],
                                 self.C[j], slots[i:i + step], vals[i:i + step, j])
            self._note_adds(min(step, n - i))

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
        """Merge exported state rows (possibly several per key) into column j.

        ``e_tops (k,)``, ``devs``/``Cs`` ``(k, L)`` int64 — the layout
        produced by :meth:`export_states`. Rows with
        ``EMPTY_E`` are identity elements and are skipped.
        """
        e_tops = np.asarray(e_tops, np.int64)
        devs = np.asarray(devs, np.int64).reshape(-1, self.L)
        Cs = np.asarray(Cs, np.int64).reshape(-1, self.L)
        liverow = e_tops != EMPTY_E
        if not np.any(liverow):
            # still materialise the keys so they appear in the output
            self.slots_for(np.asarray(keys))
            return
        slots = self.slots_for(np.asarray(keys))
        slots, e_tops, devs, Cs = (
            slots[liverow], e_tops[liverow], devs[liverow], Cs[liverow]
        )
        # target window per touched slot = max(own, all incoming rows)
        tgt = np.full(self.n_slots, EMPTY_E, np.int64)
        np.maximum.at(tgt, slots, e_tops)
        idx = np.flatnonzero(tgt != EMPTY_E)
        self._raise_windows(j, idx, tgt[idx])
        s = (self.e_top[j, slots] - e_tops) // self.fmt.W
        # canonical incoming rows carry < 2**(m-2) units each — 2**11 times
        # a single deposit's bound — so weight them accordingly against the
        # lazy-renorm budget, adding at most 2**11 rows per slot between
        # two checks of it: no int64 sum can wrap, however many rows one
        # slot receives in one call (tested).
        rnd = _rank_within(slots) >> 11
        for r in range(int(rnd.max()) + 1):
            part = rnd == r
            for sv in np.unique(s[part]):
                if sv >= self.L:
                    continue
                sel = np.flatnonzero(part & (s == sv))
                for lev in range(self.L - sv):
                    np.add.at(self.dev[j, lev + sv], slots[sel], devs[sel, lev])
                    np.add.at(self.C[j, lev + sv], slots[sel], Cs[sel, lev])
            self._note_adds(int(part.sum()) << 11)

    # the traced perfbench run reads this; goes after ROADMAP item 1
    def adopt_strided(self, other: "GroupedBinnedAcc", base: int,
                      stride: int) -> None:
        """Adopt ``other``'s slots at positions ``base + i*stride``.

        The transfer phase of a partitioned aggregation with private
        tables (``ReproAcc.merge_from``): each holds *disjoint* groups
        (global key = base + local*stride), so its states can be copied —
        no summation needed. The target slots must be EMPTY.
        """
        other.renorm_all()
        n = min(other.n_slots, (self.n_slots - base + stride - 1) // stride)
        sl = slice(base, base + n * stride, stride)
        if np.any(self.e_top[:, sl] != EMPTY_E):
            raise ValueError("adopt_strided target slots must be empty")
        self.e_top[:, sl] = other.e_top[:, :n]
        self.dev[:, :, sl] = other.dev[:, :, :n]
        self.C[:, :, sl] = other.C[:, :, :n]

    def merge(self, other: "GroupedBinnedAcc") -> "GroupedBinnedAcc":
        if other.fmt is not self.fmt or other.L != self.L or other.ncols != self.ncols:
            raise TypeError("incompatible accumulators")
        other.renorm_all()
        okeys = other.keys()
        for j in range(self.ncols):
            self.merge_state_rows(
                okeys, other.e_top[j], other.dev[j].T, other.C[j].T, j=j
            )
        return self

    # ------------------------------------------------------------- export
    def export_states(self, j: int = 0):
        """(keys, e_top, dev (n,L), C (n,L)) — canonical renormalised bits.

        Raises ``ValueError`` if a window lies outside the guard rails.
        """
        self.fmt.check_window(self.e_top, self.L)
        self.renorm_all()
        return (
            self.keys(),
            self.e_top[j].copy(),
            self.dev[j].T.copy(),
            self.C[j].T.copy(),
        )

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
