"""Algorithm 2 (RSUM SCALAR) — faithful float-state, per-element reference.

This is the paper's scalar reproducible summation, kept as the bit-level
ground truth for the vectorized kernels in :mod:`repro.core.binned`:

* state = running sums ``S^(l)`` *as floats of the target format* plus
  carry counters ``C^(l)``;
* per element: extractor-validity check (shift levels up when
  ``|b| >= 2**(W-1) * ulp(S^(1))``), L-level error-free transformation,
  then per-element carry-bit propagation restoring
  ``S^(l) in [1.5, 1.75) * ufp(S^(l))``.

Two documented deviations from the paper's text (see DESIGN.md §2):
the extractor ladder is anchored on the global grid (exponents multiple
of W) instead of an arbitrary per-stream ``f``, and extraction is done
against the constant ``M_l = 1.5 * 2**e_l`` rather than the running sum
``S^(l)`` itself. Both choices stay inside the algorithm family the
paper describes ("the only important factor is that the exponent of the
extractor never changes") and make the result a pure function of the
input *multiset* — removing the round-half-even tie dependence on the
parity of the running sum's low bits, which is what lets independently
built states merge bit-exactly.
"""
from __future__ import annotations

import numpy as np

from .binned import finalize_state
from .params import EMPTY_E, fmt_for

__all__ = ["RsumScalar"]


class RsumScalar:
    """Per-element reproducible summation in ``dtype`` float arithmetic."""

    def __init__(self, L: int = 2, dtype=np.float64):
        if L < 1:
            raise ValueError("L must be >= 1")
        self.fmt = fmt_for(dtype)
        self.L = L
        self.e_top: int = EMPTY_E
        self.S: np.ndarray | None = None  # float running sums, format dtype
        self.C = np.zeros(L, np.int64)

    def _init_window(self, e: int) -> None:
        t = self.fmt.dtype.type
        self.e_top = e
        self.S = np.array(
            [np.ldexp(t(1.5), np.int32(e - lev * self.fmt.W)) for lev in range(self.L)],
            dtype=self.fmt.dtype,
        )

    def add(self, b) -> "RsumScalar":
        fmt = self.fmt
        t = fmt.dtype.type
        b = t(b)
        if not np.isfinite(b):
            raise ValueError("reproducible summation is defined for finite inputs")
        if b == 0:
            return self
        if self.S is None:
            e = int(fmt.top_exponent(abs(b)))
            self._check_top(e)
            self._init_window(e)
        # Extractor validity (Alg. 2 lines 3–7): shift levels up while the
        # first level cannot hold this value's contribution.
        while abs(b) >= np.ldexp(t(1), np.int32(self.e_top - fmt.m + fmt.W - 1)):
            self._check_top(self.e_top + fmt.W)
            self.S[1:] = self.S[: self.L - 1]
            self.C[1:] = self.C[: self.L - 1]
            self.e_top += fmt.W
            self.S[0] = np.ldexp(t(1.5), np.int32(self.e_top))
            self.C[0] = 0
        # Load & transform (lines 8–13), extractors M_l = 1.5 * 2**e_l.
        r = b
        for lev in self._levels():
            e_l = self.e_top - lev * fmt.W
            M = np.ldexp(t(1.5), np.int32(e_l))
            q = t(t(r + M) - M)
            self.S[lev] = t(self.S[lev] + q)  # exact: same-grid multiples
            r = t(r - q)  # exact remainder
        # Carry-bit propagation (lines 14–18), per element.
        for lev in self._levels():
            e_l = self.e_top - lev * fmt.W
            u = np.ldexp(t(1), np.int32(e_l))  # ufp(S^(l)) = 2**e_l
            devf = t(self.S[lev] - t(1.5) * u)  # exact: S - 1.5*ufp
            k = int(np.ldexp(devf, np.int32(fmt.m - e_l)))  # grid units, exact
            d = k >> (fmt.m - 2)  # floor multiple of 0.25*ufp
            if d:
                self.S[lev] = t(self.S[lev] - np.ldexp(t(d), np.int32(e_l - 2)))
                self.C[lev] += d
        return self

    def _check_top(self, e: int) -> None:
        # only the upper rail: a later value may still lift the window
        # above the lower one, so that is checked on the final window
        if e > self.fmt.e_top_max:
            self.fmt.check_window(e, self.L)

    def _levels(self) -> range:
        """The levels whose exponent is at or above ``e_bot_min``.

        Lower levels are skipped, as the compiled deposit skips them:
        their extractor would not be a normal number, and any raise that
        makes the window legal shifts them out.
        """
        return range(min(self.L, (self.e_top - self.fmt.e_bot_min) // self.fmt.W + 1))

    def add_many(self, values) -> "RsumScalar":
        for x in np.asarray(values).ravel():
            self.add(x)
        return self

    def state(self):
        """(e_top, dev, C) in the integer-unit canonical layout of binned.py.

        Raises ``ValueError`` if the window lies outside the guard rails.
        """
        if self.S is None:
            return EMPTY_E, np.zeros(self.L, np.int64), self.C.copy()
        self.fmt.check_window(self.e_top, self.L)
        t = self.fmt.dtype.type
        dev = np.empty(self.L, np.int64)
        for lev in range(self.L):
            e_l = self.e_top - lev * self.fmt.W
            u = np.ldexp(t(1), np.int32(e_l))
            devf = t(self.S[lev] - t(1.5) * u)
            dev[lev] = int(np.ldexp(devf, np.int32(self.fmt.m - e_l)))
        return self.e_top, dev, self.C.copy()

    def finalize(self):
        e, d, c = self.state()
        return self.fmt.dtype.type(
            finalize_state(self.fmt, self.L, np.asarray([e]), d[:, None], c[:, None])[0]
        )
