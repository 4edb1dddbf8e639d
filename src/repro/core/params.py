"""Floating-point format parameters and the global bin grid.

The paper (Section III) works with values ``x = M * 2**E``, ``M in [1,2)``,
``m`` explicit fraction bits, so ``ufp(x) = 2**E`` and ``ulp(x) = 2**(E-m)``.
Reproducible summation splits every input into per-*level* contributions
against a ladder of extractors whose exponents are spaced ``W`` apart
(``W = 40`` for double, ``W = 18`` for single, the paper's choices).

Unlike the paper's Algorithm 2 — which anchors the first extractor at an
arbitrary ``f`` derived from the first input value — we anchor the ladder
on a *global grid*: admissible extractor exponents are the integer
multiples of ``W``. This is what the Demmel–Nguyen binned format does and
it is what makes two independently-built summation states mergeable
bit-exactly (Spark partial aggregates meet after a shuffle in arbitrary
order). See DESIGN.md §2.
"""
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FloatFormat",
    "FORMATS",
    "fmt_for",
    "ufp",
    "ulp",
    "EMPTY_E",
]

#: Sentinel "window not initialised" top-bin exponent (state of an
#: accumulator that has only ever seen zeros, or nothing at all).
EMPTY_E = np.iinfo(np.int64).min


@dataclass(frozen=True)
class FloatFormat:
    """Constants of one IEEE format plus the paper's tuning parameters.

    Attributes
    ----------
    dtype : the NumPy scalar dtype (float32 or float64).
    m : number of explicit fraction bits (52 / 23), so ``ulp = 2**(E-m)``.
    W : log2 ratio of two consecutive extractors (paper: 40 / 18).
    NB : block size between carry-bit propagations in the faithful
        float-state algorithm, ``2**(m-W-1)`` (paper Section III-D; the
        printed bound ``NB <= 2**(-m-W-1)`` is a sign typo).
    e_top_max / e_bot_min : guard rails on admissible window exponents so
        extractors ``1.5*2**e`` stay normal and finite.
    """

    dtype: np.dtype
    m: int
    W: int
    NB: int
    e_top_max: int
    e_bot_min: int

    @property
    def itemsize(self) -> int:
        return np.dtype(self.dtype).itemsize

    @property
    def max_L(self) -> int:
        """The most levels whose lowest extractor ``1.5*2**(m-(L-1)*W)``
        is a normal number: 27 for double, 9 for single."""
        return 1 + (self.m - np.finfo(self.dtype).minexp) // self.W

    @property
    def abs_limit(self):
        """The smallest magnitude whose natural window lies above the upper
        rail: ``2**987`` for double, ``2**102`` for single. Every finite
        value below it has a window at most ``e_top_max``."""
        e = self.e_top_max // self.W * self.W  # the highest window allowed
        return np.ldexp(self.dtype.type(1), e - self.m + self.W - 1)

    def check_L(self, L: int) -> None:
        """Raise ``ValueError`` unless ``1 <= L <= max_L``."""
        if not 1 <= L <= self.max_L:
            raise ValueError(f"L={L} is outside [1, {self.max_L}], the levels whose "
                             f"extractors are normal {self.dtype.name} numbers")

    def extractor(self, e):
        """The level extractor ``M = 1.5 * 2**e`` in this format.

        ``M / ulp(M) = 1.5 * 2**m = 3 * 2**(m-1)`` is even, so extraction
        against ``M`` resolves round-half-even ties exactly like rounding
        the bare value on the grid — a pure function of (value, e), which
        is the root of order-independence (DESIGN.md §2).
        """
        return np.ldexp(self.dtype.type(1.5), np.asarray(e, np.int32))

    def top_exponent(self, absmax):
        """Natural top-bin exponent for values bounded by ``absmax``.

        Smallest grid exponent ``e`` (multiple of W) with
        ``absmax < 2**(e - m + W - 1)`` — the strict deposit threshold of
        Algorithm 2 line 4 (``while |b| >= 2**(W-1) * ulp(S1)`` shifts up).
        Vectorized; ``absmax`` must be > 0 and finite.
        """
        a = np.asarray(absmax)
        _, efr = np.frexp(a)  # |b| in [2**(efr-1), 2**efr)
        e_req = efr.astype(np.int64) + (self.m - self.W + 1)
        return -(-e_req // self.W) * self.W  # ceil to grid

    def check_window(self, e_top, L: int) -> None:
        """Raise if a window at ``e_top`` with L levels leaves the safe range."""
        e = np.asarray(e_top)
        live = e != EMPTY_E
        if np.any(e[live] > self.e_top_max) or np.any(
            e[live] - (L - 1) * self.W < self.e_bot_min
        ):
            raise ValueError(
                f"value magnitude outside supported range for "
                f"{np.dtype(self.dtype).name} with L={L}: window top "
                f"exponents {np.unique(e[live])} must lie in "
                f"[{self.e_bot_min + (L - 1) * self.W}, {self.e_top_max}]"
            )


FORMATS = {
    np.dtype(np.float64): FloatFormat(
        dtype=np.dtype(np.float64),
        m=52,
        W=40,
        NB=2 ** (52 - 40 - 1),
        e_top_max=1000,
        e_bot_min=-1000,
    ),
    np.dtype(np.float32): FloatFormat(
        dtype=np.dtype(np.float32),
        m=23,
        W=18,
        NB=2 ** (23 - 18 - 1),
        e_top_max=120,
        e_bot_min=-126,
    ),
}


def fmt_for(dtype) -> FloatFormat:
    """Look up the :class:`FloatFormat` for a dtype-like argument."""
    dt = np.dtype(dtype)
    if dt not in FORMATS:
        raise TypeError(f"unsupported dtype {dt}; use float32 or float64")
    return FORMATS[dt]


def ufp(x):
    """Unit in the first place: ``2**E`` for ``x = M * 2**E``, M in [1,2).

    Defined for x != 0 (Goldberg [21] via the paper Section III-A).
    Vectorized; preserves the input float dtype.
    """
    xa = np.asarray(x)
    _, e = np.frexp(np.abs(xa))
    return np.ldexp(np.ones_like(xa), (e - 1).astype(np.int32))


def ulp(x, fmt: FloatFormat | None = None):
    """Unit in the last place: ``2**(E-m)`` for ``x = M * 2**E``."""
    xa = np.asarray(x)
    f = fmt if fmt is not None else fmt_for(xa.dtype)
    _, e = np.frexp(np.abs(xa))
    return np.ldexp(np.ones_like(xa), (e - 1 - f.m).astype(np.int32))
