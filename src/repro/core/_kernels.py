"""Compiled kernels (``_kernels.c``) through ctypes.

The buffered deposit, its finalize, the finiteness scan before it and the
radix partition.

The C source is compiled on first use with ``cc`` into
``__pycache__/_kernels-<hash of source and flags>.so`` by the
compile-once cache of :mod:`repro._build`, which Spark's Python workers
may enter at the same time. A C compiler on ``PATH`` is therefore a
requirement of every ``GroupedBinnedAcc`` deposit and finalize and of the
radix partition; there is no fallback.

Each kernel call runs on ``threads(rows)`` POSIX threads, worked out
from the call's own input; the thread count changes no result bit.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
from pathlib import Path

import numpy as np

from .. import _build
from .params import FloatFormat

_SRC = Path(__file__).with_name("_kernels.c")
_CACHE = Path(__file__).with_name("__pycache__")
# no -ffast-math or -march=native: the deposit must round as written
_CFLAGS = ("-O2", "-shared", "-fPIC", "-pthread", "-ffp-contract=off")

#: rows (or slots) per kernel thread, at least, so that starting a thread
#: stays a small share of the thread's work
_ROWS_PER_THREAD = 1 << 16
#: threads per kernel call, at most (MAX_THREADS in _kernels.c)
_MAX_THREADS = 64
#: bytes in a cache line (LINE in _kernels.c)
_LINE = 64

_DEP_NONFINITE, _DEP_RANGE, _DEP_SLOT = 1, 2, 3


def _artifact(cache_dir: Path = _CACHE) -> Path:
    """Path of the compiled kernels in ``cache_dir``, compiling if missing."""
    src = _SRC.read_bytes()
    tag = hashlib.sha256(src + " ".join(_CFLAGS).encode()).hexdigest()[:16]

    def build(tmp: Path) -> Path:
        so = tmp / "_kernels.so"
        # compile the bytes that were hashed, read from stdin
        _build.run(["cc", *_CFLAGS, "-o", str(so), "-x", "c", "-"],
                   f"compiling {_SRC.name}",
                   f"repro needs a C compiler on PATH to build {_SRC.name}", src)
        return so

    return _build.cached(Path(cache_dir) / f"_kernels-{tag}.so", build)


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    for name, args, res in (
            ("deposit", [i64, ptr, ptr, *[i64] * 5, ptr, ptr, ptr, i64, ptr], ctypes.c_int),
            ("finalize", [*[i64] * 5, ptr, ptr, ptr, ptr, i64, i64, ptr], ctypes.c_int),
            ("first_nonfinite", [i64, ptr, i64], i64)):
        for f in (getattr(lib, f"repro_{name}_f64"), getattr(lib, f"repro_{name}_f32")):
            f.argtypes, f.restype = args, res
    lib.repro_partition.argtypes = [i64, ptr, ptr, i64, i64, i64, ptr, ptr, ptr,
                                    i64, ptr, ptr]
    lib.repro_partition.restype = None
    return lib


def threads(rows: int) -> int:
    """Threads a kernel call over ``rows`` rows (or slots) runs on.

    One per CPU this process may run on (its affinity, read on every
    call), at most one per ``_ROWS_PER_THREAD`` rows and at most
    ``_MAX_THREADS``, at least one.
    """
    return max(1, min(len(os.sched_getaffinity(0)), rows // _ROWS_PER_THREAD,
                      _MAX_THREADS))


@functools.cache
def _lib() -> ctypes.CDLL:
    return _declare(ctypes.CDLL(str(_artifact())))


def _kernel(name: str, dtype):
    """``repro_<name>_f64`` or ``repro_<name>_f32``, after ``dtype``."""
    return getattr(_lib(), f"repro_{name}_{'f64' if dtype == np.float64 else 'f32'}")


def _slots(L: int, e_top: np.ndarray, dev: np.ndarray, C: np.ndarray) -> int:
    """The slot count of one column's state, which must be C-contiguous
    int64 arrays ``e_top (n_slots,)``, ``dev``/``C`` ``(L, n_slots)``."""
    ns = e_top.shape[0]
    for a, shape in ((e_top, (ns,)), (dev, (L, ns)), (C, (L, ns))):
        if a.dtype != np.int64 or a.shape != shape or not a.flags.c_contiguous:
            raise ValueError(f"state array must be C-contiguous int64 of shape {shape}")
    return ns


def _nonfinite(x) -> ValueError:
    return ValueError("reproducible summation is defined for finite inputs only "
                      f"(got {x})")


def _raise_window(fmt: FloatFormat, L: int, e: int, kernel: str):
    """Raise for the window ``e`` a kernel rejected, with the range."""
    fmt.check_window(np.array([e]), L)
    raise RuntimeError(f"{kernel} kernel rejected window {e}")


def deposit(fmt: FloatFormat, L: int, e_top: np.ndarray, dev: np.ndarray,
            C: np.ndarray, slots: np.ndarray, v: np.ndarray) -> None:
    """Deposit ``v[i]`` into slot ``slots[i]`` of one column's state, in place.

    ``e_top (n_slots,)``, ``dev``/``C`` ``(L, n_slots)``: one value
    column of ``GroupedBinnedAcc``. Raises ``ValueError`` for NaN/Inf or
    a window outside the format's range, ``IndexError`` for a slot id
    outside ``[0, n_slots)``; the first such row in row order is the one
    reported, whatever the thread count. Rows ordered on their slots'
    high bits (partition-ordered or key-sorted) are deposited on
    ``threads(len(v))`` threads; other rows on one.
    """
    ns = _slots(L, e_top, dev, C)
    slots = np.ascontiguousarray(slots, np.int64)
    v = np.ascontiguousarray(v, fmt.dtype)
    if slots.shape != v.shape or v.ndim != 1:
        raise ValueError("slots and values must be 1-D of the same length")
    bad = ctypes.c_int64(0)
    rc = _kernel("deposit", fmt.dtype)(
        v.size, v.ctypes.data, slots.ctypes.data, ns, L, fmt.W, fmt.e_top_max,
        fmt.e_bot_min, e_top.ctypes.data, dev.ctypes.data, C.ctypes.data,
        threads(v.size), ctypes.byref(bad))
    if rc == _DEP_NONFINITE:
        raise _nonfinite(v[bad.value])
    if rc == _DEP_RANGE:
        _raise_window(fmt, L, bad.value, "deposit")
    if rc == _DEP_SLOT:
        raise IndexError(f"slot {slots[bad.value]} out of range for {ns} slots")


def finalize(fmt: FloatFormat, L: int, e_top: np.ndarray, dev: np.ndarray,
             C: np.ndarray, out: np.ndarray) -> None:
    """Renormalise one column's state in place and round it into ``out``.

    ``out (n_slots,)`` in the format's dtype, any stride; bit for bit
    ``finalize_state`` after ``renorm``, on ``threads(n_slots)`` threads.
    Raises ``ValueError`` for a live window outside the format's range.
    """
    ns = _slots(L, e_top, dev, C)
    if out.dtype != fmt.dtype or out.shape != (ns,):
        raise ValueError(f"out must be {fmt.dtype.name} of shape ({ns},)")
    bad = ctypes.c_int64(0)
    rc = _kernel("finalize", fmt.dtype)(
        ns, L, fmt.W, fmt.e_top_max, fmt.e_bot_min, e_top.ctypes.data,
        dev.ctypes.data, C.ctypes.data, out.ctypes.data,
        out.strides[0] // out.itemsize, threads(ns), ctypes.byref(bad))
    if rc == _DEP_RANGE:
        _raise_window(fmt, L, bad.value, "finalize")


def first_nonfinite(v: np.ndarray) -> int:
    """Index of the first NaN or Inf of ``v`` in memory order, ``v.size`` if none.

    ``v``: a C- or Fortran-contiguous float32 or float64 array. Scans on
    ``threads(v.size)`` threads and allocates nothing per element.
    """
    if v.dtype not in (np.float32, np.float64) or not (
            v.flags.c_contiguous or v.flags.f_contiguous):
        raise ValueError("expected a contiguous float32 or float64 array")
    return _kernel("first_nonfinite", v.dtype)(v.size, v.ctypes.data, threads(v.size))


def check_finite(v: np.ndarray) -> None:
    """Raise ``ValueError``, naming the value, unless every value of ``v``
    (as :func:`first_nonfinite` takes it) is finite."""
    i = first_nonfinite(v)
    if i < v.size:
        raise _nonfinite(v.ravel(order="K")[i])


def partition(keys: np.ndarray, values: np.ndarray, F: int, shift: int = 0,
              *, out: tuple[np.ndarray, np.ndarray] | None = None):
    """Stable counting sort of ``(keys, values)`` rows on ``(key >> shift) & (F-1)``.

    Runs on ``threads(len(keys))`` threads; the output is the same for
    any thread count. Returns ``(keys_part, values_part, bounds)``: the
    rows grouped by partition, in input order within each, and
    ``bounds (F + 1,)`` int64, so partition ``p`` occupies
    ``slice(bounds[p], bounds[p + 1])``. Any int64 key routes to a
    partition in ``[0, F)``, so keys are not checked here.

    ``out=(keys_out, values_out)`` receives the rows instead of two new
    arrays, which are then returned: C-contiguous, of the shape and dtype
    of the (int64) keys and of the values, sharing no memory with the
    input or with each other (else ``ValueError``). The kernel writes the
    output a cache line at a time with streaming stores, so memory that
    is already mapped, such as a reused ``out``, takes it fastest.
    """
    if F < 1 or F & (F - 1):
        raise ValueError("fan-out must be a power of two")
    keys = np.ascontiguousarray(keys, np.int64)
    values = np.ascontiguousarray(values)
    if keys.ndim != 1 or values.ndim == 0 or values.shape[0] != keys.size:
        raise ValueError("keys must be 1-D and values must have one row per key")
    if values.dtype.hasobject:
        raise TypeError("values must be a numeric array, not object dtype")
    if out is None:
        out_k, out_v = np.empty_like(keys), np.empty_like(values)
    else:
        out_k, out_v = out
        _check_out(out_k, keys, "keys")
        _check_out(out_v, values, "values")
        if any(np.may_share_memory(a, b) for a, b in (
                (out_k, out_v), (out_k, keys), (out_k, values),
                (out_v, keys), (out_v, values))):
            raise ValueError("out must share no memory with the input or itself")
    # not values.strides[0]: NumPy gives a one-row array any row stride
    row_bytes = values.itemsize * math.prod(values.shape[1:])
    bounds = np.empty(F + 1, np.int64)
    T = threads(keys.size)
    hist = np.empty((T, 2, F), np.int64)
    lines = np.empty(T * 2 * F * _LINE + _LINE, np.uint8)  # + _LINE to align
    _lib().repro_partition(
        keys.size, keys.ctypes.data, values.ctypes.data, row_bytes, F,
        shift, out_k.ctypes.data, out_v.ctypes.data, bounds.ctypes.data,
        T, hist.ctypes.data, lines.ctypes.data)
    return out_k, out_v, bounds


def _check_out(o: np.ndarray, like: np.ndarray, name: str) -> None:
    if not (isinstance(o, np.ndarray) and o.dtype == like.dtype
            and o.shape == like.shape and o.flags.c_contiguous):
        raise ValueError(f"out for the {name} must be a C-contiguous "
                         f"{like.dtype.name} array of shape {like.shape}")
