"""Compiled kernels (``_kernels.c``) through ctypes.

The buffered deposit, its finalize, the value scan before it and the
radix partition.

The C source is compiled on first use with ``cc`` into
``__pycache__/_kernels-<hash of source and flags>.so`` by the
compile-once cache of :mod:`repro._build`, which Spark's Python workers
may enter at the same time. A C compiler on ``PATH`` is therefore a
requirement of every ``GroupedBinnedAcc`` deposit and finalize and of the
radix partition; there is no fallback.

Each kernel call cuts its rows (or slots) into ``morsels(rows)``
contiguous morsels and runs on ``threads(rows)`` POSIX threads, one per
usable CPU and at most one per morsel, each taking the next morsel until
none is left; both counts are worked out from the call's own input and
change no result bit.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
from pathlib import Path

import numpy as np

from .. import _build
from .params import FloatFormat

_SRC = Path(__file__).with_name("_kernels.c")
_CACHE = Path(__file__).with_name("__pycache__")
# no -ffast-math or -march=native: the deposit must round as written
_CFLAGS = ("-O2", "-shared", "-fPIC", "-pthread", "-ffp-contract=off")

#: rows (or slots) per morsel, at least, so that starting the thread that
#: takes it stays a small share of the morsel's work
_ROWS_PER_MORSEL = 1 << 16
#: morsels per kernel call, at most (MAX_MORSELS in _kernels.c)
_MAX_MORSELS = 64
#: morsels times fan-out of one partition call, at most, unless that leaves
#: fewer morsels than threads: it bounds the (M, 2, F) counters (2 MiB at
#: F = 4096)
_PART_COUNTERS = 1 << 17
#: bytes in a cache line (LINE in _kernels.c)
_LINE = 64

_DEP_RANGE, _DEP_OVERFLOW = 1, 3


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
            ("deposit", [i64, ptr, ptr, *[i64] * 3, ptr, ptr, ptr, i64, i64, ptr], i64),
            ("finalize", [*[i64] * 4, ptr, ptr, ptr, ptr, i64, i64, i64, ptr], ctypes.c_int),
            ("first_outside", [i64, ptr, i64, i64, i64], i64)):
        for f in (getattr(lib, f"repro_{name}_f64"), getattr(lib, f"repro_{name}_f32")):
            f.argtypes, f.restype = args, res
    lib.repro_partition.argtypes = [i64, ptr, ptr, i64, i64, i64, ptr, ptr, ptr,
                                    i64, i64, ptr, ptr]
    lib.repro_partition.restype = None
    return lib


def threads(rows: int) -> int:
    """Threads a kernel call over ``rows`` rows (or slots) runs on.

    One per CPU this process may run on (its affinity, read on every
    call) and at most one per :func:`morsels` of the call, each taking
    the next morsel until none is left.
    """
    return min(len(os.sched_getaffinity(0)), morsels(rows))


def morsels(rows: int) -> int:
    """Morsels a kernel call over ``rows`` rows (or slots) cuts them into.

    One per ``_ROWS_PER_MORSEL`` rows, at most ``_MAX_MORSELS``, at least
    one. Threads take the next morsel until none is left, so a thread the
    host slows takes fewer and does not hold up the call.
    """
    return max(1, min(rows // _ROWS_PER_MORSEL, _MAX_MORSELS))


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


def nonfinite_error(x) -> ValueError:
    return ValueError("reproducible summation is defined for finite inputs only "
                      f"(got {x})")


def key_error(key, n: int) -> IndexError:
    return IndexError(f"key {key} is out of range [0, {n})")


def integer_keys(keys) -> np.ndarray:
    """``keys`` as an array; ``TypeError`` unless it is empty or integer."""
    keys = np.asarray(keys)
    if keys.size and keys.dtype.kind not in "iu":
        raise TypeError(f"keys must be integer slot ids, not {keys.dtype}")
    return keys


def pairs(keys, values) -> tuple[np.ndarray, np.ndarray]:
    """``keys`` and ``values`` as arrays; ``ValueError`` unless both are
    1-D and of one length."""
    keys, values = np.asarray(keys), np.asarray(values)
    if keys.ndim != 1 or values.shape != keys.shape:
        raise ValueError("keys and values must be 1-D and of one length")
    return keys, values


def overflow_error() -> OverflowError:
    return OverflowError("a group's level sum exceeds the range of int64; "
                         "split the group")


def _raise_window(fmt: FloatFormat, L: int, e: int, kernel: str):
    """Raise for the window ``e`` a kernel rejected, with the range."""
    fmt.check_window(np.array([e]), L)
    raise RuntimeError(f"{kernel} kernel rejected window {e}")


def deposit(fmt: FloatFormat, L: int, e_top: np.ndarray, dev: np.ndarray,
            C: np.ndarray, slots: np.ndarray, v: np.ndarray) -> int:
    """Deposit ``v[i]`` into slot ``slots[i]`` of one column's state, in place.

    ``e_top (n_slots,)``, ``dev``/``C`` ``(L, n_slots)``: one value
    column of ``GroupedBinnedAcc``. The values must have passed
    :func:`check_values`; they are not checked again. Raises
    ``IndexError`` for a slot id outside ``[0, n_slots)``, naming the
    first such row in row order whatever the thread and morsel counts,
    before the state changes. Rows ordered on their slots' high bits
    (partition-ordered or key-sorted) are deposited as up to
    ``morsels(len(v))`` morsels of slots on ``threads(len(v))`` threads;
    other rows as one morsel on one thread. Returns the morsels deposited.
    """
    ns = _slots(L, e_top, dev, C)
    slots = np.ascontiguousarray(slots, np.int64)
    v = np.ascontiguousarray(v, fmt.dtype)
    if slots.shape != v.shape or v.ndim != 1:
        raise ValueError("slots and values must be 1-D of the same length")
    bad = ctypes.c_int64(0)
    ran = _kernel("deposit", fmt.dtype)(
        v.size, v.ctypes.data, slots.ctypes.data, ns, L, fmt.e_bot_min,
        e_top.ctypes.data, dev.ctypes.data, C.ctypes.data, threads(v.size),
        morsels(v.size), ctypes.byref(bad))
    if ran == 0:
        raise key_error(slots[bad.value], ns)
    return ran


def finalize(fmt: FloatFormat, L: int, e_top: np.ndarray, dev: np.ndarray,
             C: np.ndarray, out: np.ndarray) -> None:
    """Renormalise one column's state in place and round it into ``out``.

    ``out (n_slots,)`` in the format's dtype, any stride; bit for bit
    ``finalize_state`` after ``renorm``, over ``morsels(n_slots)`` morsels
    of slots on ``threads(n_slots)`` threads. Raises ``ValueError`` for a
    live window outside the format's range and ``OverflowError`` for a
    carry sum that leaves int64, for the first such slot in slot order.
    """
    ns = _slots(L, e_top, dev, C)
    if out.dtype != fmt.dtype or out.shape != (ns,):
        raise ValueError(f"out must be {fmt.dtype.name} of shape ({ns},)")
    bad = ctypes.c_int64(0)
    rc = _kernel("finalize", fmt.dtype)(
        ns, L, fmt.e_top_max, fmt.e_bot_min, e_top.ctypes.data,
        dev.ctypes.data, C.ctypes.data, out.ctypes.data,
        out.strides[0] // out.itemsize, threads(ns), morsels(ns), ctypes.byref(bad))
    if rc == _DEP_RANGE:
        _raise_window(fmt, L, bad.value, "finalize")
    if rc == _DEP_OVERFLOW:
        raise overflow_error()


def first_outside(v: np.ndarray, limit) -> int:
    """Index of the first NaN, ±Inf or magnitude ``>= limit`` (finite, > 0)
    of ``v``, a C- or Fortran-contiguous float32 or float64 array, in
    memory order; ``v.size`` if none. Scans ``morsels(v.size)`` morsels on
    ``threads(v.size)`` threads and allocates nothing per element."""
    if v.dtype not in (np.float32, np.float64) or not (
            v.flags.c_contiguous or v.flags.f_contiguous):
        raise ValueError("expected a contiguous float32 or float64 array")
    bits = int(np.array(limit, v.dtype).view(f"u{v.itemsize}"))
    return _kernel("first_outside", v.dtype)(v.size, v.ctypes.data, bits,
                                             threads(v.size), morsels(v.size))


def check_values(fmt: FloatFormat, L: int, v: np.ndarray) -> None:
    """The value check of every deposit: raise ``ValueError`` unless every
    value of ``v`` (as :func:`first_outside` takes it) is finite and below
    ``fmt.abs_limit``. NaN/Inf raise naming the value; a larger magnitude
    raises ``check_window``'s range text for its window at L levels."""
    i = first_outside(v, fmt.abs_limit)
    if i < v.size:
        x = v.ravel(order="K")[i]
        if not np.isfinite(x):
            raise nonfinite_error(x)
        _raise_window(fmt, L, int(fmt.top_exponent(abs(x))), "first_outside")


def partition(keys: np.ndarray, values: np.ndarray, F: int, shift: int = 0,
              *, out: tuple[np.ndarray, np.ndarray] | None = None):
    """Stable counting sort of ``(key, value)`` rows on ``(key >> shift) & (F-1)``.

    Runs over up to ``morsels(len(keys))`` morsels of rows on
    ``threads(len(keys))`` threads; the output is the same for any thread
    or morsel count. Returns ``(keys_part, values_part, bounds)``: the
    rows grouped by partition, in input order within each, and
    ``bounds (F + 1,)`` int64, so partition ``p`` occupies
    ``slice(bounds[p], bounds[p + 1])``. Any int64 key routes to a
    partition in ``[0, F)``, so keys are only checked to be integers
    (else ``TypeError``); uint64 keys are routed on their bits and
    returned as uint64, the others as int64. Keys and values must be 1-D
    and of one length, and the values' elements of 1, 2, 4 or 8 bytes
    (else ``ValueError``): a row is one key and one value.

    ``out=(keys_out, values_out)`` receives the rows instead of two new
    arrays, which are then returned: 1-D, C-contiguous, of the input's
    length and of the dtype of the (int64) keys and of the values, aligned
    to their element size, sharing no memory with the input or with each
    other (else ``ValueError``). The kernel writes the output a cache line at a time
    with streaming stores, so memory that is already mapped, such as a
    reused ``out``, takes it fastest.
    """
    if F < 1 or F & (F - 1):
        raise ValueError("fan-out must be a power of two")
    given, values = pairs(keys, values)
    given = integer_keys(given)
    # uint64 keys are routed on their bits and come back as uint64
    keys = np.ascontiguousarray(
        given.view(np.int64) if given.dtype == np.uint64 else given, np.int64)
    values = np.ascontiguousarray(values)
    if values.dtype.hasobject:
        raise TypeError("values must be a numeric array, not object dtype")
    # whole elements are written: each element size divides the line
    if values.itemsize not in (1, 2, 4, 8):
        raise ValueError("values must have elements of 1, 2, 4 or 8 bytes, "
                         f"not {values.itemsize} ({values.dtype})")
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
    bounds = np.empty(F + 1, np.int64)
    T = threads(keys.size)
    M = min(morsels(keys.size), max(T, _PART_COUNTERS // F))
    hist = np.empty((M, 2, F), np.int64)
    lines = np.empty(T * 2 * F * _LINE + _LINE, np.uint8)  # + _LINE to align
    _lib().repro_partition(
        keys.size, keys.ctypes.data, values.ctypes.data, values.itemsize, F,
        shift, out_k.ctypes.data, out_v.ctypes.data, bounds.ctypes.data, T, M,
        hist.ctypes.data, lines.ctypes.data)
    return (out_k.view(np.uint64) if given.dtype == np.uint64 else out_k), out_v, bounds


def _check_out(o: np.ndarray, like: np.ndarray, name: str) -> None:
    if not (isinstance(o, np.ndarray) and o.dtype == like.dtype
            and o.shape == like.shape and o.flags.c_contiguous
            and o.ctypes.data % o.itemsize == 0):
        raise ValueError(f"out for the {name} must be a C-contiguous "
                         f"{like.dtype.name} array of shape {like.shape}, "
                         f"aligned to its {like.itemsize}-byte elements")
