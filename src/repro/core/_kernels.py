"""Compiled deposit, finalize and partition kernels (``_kernels.c``) through ctypes.

The C source is compiled on first use with ``cc`` into a shared object
named by the hash of the source and the flags, under this package's
``__pycache__``; later loads, in any process, reuse it. The compiler
writes to a temporary file that is then renamed into place, so Spark's
Python workers that load the kernels at the same time never see a
half-written file. A C compiler on ``PATH`` is therefore a requirement
of the buffered deposit, of ``GroupedBinnedAcc.finalize`` and of the
radix partition; there is no fallback.

Each kernel call runs on ``threads(rows)`` POSIX threads, worked out
from the call's own input; the thread count changes no result bit.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

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

_DEP_NONFINITE, _DEP_RANGE, _DEP_SLOT = 1, 2, 3


def _artifact(cache_dir: Path = _CACHE) -> Path:
    """Path of the compiled kernels in ``cache_dir``, compiling if missing."""
    src = _SRC.read_bytes()
    tag = hashlib.sha256(src + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    so = Path(cache_dir) / f"_kernels-{tag}.so"
    if so.exists():
        return so
    so.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=so.parent, prefix=f"{so.stem}.", suffix=".tmp")
    os.close(fd)
    # compile the bytes that were hashed, read from stdin
    cmd = ["cc", *_CFLAGS, "-o", tmp, "-x", "c", "-"]
    try:
        subprocess.run(cmd, input=src, check=True, capture_output=True)
        os.replace(tmp, so)
    except FileNotFoundError:
        raise RuntimeError(
            f"repro needs a C compiler on PATH to build {_SRC.name}: "
            f"{' '.join(cmd)} could not start"
        ) from None
    except subprocess.CalledProcessError as exc:
        raise RuntimeError(
            f"compiling {_SRC.name} failed: {' '.join(cmd)}\n"
            f"{exc.stderr.decode(errors='replace')}"
        ) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return so


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    for name in ("repro_deposit_f64", "repro_deposit_f32"):
        f = getattr(lib, name)
        f.argtypes = [i64, ptr, ptr, i64, i64, i64, i64, i64, ptr, ptr, ptr,
                      i64, ptr]
        f.restype = ctypes.c_int
    for name in ("repro_finalize_f64", "repro_finalize_f32"):
        f = getattr(lib, name)
        f.argtypes = [i64, i64, i64, i64, i64, ptr, ptr, ptr, ptr, i64, i64, ptr]
        f.restype = ctypes.c_int
    lib.repro_partition.argtypes = [i64, ptr, ptr, i64, i64, i64, ptr, ptr, ptr,
                                    i64, ptr]
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


def _check_state(a: np.ndarray, shape: tuple) -> None:
    if a.dtype != np.int64 or a.shape != shape or not a.flags.c_contiguous:
        raise ValueError(f"state array must be C-contiguous int64 of shape {shape}")


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
    ns = e_top.shape[0]
    _check_state(e_top, (ns,))
    _check_state(dev, (L, ns))
    _check_state(C, (L, ns))
    slots = np.ascontiguousarray(slots, np.int64)
    v = np.ascontiguousarray(v, fmt.dtype)
    if slots.shape != v.shape or v.ndim != 1:
        raise ValueError("slots and values must be 1-D of the same length")
    kernel = _lib().repro_deposit_f64 if fmt.dtype == np.float64 \
        else _lib().repro_deposit_f32
    bad = ctypes.c_int64(0)
    rc = kernel(v.size, v.ctypes.data, slots.ctypes.data, ns, L, fmt.W,
                fmt.e_top_max, fmt.e_bot_min, e_top.ctypes.data,
                dev.ctypes.data, C.ctypes.data, threads(v.size), ctypes.byref(bad))
    if rc == _DEP_NONFINITE:
        raise ValueError(
            "reproducible summation is defined for finite inputs only "
            f"(got {v[bad.value]})"
        )
    if rc == _DEP_RANGE:
        fmt.check_window(np.array([bad.value]), L)  # raises with the range
        raise RuntimeError(f"deposit kernel rejected window {bad.value}")
    if rc == _DEP_SLOT:
        raise IndexError(f"slot {slots[bad.value]} out of range for {ns} slots")


def finalize(fmt: FloatFormat, L: int, e_top: np.ndarray, dev: np.ndarray,
             C: np.ndarray, out: np.ndarray) -> None:
    """Renormalise one column's state in place and round it into ``out``.

    ``out (n_slots,)`` in the format's dtype, any stride; bit for bit
    ``finalize_state`` after ``renorm``, on ``threads(n_slots)`` threads.
    Raises ``ValueError`` for a live window outside the format's range.
    """
    ns = e_top.shape[0]
    _check_state(e_top, (ns,))
    _check_state(dev, (L, ns))
    _check_state(C, (L, ns))
    if out.dtype != fmt.dtype or out.shape != (ns,):
        raise ValueError(f"out must be {fmt.dtype.name} of shape ({ns},)")
    kernel = _lib().repro_finalize_f64 if fmt.dtype == np.float64 \
        else _lib().repro_finalize_f32
    bad = ctypes.c_int64(0)
    rc = kernel(ns, L, fmt.W, fmt.e_top_max, fmt.e_bot_min, e_top.ctypes.data,
                dev.ctypes.data, C.ctypes.data, out.ctypes.data,
                out.strides[0] // out.itemsize, threads(ns), ctypes.byref(bad))
    if rc == _DEP_RANGE:
        fmt.check_window(np.array([bad.value]), L)  # raises with the range
        raise RuntimeError(f"finalize kernel rejected window {bad.value}")


def partition(keys: np.ndarray, values: np.ndarray, F: int, shift: int = 0):
    """Stable counting sort of ``(keys, values)`` rows on ``(key >> shift) & (F-1)``.

    Runs on ``threads(len(keys))`` threads; the output is the same for
    any thread count. Returns ``(keys_part, values_part, bounds)``; see
    ``repro.aggregate.partition_agg.parallel_partition``. Any int64 key
    routes to a partition in ``[0, F)``, so keys are not checked here.
    """
    if F < 1 or F & (F - 1):
        raise ValueError("fan-out must be a power of two")
    keys = np.ascontiguousarray(keys, np.int64)
    values = np.ascontiguousarray(values)
    if keys.ndim != 1 or values.ndim == 0 or values.shape[0] != keys.size:
        raise ValueError("keys must be 1-D and values must have one row per key")
    if values.dtype.hasobject:
        raise TypeError("values must be a numeric array, not object dtype")
    out_k, out_v = np.empty_like(keys), np.empty_like(values)
    bounds = np.empty(F + 1, np.int64)
    T = threads(keys.size)
    hist = np.empty((T, F), np.int64)
    _lib().repro_partition(
        keys.size, keys.ctypes.data, values.ctypes.data, values.strides[0], F,
        shift, out_k.ctypes.data, out_v.ctypes.data, bounds.ctypes.data,
        T, hist.ctypes.data)
    return out_k, out_v, bounds
