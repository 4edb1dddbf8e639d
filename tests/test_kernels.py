"""The compiled deposit kernel (``update(fast=True)``) against the NumPy
unbuffered path and Algorithm 2, its errors, and how it is built."""
import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core import (EMPTY_E, GroupedBinnedAcc, RsumScalar, _kernels, finalize_state,
                        fmt_for, renorm)


def _min_magnitude(fmt, L: int) -> int:
    """log2 of the smallest |value| whose own window passes ``check_window``."""
    return fmt.e_bot_min + (L - 1) * fmt.W - fmt.m - 1


def _max_binade(fmt) -> int:
    """The highest binade ``[2**x, 2**(x+1))`` whose window passes."""
    return fmt.e_top_max // fmt.W * fmt.W - fmt.m + fmt.W - 2


def _state(acc: GroupedBinnedAcc) -> list:
    return [x for j in range(acc.ncols) for x in acc.export_states(j)[1:]]


def _same_state(a: GroupedBinnedAcc, b: GroupedBinnedAcc) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(_state(a), _state(b)))


def _update_in_calls(acc: GroupedBinnedAcc, keys, vals, rows: int | None):
    """``acc.update`` over ``rows`` rows at a time (None: one call), so each
    call is one kernel call per column."""
    step = rows or max(len(keys), 1)
    for i in range(0, len(keys), step):
        acc.update(keys[i:i + step], vals[i:i + step])
    return acc


# ------------------------------------------------------------ property
@st.composite
def grouped_batches(draw):
    """Rows of up to 4 groups in up to 3 batches. Magnitudes run from
    subnormals to the top binade, with extra weight on both guard rails;
    signs are mixed and zeros occur. Each group's first nonzero row has a
    window inside the guard rails (an anchor), so any split passes
    ``check_window``; later rows may be subnormal or raise the window,
    inside one batch or in a later one."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    L = draw(st.integers(1, 4))
    fmt = fmt_for(dtype)
    lo, hi = _min_magnitude(fmt, L), _max_binade(fmt)
    sub = -(fmt.m + {np.float32: 126, np.float64: 1022}[dtype])
    any_ex = st.one_of(
        st.integers(sub, hi), st.integers(lo, lo + 2 * fmt.W),
        st.integers(hi - fmt.W, hi), st.integers(sub, sub + fmt.m),
    )
    safe_ex = st.one_of(st.integers(lo, hi), st.sampled_from([lo, hi]))

    def value(ex):
        mant = draw(st.floats(1, 2, exclude_max=True, width=fmt.itemsize * 8))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        return dtype(np.ldexp(sign * mant, ex))

    G = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(st.integers(0, G - 1), any_ex,
                                   st.integers(0, 9)), min_size=1, max_size=60))
    keys, vals, seen = [], [], set()
    for k, ex, z in rows:
        if k not in seen:  # the group's anchor row
            seen.add(k)
            keys.append(k)
            vals.append(value(draw(safe_ex)))
        keys.append(k)
        vals.append(dtype(0) if z == 0 else value(ex))
    keys, vals = np.asarray(keys, np.int64), np.asarray(vals, dtype)
    cuts = sorted(draw(st.lists(st.integers(0, keys.size), max_size=2)))
    return dtype, L, G, keys, vals, cuts


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(grouped_batches(), st.sampled_from([1, 7, None]))
def test_fast_matches_unbuffered_and_algorithm2(case, rows):
    dtype, L, G, keys, vals, cuts = case
    fast = GroupedBinnedAcc(L=L, dtype=dtype, dense_n_groups=G)
    for ks, vs in zip(np.split(keys, cuts), np.split(vals, cuts)):
        _update_in_calls(fast, ks, vs, rows)
    ref = GroupedBinnedAcc(L=L, dtype=dtype, dense_n_groups=G)
    ref.update(keys, vals, fast=False)
    assert _same_state(fast, ref)
    _, e, dev, C = fast.export_states()
    for g in range(G):
        sc = RsumScalar(L=L, dtype=dtype).add_many(vals[keys == g])
        se, sdev, sC = sc.state()
        assert se == e[g] and np.array_equal(sdev, dev[g]) and np.array_equal(sC, C[g])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_multicolumn_chunks_match_unbuffered(dtype):
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 50, 5000)
    vals = (rng.standard_normal((5000, 3)) * 10.0 ** rng.integers(-6, 7, (5000, 3)))
    ref = GroupedBinnedAcc(L=3, dtype=dtype, ncols=3, dense_n_groups=50)
    ref.update(keys, vals, fast=False)
    for rows in (1, 7, 4096, None):
        acc = GroupedBinnedAcc(L=3, dtype=dtype, ncols=3, dense_n_groups=50)
        assert _same_state(_update_in_calls(acc, keys, vals, rows), ref)


def test_kernel_calls_stay_within_renorm_budget(monkeypatch):
    """A batch larger than the lazy-renorm budget is cut into kernel calls
    of at most that many rows, with the budget checked after each."""
    from repro.core import binned
    monkeypatch.setattr(binned, "_RENORM_EVERY", 64)
    keys = np.zeros(1000, np.int64)
    vals = np.full(1000, 1.9 * 2.0**26)  # near-worst units for window 40
    acc = GroupedBinnedAcc(L=2, dense_n_groups=1).update(keys, vals)
    assert acc._since_renorm <= 64
    ref = GroupedBinnedAcc(L=2, dense_n_groups=1).update(keys, vals, fast=False)
    assert _same_state(acc, ref)


# -------------------------------------------------------------- errors
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("calls_of", [None, 7])
def test_nonfinite_raises_and_leaves_state_untouched(bad, calls_of, monkeypatch):
    """Also when the batch is cut into kernel calls of 7 rows (through the
    renorm cap): the whole batch is checked before the first call."""
    from repro.core import binned
    if calls_of:
        monkeypatch.setattr(binned, "_RENORM_EVERY", calls_of)
    keys = np.arange(40) % 4
    vals = np.ldexp(1.5, np.arange(40) - 20).reshape(20, 2)
    acc = GroupedBinnedAcc(L=2, ncols=2, dense_n_groups=4)
    acc.update(keys[:20], vals * 1e-3)
    before = [x.copy() for x in (acc.e_top, acc.dev, acc.C)]
    vals[17, 1] = bad  # windows of earlier rows and column 0 would rise
    with pytest.raises(ValueError, match="finite"):
        acc.update(keys[20:], vals)
    for x, y in zip(before, (acc.e_top, acc.dev, acc.C)):
        assert np.array_equal(x, y)


def test_finiteness_check_allocates_no_temporary():
    """The check before a deposit is one compiled scan: no per-value
    temporary, as ``np.isfinite`` would make."""
    import tracemalloc
    vals = np.ones((1 << 20, 1))
    _kernels.check_finite(vals)  # load the kernels first
    tracemalloc.start()
    try:
        _kernels.check_finite(vals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak


def test_kernel_itself_rejects_nonfinite():
    fmt = fmt_for(np.float64)
    e, dev, C = np.full(1, EMPTY_E), np.zeros((2, 1), np.int64), np.zeros((2, 1), np.int64)
    with pytest.raises(ValueError, match="finite"):
        _kernels.deposit(fmt, 2, e, dev, C, np.zeros(2, np.int64), np.array([1.0, np.nan]))


@pytest.mark.parametrize("dtype,L,x", [
    (np.float64, 2, 1e305),            # window above the upper rail
    (np.float64, 2, 5e-324),           # a lone subnormal: window below the lower rail
    (np.float32, 4, 1e-30),
    (np.float32, 1, 3e38),
])
@pytest.mark.parametrize("fast", [True, False])
def test_out_of_range_message(dtype, L, x, fast):
    acc = GroupedBinnedAcc(L=L, dtype=dtype, dense_n_groups=2)
    with pytest.raises(ValueError, match="outside supported range"):
        acc.update([0, 1], [1.0, x], fast=fast).finalize()


def test_subnormal_after_its_window_is_set():
    """A subnormal may join a group whose window is already high enough,
    also in the same call; rails are checked on the call's final windows."""
    for order in ([1.0, 5e-324], [5e-324, 1.0]):
        acc = GroupedBinnedAcc(L=2, dense_n_groups=1).update([0, 0], order)
        assert acc.finalize()[0, 0] == 1.0


@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize("calls", [
    [[1e-305], [1.0]], [[1.0], [1e-305]], [[1e-305, 1.0]], [[1.0, 1e-305]],
])
def test_lower_rail_checked_on_final_windows(calls, fast):
    """A value whose own window is below the lower rail is fine once a
    later value, in the same call or a later one, raises the window: the
    order of the calls changes no bit."""
    ref = GroupedBinnedAcc(L=2, dense_n_groups=1).update([0], [1.0])
    acc = GroupedBinnedAcc(L=2, dense_n_groups=1)
    for vals in calls:
        acc.update(np.zeros(len(vals), np.int64), vals, fast=fast)
    assert _same_state(acc, ref)
    assert acc.finalize()[0, 0] == 1.0


@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize("x", [1e-305, 5e-324])
def test_lone_value_below_the_rail_raises_on_its_final_window(x, fast):
    acc = GroupedBinnedAcc(L=2, dense_n_groups=2).update([0, 1], [1.0, x], fast=fast)
    with pytest.raises(ValueError, match="outside supported range"):
        acc.finalize()
    with pytest.raises(ValueError, match="outside supported range"):
        acc.export_states()


def test_slot_out_of_range_raises():
    with pytest.raises(IndexError):
        GroupedBinnedAcc(L=2, dense_n_groups=3).update([0, 3], [1.0, 2.0])


# ------------------------------------------------------------ finalize
def _crafted_states(dtype, L: int, n: int, seed: int):
    """Windows anywhere inside the rails, both rails included, EMPTY slots,
    and deviations/carries of both signs that are not renormalised; a
    window at the lower rail gives a subnormal result, and one slot rounds
    up only if the levels are summed from the lowest up."""
    fmt = fmt_for(dtype)
    rng = np.random.default_rng(seed)
    lo = -(-(fmt.e_bot_min + (L - 1) * fmt.W) // fmt.W) * fmt.W
    hi = fmt.e_top_max // fmt.W * fmt.W
    e = rng.integers(lo // fmt.W, hi // fmt.W + 1, n) * fmt.W
    e[rng.random(n) < 0.1] = EMPTY_E
    e[:4] = [lo, hi, lo, EMPTY_E]
    dev = rng.integers(-(1 << (fmt.m + 4)), 1 << (fmt.m + 4), (L, n))
    small = rng.random(n) < 0.3  # a few units: tiny sums, subnormal at lo
    dev[:, small] = rng.integers(-9, 10, (L, int(small.sum())))
    C = rng.integers(-(1 << 20), 1 << 20, (L, n))
    C[:, small] = 0
    dev[:, 2], C[:, 2] = 0, 0
    dev[-1, 2] = 1  # one unit of the lowest level at the lower rail
    if L >= 3:  # level 1 is half an ulp of level 0, level 2 breaks the tie
        e[4], dev[:, 4], C[:, 4] = hi, 0, 0
        C[0, 4], dev[1, 4], C[2, 4] = 1, 1 << (fmt.W - 3), 1 << (2 * fmt.W - fmt.m - 8)
    dev[:, e == EMPTY_E] = C[:, e == EMPTY_E] = 0
    return fmt, e, dev, C


@pytest.mark.parametrize("dtype,Ls", [(np.float32, range(1, 10)),
                                      (np.float64, range(1, 28))])
def test_compiled_finalize_matches_finalize_state(dtype, Ls):
    for L in Ls:
        fmt, e, dev, C = _crafted_states(dtype, L, 500, L)
        rdev, rC = dev.copy(), C.copy()
        renorm(rdev, rC, fmt)
        want = finalize_state(fmt, L, e, rdev, rC)
        acc = GroupedBinnedAcc(L=L, dtype=dtype, dense_n_groups=e.size)
        acc.e_top[0], acc.dev[0], acc.C[0] = e, dev, C
        got = acc.finalize()[:, 0]
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(f"u{got.itemsize}"),
                              want.view(f"u{want.itemsize}")), L
        assert 0 < got[2] < np.finfo(dtype).tiny  # subnormal
        _, ee, edev, eC = acc.export_states()
        assert np.array_equal(ee, e)
        assert np.array_equal(edev, rdev.T) and np.array_equal(eC, rC.T)


def test_compiled_finalize_writes_every_column():
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 40, 3000)
    vals = rng.standard_normal((3000, 3)) * 10.0 ** rng.integers(-8, 9, (3000, 3))
    acc = GroupedBinnedAcc(L=3, ncols=3, dense_n_groups=41).update(keys, vals)
    got = acc.finalize()
    for j in range(3):
        _, e, dev, C = acc.export_states(j)
        assert np.array_equal(got[:, j], finalize_state(acc.fmt, 3, e, dev.T, C.T))
    assert np.all(got[40] == 0)  # an EMPTY slot


# ------------------------------------------------------------- threads
def _force_threads(mp: pytest.MonkeyPatch, T: int) -> None:
    """Run every kernel call over at least T rows (or slots) on T threads:
    T CPUs in the affinity, one row per thread. At most 4 threads start."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(T)))
    mp.setattr(_kernels, "_ROWS_PER_THREAD", 1)
    assert _kernels.threads(1000) == T


def _same_bytes(xs, ys) -> bool:
    return all(x.tobytes() == y.tobytes() for x, y in zip(xs, ys))


def _argsort_partition(keys, vals, F, shift):
    order = np.argsort((keys.view(np.uint64) >> shift) & (F - 1), kind="stable")
    return keys[order], vals[order]


@pytest.mark.parametrize("T", [2, 3, 4])
def test_partition_on_threads_matches_one_thread(T, monkeypatch):
    """Byte for byte the output of one thread, which is the stable
    counting sort, for any n, F, shift and row width."""
    rng = np.random.default_rng(T)
    for i in range(40):
        n = int(rng.integers(0, 3000))
        F, shift = 1 << int(rng.integers(0, 9)), int(rng.integers(0, 12))
        keys = rng.integers(-50, 1 << 14, n)  # negative keys route too
        vals = [rng.standard_normal(n), rng.standard_normal(n).astype(np.float32),
                rng.standard_normal((n, 3))][i % 3]
        _force_threads(monkeypatch, 1)
        want = _kernels.partition(keys, vals, F, shift)
        _force_threads(monkeypatch, T)
        assert _same_bytes(_kernels.partition(keys, vals, F, shift), want)
        assert _same_bytes(want[:2], _argsort_partition(keys, vals, F, shift))


def test_partition_with_fewer_rows_than_threads():
    """The kernel itself, asked for 4 threads over 0..3 rows."""
    lib = _kernels._lib()
    for n in range(4):
        keys = np.arange(n, dtype=np.int64)[::-1].copy()
        vals = keys * 1.5
        out_k, out_v = np.empty_like(keys), np.empty_like(vals)
        bounds, hist = np.empty(5, np.int64), np.empty((4, 2, 4), np.int64)
        lines = np.empty(4 * 2 * 4 * 64 + 64, np.uint8)
        lib.repro_partition(n, keys.ctypes.data, vals.ctypes.data, 8, 4, 0,
                            out_k.ctypes.data, out_v.ctypes.data,
                            bounds.ctypes.data, 4, hist.ctypes.data,
                            lines.ctypes.data)
        assert _same_bytes((out_k, out_v, bounds), _kernels.partition(keys, vals, 4))


def _at_offset(buf: np.ndarray, off: int, like: np.ndarray) -> np.ndarray:
    """An empty C-contiguous array like ``like`` that starts ``off`` bytes
    past a cache line, in ``buf``."""
    base = -buf.ctypes.data % 64 + off
    return buf[base:base + like.nbytes].view(like.dtype).reshape(like.shape)


@pytest.mark.parametrize("T", [1, 2, 3, 4])
def test_scatter_matches_stable_argsort(T, monkeypatch):
    """The write-combined scatter against a stable argsort on the partition
    id, byte for byte: 2-, 4-, 8-, 12- and 24-byte rows (rows straddle lines),
    output lines shared between threads and partitions, runs shorter than a
    line (keys dealt round-robin: each partition gets n / F rows) and all
    rows in one partition, written into ``out`` arrays at every 8-byte
    offset from a line, the keys and values at different offsets."""
    _force_threads(monkeypatch, T)
    rng = np.random.default_rng(T)
    buf_k, buf_v = np.empty(8 * 70_000 + 128, np.uint8), np.empty(24 * 70_000 + 128, np.uint8)
    case = 0
    for n in (0, 1, 7, 8, 9, 63, 64, 65, (1 << 16) + 3):
        for F in (1, 2, 256, 4096):
            shift = int(rng.integers(0, 4))
            for keys in (rng.integers(-(1 << 20), 1 << 20, n),  # negative keys route too
                         np.arange(n, dtype=np.int64) << shift,
                         np.full(n, 5 << shift, np.int64)):
                for vals in (rng.integers(-1000, 1000, n).astype(np.int16),
                             rng.standard_normal(n).astype(np.float32),
                             rng.standard_normal(n),
                             rng.standard_normal((n, 3)).astype(np.float32),
                             rng.standard_normal((n, 3))):
                    ok = 8 * (case % 8)
                    ov = (ok + 8 * (1 + case // 8 % 7)) % 64
                    case += 1
                    out = (_at_offset(buf_k, ok, keys), _at_offset(buf_v, ov, vals))
                    pk, pv, bounds = _kernels.partition(keys, vals, F, shift, out=out)
                    assert pk is out[0] and pv is out[1]
                    assert _same_bytes((pk, pv), _argsort_partition(keys, vals, F, shift))
                    ids = (keys.view(np.uint64) >> shift) & (F - 1)
                    counts = np.bincount(ids.astype(np.int64), minlength=F)
                    assert np.array_equal(bounds, np.r_[0, np.cumsum(counts)])


@pytest.mark.parametrize("ok", range(0, 64, 8))
def test_scatter_at_every_line_offset(ok, monkeypatch):
    """Every pair of distinct 8-byte offsets of the key and value outputs
    from a cache line, on 4 threads, fresh output too; rows of 8, 12 and
    80 bytes (one row spans up to three lines)."""
    _force_threads(monkeypatch, 4)
    rng = np.random.default_rng(ok)
    n = 5000
    keys = rng.integers(0, 1 << 12, n)
    buf_k, buf_v = np.empty(8 * n + 128, np.uint8), np.empty(80 * n + 128, np.uint8)
    for vals in (rng.standard_normal(n), rng.standard_normal((n, 3)).astype(np.float32),
                 rng.standard_normal((n, 10))):
        want = _argsort_partition(keys, vals, 64, 6)
        assert _same_bytes(_kernels.partition(keys, vals, 64, 6)[:2], want)
        for ov in range(0, 64, 8):
            if ov != ok:
                out = (_at_offset(buf_k, ok, keys), _at_offset(buf_v, ov, vals))
                assert _same_bytes(_kernels.partition(keys, vals, 64, 6, out=out)[:2], want)


_K, _V = np.zeros(10, np.int64), np.zeros(10)
_W = np.zeros(20, np.int64)
#: (values, out) that partition must reject, for the keys np.arange(10)
_BAD_OUT = {
    "short keys": lambda k, v: (v, (_K[:9], _V)),
    "2-D values": lambda k, v: (v, (_K, np.empty((10, 1)))),
    "int32 keys": lambda k, v: (v, (_K.astype(np.int32), _V)),
    "float32 values": lambda k, v: (v, (_K, _V.astype(np.float32))),
    "strided keys": lambda k, v: (v, (_W[::2], _V)),
    "strided values": lambda k, v: (v, (_K, _W[::2].view(np.float64))),
    "Fortran rows": lambda k, v: (v.reshape(5, 2),
                                  (_K[:5], np.asfortranarray(np.empty((5, 2))))),
    "not an array": lambda k, v: (v, (list(range(10)), _V)),
    "keys over the input keys": lambda k, v: (v, (k, _V)),
    "values over the input keys": lambda k, v: (v, (_K, k.view(np.float64))),
    "keys over the input values": lambda k, v: (v, (v.view(np.int64), _V)),
    "values over the input values": lambda k, v: (v, (_K, v)),
    "keys over the values": lambda k, v: (v, (_W[:10], _W[5:15].view(np.float64))),
}


@pytest.mark.parametrize("case", list(_BAD_OUT))
def test_partition_out_is_checked(case):
    """A wrong shape, dtype or layout of ``out``, or ``out`` that may share
    memory with the input or with itself, raises before any write."""
    keys, vals = np.arange(10, dtype=np.int64), np.arange(10.0)
    vals, out = _BAD_OUT[case](keys, vals)
    keys = keys[:vals.shape[0]]
    before = keys.copy(), vals.copy()
    with pytest.raises(ValueError, match="out"):
        _kernels.partition(keys, vals, 4, out=out)
    assert _same_bytes((keys, vals), before)


def test_partition_of_one_row_with_a_wide_stride():
    """A one-row view of a strided array is contiguous with any row stride;
    the kernel copies the row's own bytes, not the stride's."""
    base = np.arange(30.0).reshape(10, 3)
    for vals in (base[::5, 0][1:], base[::5][1:]):
        keys = np.array([7])
        buf = np.full(vals.nbytes + 64, 0xAB, np.uint8)
        out = (np.empty(1, np.int64), buf[:vals.nbytes].view(vals.dtype).reshape(vals.shape))
        pk, pv, bounds = _kernels.partition(keys, vals, 4, out=out)
        assert pk.tolist() == [7] and np.array_equal(pv, vals)
        assert bounds.tolist() == [0, 0, 0, 0, 1]
        assert np.all(buf[vals.nbytes:] == 0xAB)  # nothing written past the row


@pytest.mark.parametrize("T", [1, 2, 3, 4])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_first_nonfinite_in_memory_order(T, dtype, monkeypatch):
    """The first NaN/Inf in memory order wherever the threads' chunks
    split, also with a later one behind it; the size if there is none."""
    _force_threads(monkeypatch, T)
    rng = np.random.default_rng(T)
    v = rng.standard_normal(1001).astype(dtype)
    assert _kernels.first_nonfinite(v) == v.size
    assert _kernels.first_nonfinite(v[:0]) == 0
    for bad in (np.nan, np.inf, -np.inf):
        for i in (0, 1, 249, 250, 251, 333, 334, 500, 999, 1000):
            w = v.copy()
            w[i], w[min(i + 300, 1000)] = bad, np.nan
            assert _kernels.first_nonfinite(w) == i
    fi = np.finfo(dtype)
    edge = np.array([0.0, -0.0, fi.tiny / 4, fi.max, -fi.max, fi.tiny], dtype)
    assert _kernels.first_nonfinite(edge) == edge.size  # subnormals are finite
    m = np.asfortranarray(rng.standard_normal((100, 3)).astype(dtype))
    m[7, 2], m[50, 0] = np.nan, np.inf
    assert _kernels.first_nonfinite(m) == 50  # column 0 comes first
    with pytest.raises(ValueError, match="contiguous"):
        _kernels.first_nonfinite(v[::2])


def _layout(layout: str, keys, vals, G: int):
    if layout == "partitioned":  # as partition_and_aggregate routes at d = 1
        s = max(0, (G - 1).bit_length() - 4)
        return _kernels.partition(keys, vals, 16, s)[:2]
    if layout == "sorted":
        order = np.argsort(keys, kind="stable")
        return keys[order], vals[order]
    return keys, vals  # unordered: every thread count reruns on one thread


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("L", [1, 2, 4])
@pytest.mark.parametrize("layout", ["partitioned", "sorted", "unordered"])
def test_deposit_on_threads_is_bit_equal(dtype, L, layout, monkeypatch):
    """Bit-equal to one thread and to the NumPy path, for tables smaller
    than the thread count, of odd sizes and of powers of two. Magnitudes
    span 16 decades, so windows rise inside every thread's rows."""
    rng = np.random.default_rng([L, len(layout)])
    for G in (1, 3, 64, 1000):
        n = 4000
        keys = rng.integers(0, G, n)
        vals = ((rng.random(n) + 1) * 10.0 ** rng.integers(-8, 9, n)
                * rng.choice([-1.0, 1.0], n)).astype(dtype)
        vals[rng.random(n) < 0.05] = 0
        keys, vals = _layout(layout, keys, vals, G)
        ref = GroupedBinnedAcc(L=L, dtype=dtype, dense_n_groups=G)
        ref.update(keys, vals, fast=False)
        for T in (1, 2, 3, 4):
            _force_threads(monkeypatch, T)
            acc = GroupedBinnedAcc(L=L, dtype=dtype, dense_n_groups=G)
            acc.update(keys, vals)
            assert _same_state(acc, ref), (G, T)
            assert acc.finalize().tobytes() == ref.finalize().tobytes(), (G, T)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(grouped_batches(), st.integers(2, 4))
def test_threaded_deposit_matches_unbuffered_and_algorithm2(case, T):
    """The property above on key-sorted rows, so every group's windows
    rise inside the thread that owns it, on 2-4 threads."""
    dtype, L, G, keys, vals, _ = case
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    with pytest.MonkeyPatch.context() as mp:
        _force_threads(mp, T)
        fast = GroupedBinnedAcc(L=L, dtype=dtype, dense_n_groups=G).update(keys, vals)
    ref = GroupedBinnedAcc(L=L, dtype=dtype, dense_n_groups=G)
    ref.update(keys, vals, fast=False)
    assert _same_state(fast, ref)
    _, e, dev, C = fast.export_states()
    for g in range(G):
        se, sdev, sC = RsumScalar(L=L, dtype=dtype).add_many(vals[keys == g]).state()
        assert se == e[g] and np.array_equal(sdev, dev[g]) and np.array_equal(sC, C[g])


def test_deposit_splits_partitioned_rows_across_threads(monkeypatch):
    """A probe that the bit checks above run the split and not only the
    one-thread rerun: after a range error in thread 0's rows, the last
    thread has raised its own slots' windows, which one thread, stopping
    at the error, never reaches."""
    fmt = fmt_for(np.float64)
    keys = np.repeat(np.arange(16), 4)  # thread t of 4: slots 4t..4t+3
    vals = np.ones(64)
    vals[1] = 1e305
    for T, reached in ((1, False), (4, True)):
        _force_threads(monkeypatch, T)
        e = np.full(16, EMPTY_E)
        dev, C = np.zeros((2, 16), np.int64), np.zeros((2, 16), np.int64)
        with pytest.raises(ValueError, match="outside supported range"):
            _kernels.deposit(fmt, 2, e, dev, C, keys, vals)
        assert (e[15] != EMPTY_E) == reached


@pytest.mark.parametrize("early,late,exc", [
    ("slot", "range", IndexError), ("range", "slot", ValueError),
    ("slot", "nan", IndexError), ("nan", "slot", ValueError),
    ("range", "nan", ValueError),
])
def test_first_error_in_row_order_is_reported(early, late, exc, monkeypatch):
    """Two bad rows in the ranges of threads 0 and 3 of 4: every thread
    count reports the early one, with the message of one thread."""
    fmt = fmt_for(np.float64)

    def run(T):
        _force_threads(monkeypatch, T)
        keys = np.repeat(np.arange(16), 4)
        vals = np.ones(64)
        for row, what in ((3, early), (60, late)):
            if what == "slot":
                keys[row] = 99
            else:
                vals[row] = 1e305 if what == "range" else np.nan
        e = np.full(16, EMPTY_E)
        dev, C = np.zeros((2, 16), np.int64), np.zeros((2, 16), np.int64)
        with pytest.raises(exc) as info:
            _kernels.deposit(fmt, 2, e, dev, C, keys, vals)
        return str(info.value)

    want = run(1)
    assert {"slot": "99", "range": "outside supported range",
            "nan": "finite"}[early] in want
    for T in (2, 3, 4):
        assert run(T) == want


@pytest.mark.parametrize("dtype,L", [(np.float32, 3), (np.float64, 2), (np.float64, 5)])
def test_finalize_on_threads_matches_finalize_state(dtype, L, monkeypatch):
    fmt, e, dev, C = _crafted_states(dtype, L, 501, L)
    rdev, rC = dev.copy(), C.copy()
    renorm(rdev, rC, fmt)
    want = finalize_state(fmt, L, e, rdev, rC)
    for T in (1, 2, 3, 4):
        _force_threads(monkeypatch, T)
        acc = GroupedBinnedAcc(L=L, dtype=dtype, dense_n_groups=e.size)
        acc.e_top[0], acc.dev[0], acc.C[0] = e, dev, C
        assert acc.finalize()[:, 0].tobytes() == want.tobytes(), T
        assert _same_bytes(acc.export_states()[1:], (e, rdev.T, rC.T)), T


def test_finalize_reports_the_first_bad_window(monkeypatch):
    """Bad windows in the slots of threads 1 and 3 of 4: every thread
    count names the one of thread 1."""
    fmt = fmt_for(np.float64)
    acc = GroupedBinnedAcc(L=2, dense_n_groups=16).update(np.arange(16), np.ones(16))
    acc.e_top[0, 5], acc.e_top[0, 14] = fmt.e_top_max + fmt.W, -2000
    msgs = set()
    for T in (1, 2, 3, 4):
        _force_threads(monkeypatch, T)
        with pytest.raises(ValueError, match="outside supported range") as info:
            acc.finalize()
        msgs.add(str(info.value))
    assert len(msgs) == 1 and str(fmt.e_top_max + fmt.W) in msgs.pop()


_PINNED = """
import hashlib, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from repro.aggregate import partition_and_aggregate
from repro.core import _kernels
from repro.synth_data import np_groupby_input
assert _kernels.threads(1 << 22) == 1, _kernels.threads(1 << 22)
k, v = np_groupby_input(1 << 18, 1 << 12, dist="mixed", seed=5)
acc = partition_and_aggregate(k, v, 1 << 12, kind="repro_buffered", L=2, d=1)
print(hashlib.sha256(acc.result_bits() + acc.finalize().tobytes()).hexdigest())
"""


def test_thread_count_follows_cpu_affinity():
    """A process pinned to one CPU runs every kernel on one thread and
    gets the bits this process gets on up to four."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _PINNED], env=env, timeout=120,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    from repro.aggregate import partition_and_aggregate
    from repro.synth_data import np_groupby_input
    assert _kernels.threads(1 << 18) == min(4, len(os.sched_getaffinity(0)))
    k, v = np_groupby_input(1 << 18, 1 << 12, dist="mixed", seed=5)
    acc = partition_and_aggregate(k, v, 1 << 12, kind="repro_buffered", L=2, d=1)
    want = hashlib.sha256(acc.result_bits() + acc.finalize().tobytes()).hexdigest()
    assert out.stdout.strip() == want


# -------------------------------------------------------- build tooling
_LOAD = """
import ctypes, sys
from pathlib import Path
import numpy as np
from repro.core import _kernels
so = _kernels._artifact(Path(sys.argv[1]))
lib = _kernels._declare(ctypes.CDLL(str(so)))
keys = np.arange(10, dtype=np.int64)
out, vals, bounds = np.empty(10, np.int64), np.empty(10), np.empty(3, np.int64)
hist, lines = np.empty(4, np.int64), np.empty(4 * 64 + 64, np.uint8)
lib.repro_partition(10, keys.ctypes.data, keys.ctypes.data, 8, 2, 0,
                    out.ctypes.data, vals.ctypes.data, bounds.ctypes.data,
                    1, hist.ctypes.data, lines.ctypes.data)
assert bounds.tolist() == [0, 5, 10], bounds
print(so)
"""


def test_concurrent_first_loads_share_one_artifact(tmp_path):
    """Four processes load from an empty cache at once: each compiles to a
    temporary file and renames it into place, so every one of them loads
    a complete library, and no temporary file is left behind."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    procs = [subprocess.Popen([sys.executable, "-c", _LOAD, str(tmp_path)], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for _ in range(4)]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0] * 4, [err for _, err in outs]
    paths = {out.strip() for out, _ in outs}
    assert len(paths) == 1
    assert sorted(os.listdir(tmp_path)) == [Path(paths.pop()).name]


def test_second_load_reuses_artifact(tmp_path, monkeypatch):
    so = _kernels._artifact(tmp_path)

    def no_compile(*a, **kw):
        raise AssertionError("recompiled")

    monkeypatch.setattr(subprocess, "run", no_compile)
    assert _kernels._artifact(tmp_path) == so


def test_changed_source_gives_new_artifact(tmp_path, monkeypatch):
    old = _kernels._artifact(tmp_path / "cache")
    src = tmp_path / "_kernels.c"
    src.write_text(_kernels._SRC.read_text() + "\n/* changed */\n")
    monkeypatch.setattr(_kernels, "_SRC", src)
    new = _kernels._artifact(tmp_path / "cache")
    assert new != old and new.exists() and old.exists()
    ctypes.CDLL(str(new)).repro_partition  # a complete library


def test_missing_compiler_names_the_command(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))
    with pytest.raises(RuntimeError, match=r"C compiler .* cc -O2 -shared -fPIC"):
        _kernels._artifact(tmp_path / "cache")
    assert os.listdir(tmp_path / "cache") == []  # no temporary file left
