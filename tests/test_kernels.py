"""The compiled deposit kernel (``update(fast=True)``) against the NumPy
unbuffered path and Algorithm 2, its errors, and how it is built."""
import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core import EMPTY_E, GroupedBinnedAcc, RsumScalar, _kernels, fmt_for


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
        acc.update([0, 1], [1.0, x], fast=fast)


def test_subnormal_after_its_window_is_set():
    """A subnormal may join a group whose window is already high enough,
    also in the same call; rails are checked on the call's final windows."""
    for order in ([1.0, 5e-324], [5e-324, 1.0]):
        acc = GroupedBinnedAcc(L=2, dense_n_groups=1).update([0, 0], order)
        assert acc.finalize()[0, 0] == 1.0


def test_slot_out_of_range_raises():
    with pytest.raises(IndexError):
        GroupedBinnedAcc(L=2, dense_n_groups=3).update([0, 3], [1.0, 2.0])


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
lib.repro_partition(10, keys.ctypes.data, keys.ctypes.data, 8, 2,
                    out.ctypes.data, vals.ctypes.data, bounds.ctypes.data)
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

    monkeypatch.setattr(_kernels.subprocess, "run", no_compile)
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
