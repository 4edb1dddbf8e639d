"""Summation buffers (Section V): the batch is the buffer.

``kind="repro_buffered"`` (``BufferedReproAcc``) and the default fast path
of ``GroupedBinnedAcc`` deposit each batch with one call of the compiled
kernel. These tests check that buffered == unbuffered (the per-element
``fast=False`` path), bit for bit, whatever the batch sizes.
"""
import numpy as np
import pytest

from repro.aggregate import make_acc
from repro.core import GroupedBinnedAcc, binned
from repro.synth_data import np_groupby_input


def bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64) if a.dtype == np.float64 else a.view(np.int32)


def in_batches(acc, keys, vals, rows):
    """Feed ``acc.update`` batches of ``rows`` rows (the buffer size)."""
    for i in range(0, len(keys), rows):
        acc.update(keys[i:i + rows], vals[i:i + rows])
    return acc


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bsz", [1, 2, 7, 64, 256, 4096])
def test_buffered_equals_unbuffered(dtype, bsz):
    keys, vals = np_groupby_input(20000, 33, dist="mixed", dtype=dtype, seed=bsz)
    ref = make_acc("repro", 33, dtype=dtype, L=2)
    ref.update(keys, vals)
    buf = in_batches(make_acc("repro_buffered", 33, dtype=dtype, L=2), keys, vals, bsz)
    assert buf.result_bits() == ref.result_bits()
    assert np.array_equal(bits(buf.acc.finalize()), bits(ref.acc.finalize()))


@pytest.mark.parametrize("L", [1, 2, 4])
def test_batch_split_invariance(L):
    keys, vals = np_groupby_input(15000, 10, dist="uniform12", seed=L)
    ref = make_acc("repro_buffered", 10, L=L)
    ref.update(keys, vals)
    acc = make_acc("repro_buffered", 10, L=L)
    for ks, vs in zip(np.array_split(keys, 23), np.array_split(vals, 23)):
        acc.update(ks, vs)
    assert acc.result_bits() == ref.result_bits()


def test_skewed_single_group_overruns_buffer_many_times(monkeypatch):
    """One group receives a batch much larger than one kernel call may
    take, so the batch is cut at the renorm cap and renormalised between
    the calls."""
    monkeypatch.setattr(binned, "_RENORM_EVERY", 16)
    vals = np.random.default_rng(0).random(5000) + 1
    keys = np.zeros(5000, np.int64)
    ref = GroupedBinnedAcc(L=2, dense_n_groups=1).update(keys, vals, fast=False)
    buf = GroupedBinnedAcc(L=2, dense_n_groups=1).update(keys, vals)
    assert np.array_equal(bits(buf.finalize()), bits(ref.finalize()))


def test_partial_buffers_flushed_on_finalize():
    buf = make_acc("repro_buffered", 2, L=2)
    buf.update(np.array([0, 1, 0]), np.array([1.5, 2.5, 3.0]))
    out = buf.finalize()
    assert out[0] == 4.5 and out[1] == 2.5


def test_merge_buffered_with_buffered_and_unbuffered():
    keys, vals = np_groupby_input(12000, 17, dist="mixed", seed=9)
    ref = GroupedBinnedAcc(L=2, dense_n_groups=17).update(keys, vals, fast=False)
    a = in_batches(GroupedBinnedAcc(L=2, dense_n_groups=17), keys[:5000], vals[:5000], 32)
    b = in_batches(GroupedBinnedAcc(L=2, dense_n_groups=17), keys[5000:], vals[5000:], 64)
    assert np.array_equal(bits(a.merge(b).finalize()), bits(ref.finalize()))
    c = in_batches(GroupedBinnedAcc(L=2, dense_n_groups=17), keys[:5000], vals[:5000], 32)
    d = GroupedBinnedAcc(L=2, dense_n_groups=17).update(keys[5000:], vals[5000:], fast=False)
    assert np.array_equal(bits(c.merge(d).finalize()), bits(ref.finalize()))


def test_keyed_mode_with_growth():
    """Batches that each grow a sizeless table to a larger key give the
    bits of one unbuffered pass."""
    rng = np.random.default_rng(4)
    keys = np.sort(rng.integers(0, 40, 6000))
    vals = rng.random(6000)
    ref = GroupedBinnedAcc(L=2).update(keys, vals, fast=False)
    buf = GroupedBinnedAcc(L=2)
    for ks, vs in zip(np.array_split(keys, 6), np.array_split(vals, 6)):
        buf.update(ks, vs)
    assert buf.n_slots == ref.n_slots == keys.max() + 1
    assert np.array_equal(bits(buf.finalize()), bits(ref.finalize()))


def test_multicolumn_buffers():
    keys, v1 = np_groupby_input(9000, 12, dist="uniform12", seed=1)
    _, v2 = np_groupby_input(9000, 12, dist="exp1", seed=2)
    vals = np.column_stack([v1, v2])
    ref = GroupedBinnedAcc(L=2, ncols=2, dense_n_groups=12).update(keys, vals, fast=False)
    buf = in_batches(GroupedBinnedAcc(L=2, ncols=2, dense_n_groups=12), keys, vals, 50)
    assert np.array_equal(bits(buf.finalize()), bits(ref.finalize()))
