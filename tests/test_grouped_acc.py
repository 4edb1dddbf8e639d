"""GroupedBinnedAcc — the GROUPBY state (unbuffered deposit path)."""
from fractions import Fraction

import numpy as np
import pytest

from repro.core import GroupedBinnedAcc
from repro.synth_data import np_groupby_input


def bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64) if a.dtype == np.float64 else a.view(np.int32)


def one_group_sum(vals: np.ndarray, L: int = 2, dtype=np.float64):
    """Reference: the unbuffered per-element NumPy path over one group."""
    acc = GroupedBinnedAcc(L=L, dtype=dtype, dense_n_groups=1)
    return acc.update(np.zeros(vals.size, np.int64), vals, fast=False).finalize()[0, 0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("L", [1, 2, 3])
class TestAgainstPerGroupReference:
    def test_dense(self, dtype, L):
        keys, vals = np_groupby_input(20000, 37, dist="mixed", dtype=dtype, seed=L)
        acc = GroupedBinnedAcc(L=L, dtype=dtype, dense_n_groups=37).update(keys, vals)
        got = acc.finalize()[:, 0]
        for k in range(37):
            assert got[k] == one_group_sum(vals[keys == k], L, dtype)

    def test_keyed(self, dtype, L):
        keys, vals = np_groupby_input(5000, 11, dist="uniform12", dtype=dtype, seed=L)
        skeys = np.array([f"g{k:02d}" for k in keys])
        acc = GroupedBinnedAcc(L=L, dtype=dtype).update(skeys, vals)
        got = dict(zip(acc.keys().tolist(), acc.finalize()[:, 0]))
        for k in range(11):
            assert got[f"g{k:02d}"] == one_group_sum(vals[keys == k], L, dtype)


class TestInvariance:
    def test_batching_invariance(self):
        keys, vals = np_groupby_input(30000, 100, dist="mixed", seed=2)
        ref = GroupedBinnedAcc(L=2, dense_n_groups=100).update(keys, vals).finalize()
        for nb in (1, 7, 100):
            acc = GroupedBinnedAcc(L=2, dense_n_groups=100)
            for ks, vs in zip(np.array_split(keys, nb), np.array_split(vals, nb)):
                acc.update(ks, vs)
            assert np.array_equal(bits(acc.finalize()), bits(ref))

    def test_permutation_invariance(self):
        keys, vals = np_groupby_input(30000, 64, dist="mixed", seed=3)
        ref = GroupedBinnedAcc(L=3, dense_n_groups=64).update(keys, vals).finalize()
        for s in range(3):
            p = np.random.default_rng(s).permutation(keys.size)
            acc = GroupedBinnedAcc(L=3, dense_n_groups=64).update(keys[p], vals[p])
            assert np.array_equal(bits(acc.finalize()), bits(ref))

    def test_merge_equals_single_pass(self):
        keys, vals = np_groupby_input(20000, 50, dist="mixed", seed=4)
        ref = GroupedBinnedAcc(L=2, dense_n_groups=50).update(keys, vals).finalize()
        a = GroupedBinnedAcc(L=2, dense_n_groups=50).update(keys[:9000], vals[:9000])
        b = GroupedBinnedAcc(L=2, dense_n_groups=50).update(keys[9000:], vals[9000:])
        assert np.array_equal(bits(a.merge(b).finalize()), bits(ref))

    def test_merge_state_rows_with_duplicate_keys(self):
        """Several partial rows per key (the Spark post-shuffle shape)."""
        keys, vals = np_groupby_input(12000, 20, dist="uniform12", seed=5)
        ref = GroupedBinnedAcc(L=2, dense_n_groups=20).update(keys, vals).finalize()
        parts = []
        for ks, vs in zip(np.array_split(keys, 5), np.array_split(vals, 5)):
            parts.append(GroupedBinnedAcc(L=2).update(ks, vs).export_states())
        target = GroupedBinnedAcc(L=2, dense_n_groups=20)
        allk = np.concatenate([p[0] for p in parts]).astype(np.int64)
        alle = np.concatenate([p[1] for p in parts])
        alld = np.concatenate([p[2] for p in parts])
        allc = np.concatenate([p[3] for p in parts])
        target.merge_state_rows(allk, alle, alld, allc)
        assert np.array_equal(bits(target.finalize()), bits(ref))

    def test_merge_windows_differ(self):
        """Merging a huge-magnitude partial into a small-magnitude one."""
        a = GroupedBinnedAcc(L=2, dense_n_groups=1).update([0], [1e-6])
        b = GroupedBinnedAcc(L=2, dense_n_groups=1).update([0], [1e12])
        ref = GroupedBinnedAcc(L=2, dense_n_groups=1).update([0, 0], [1e-6, 1e12])
        m1 = a.merge(b).finalize()
        assert np.array_equal(bits(m1), bits(ref.finalize()))

    def test_merge_empty_rows_materialise_keys(self):
        acc = GroupedBinnedAcc(L=2)
        empty = GroupedBinnedAcc(L=2).update(np.array([5, 6]), np.array([0.0, 0.0]))
        acc.merge(empty)
        assert set(acc.keys().tolist()) == {5, 6}
        assert np.all(acc.finalize() == 0.0)


class TestMultiColumn:
    def test_two_columns_independent(self):
        keys, v1 = np_groupby_input(8000, 16, dist="uniform12", seed=6)
        _, v2 = np_groupby_input(8000, 16, dist="mixed", seed=7)
        acc = GroupedBinnedAcc(L=2, ncols=2, dense_n_groups=16)
        acc.update(keys, np.column_stack([v1, v2]))
        got = acc.finalize()
        for k in range(16):
            assert got[k, 0] == one_group_sum(v1[keys == k])
            assert got[k, 1] == one_group_sum(v2[keys == k])

    def test_wrong_ncols_raises(self):
        acc = GroupedBinnedAcc(L=2, ncols=2, dense_n_groups=4)
        with pytest.raises(ValueError):
            acc.update(np.array([0, 1]), np.array([1.0, 2.0]))


class TestEdgeCases:
    def test_untouched_groups_zero(self):
        acc = GroupedBinnedAcc(L=2, dense_n_groups=10).update([3], [5.0])
        out = acc.finalize()[:, 0]
        assert out[3] == 5.0 and np.all(out[np.arange(10) != 3] == 0.0)

    def test_all_zero_group(self):
        acc = GroupedBinnedAcc(L=2, dense_n_groups=2).update([0, 0, 1], [0.0, 0.0, 1.0])
        assert acc.finalize()[0, 0] == 0.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            GroupedBinnedAcc(dense_n_groups=1).update([0], [np.nan])

    def test_large_stream_renorm_path(self):
        """More than 2**22 deposits forces the lazy renormalisation."""
        acc = GroupedBinnedAcc(L=1, dense_n_groups=1)
        chunk = np.full(1 << 20, 1.0)
        for _ in range(5):
            acc.update(np.zeros(chunk.size, np.int64), chunk)
        assert acc.finalize()[0, 0] == float(5 << 20)

    def test_merge_many_rows_for_one_slot_in_one_call(self):
        """20 000 canonical rows of the largest deviation for one slot in
        one call: their deviations sum to 2**64.3 units, so the merge must
        renormalise inside the call to stay exact."""
        n, dev = 20_000, (1 << 50) - 1
        rows = (np.zeros(n, np.int64), np.zeros(n, np.int64),
                np.full((n, 1), dev, np.int64), np.zeros((n, 1), np.int64))
        acc = GroupedBinnedAcc(L=1, dense_n_groups=1)
        acc.merge_state_rows(*rows)
        want = float(Fraction(n * dev, 1 << 52))  # window 0: units of 2**-52
        assert acc.finalize()[0, 0] == want
        split = GroupedBinnedAcc(L=1, dense_n_groups=1)
        for i in range(0, n, 1000):
            split.merge_state_rows(*(x[i:i + 1000] for x in rows))
        assert np.array_equal(acc.export_states()[2], split.export_states()[2])

    def test_export_roundtrip(self):
        keys, vals = np_groupby_input(5000, 8, dist="mixed", seed=8)
        acc = GroupedBinnedAcc(L=2, dense_n_groups=8).update(keys, vals)
        k, e, d, c = acc.export_states()
        back = GroupedBinnedAcc(L=2, dense_n_groups=8)
        back.merge_state_rows(k, e, d, c)
        assert np.array_equal(bits(back.finalize()), bits(acc.finalize()))
