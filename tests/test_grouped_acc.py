"""GroupedBinnedAcc — the GROUPBY state (unbuffered deposit path)."""
import re
from fractions import Fraction

import numpy as np
import pytest

from repro.core import EMPTY_E, GroupedBinnedAcc
from repro.synth_data import np_groupby_input


def bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64) if a.dtype == np.float64 else a.view(np.int32)


def _out_of_range(key, n: int) -> str:
    return re.escape(f"key {key} is out of range [0, {n})")


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
        """A table built without a size grows to its largest key."""
        keys, vals = np_groupby_input(5000, 11, dist="uniform12", dtype=dtype, seed=L)
        acc = GroupedBinnedAcc(L=L, dtype=dtype).update(keys * 3, vals)
        assert acc.n_slots == 31 and np.array_equal(acc.keys(), np.arange(31))
        got = acc.finalize()[:, 0]
        for k in range(31):
            want = one_group_sum(vals[keys * 3 == k], L, dtype) if k % 3 == 0 else 0
            assert got[k] == want


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
        """A key given twice in one call raises before anything changes;
        the 5 partials of the Spark post-shuffle shape, merged one call
        each, give the one-pass bits."""
        keys, vals = np_groupby_input(12000, 20, dist="uniform12", seed=5)
        ref = GroupedBinnedAcc(L=2, dense_n_groups=20).update(keys, vals).finalize()
        parts = [GroupedBinnedAcc(L=2).update(ks, vs).export_states()
                 for ks, vs in zip(np.array_split(keys, 5), np.array_split(vals, 5))]
        target = GroupedBinnedAcc(L=2, dense_n_groups=20)
        with pytest.raises(ValueError, match="at most one row per key"):
            target.merge_state_rows(*(np.concatenate(x) for x in zip(*parts[:2])))
        assert np.all(target.e_top == EMPTY_E)
        for part in parts:
            target.merge_state_rows(*part)
        assert np.array_equal(bits(target.finalize()), bits(ref))

    def test_merge_leaves_its_argument_unchanged(self):
        """``a.merge(b)`` folds copies of b's rows: b keeps its unfolded
        (here negative) deviations bit for bit."""
        keys, vals = np_groupby_input(20000, 50, dist="mixed", seed=4)
        vals[::3] *= -1
        a = GroupedBinnedAcc(L=2, dense_n_groups=50).update(keys[:9000], vals[:9000])
        b = GroupedBinnedAcc(L=2, dense_n_groups=50).update(keys[9000:], vals[9000:])
        before = b.e_top.copy(), b.dev.copy(), b.C.copy()
        assert np.any(b.dev < 0)
        a.merge(b)
        for x, y in zip(before, (b.e_top, b.dev, b.C)):
            assert np.array_equal(x, y)

    def test_empty_rows_are_identities(self):
        """An ``EMPTY_E`` row adds nothing, whatever its levels hold, and
        its key still appears in a growing table."""
        acc = GroupedBinnedAcc(L=2).update([0], [3.0])
        want = acc.export_states()
        acc.merge_state_rows([0, 4], [EMPTY_E, EMPTY_E], [[7, 7], [7, 7]], [[1, 1], [1, 1]])
        keys, e, d, c = acc.export_states()
        assert keys.tolist() == [0, 1, 2, 3, 4]
        assert e[0] == want[1][0] and np.all(e[1:] == EMPTY_E)
        assert np.array_equal(d[:1], want[2]) and np.array_equal(c[:1], want[3])
        assert not d[1:].any() and not c[1:].any()

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
        assert acc.keys().tolist() == list(range(7))
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

    @pytest.mark.parametrize("fast", [True, False])
    def test_rejects_non_integer_and_negative_keys(self, fast):
        """Keys are slot ids: others are factorised by the caller."""
        with pytest.raises(TypeError, match="integer slot ids"):
            GroupedBinnedAcc(L=2).update(np.array(["a", "b"]), [1.0, 2.0], fast=fast)
        for acc, n in ((GroupedBinnedAcc(L=2), 1 << 63),
                       (GroupedBinnedAcc(L=2, dense_n_groups=4), 4)):
            for key in (-1, 1 << 63):
                keys = np.array([0, key], np.int64 if key < 0 else np.uint64)
                with pytest.raises(IndexError, match=_out_of_range(key, n)):
                    acc.update(keys, [1.0, 2.0], fast=fast)
        dense = GroupedBinnedAcc(L=2, dense_n_groups=4)
        with pytest.raises(IndexError, match=_out_of_range(7, 4)):
            dense.update([0, 7], [1.0, 2.0], fast=fast)
        with pytest.raises(IndexError, match=_out_of_range(7, 4)):
            dense.merge_state_rows([7], [0], [[0, 0]], [[0, 0]])

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

    def test_merge_many_rows_for_one_slot(self):
        """10 000 one-row merges of the largest folded deviation into one
        slot: unfolded, their deviations would sum past 2**63 units, so
        the merge must renormalise between calls to stay exact."""
        n, dev = 10_000, (1 << 50) - 1
        acc = GroupedBinnedAcc(L=1, dense_n_groups=1)
        for _ in range(n):
            acc.merge_state_rows([0], [0], [[dev]], [[0]])
        _, e, d, c = acc.export_states()
        assert n * dev >= 1 << 63
        assert (d[0, 0], c[0, 0]) == (n * dev % (1 << 50), n * dev >> 50)
        want = float(Fraction(n * dev, 1 << 52))  # window 0: units of 2**-52
        assert acc.finalize()[0, 0] == want

    def test_carry_sum_past_int64_raises(self):
        """Carries of ``2**62`` merged twice at one level leave int64: the
        second merge raises, as ``Math.addExact`` does in the JVM, and
        changes nothing, also when it would have raised the slot's window
        a level. A carry that the fold at export or finalize would push
        past int64 raises there too."""
        acc = GroupedBinnedAcc(L=1, dense_n_groups=1)
        acc.merge_state_rows([0], [0], [[0]], [[1 << 62]])
        with pytest.raises(OverflowError, match="exceeds the range of int64"):
            acc.merge_state_rows([0], [0], [[0]], [[1 << 62]])
        assert acc.export_states()[3][0, 0] == 1 << 62
        W = acc.fmt.W
        acc = GroupedBinnedAcc(L=2, dense_n_groups=1)
        acc.merge_state_rows([0], [0], [[5, 0]], [[1 << 62, 0]])
        with pytest.raises(OverflowError):  # level 0 lands on the row's level 1
            acc.merge_state_rows([0], [W], [[0, 0]], [[0, 1 << 62]])
        _, e, d, c = acc.export_states()
        assert (e[0], d.tolist(), c.tolist()) == (0, [[5, 0]], [[1 << 62, 0]])
        top = GroupedBinnedAcc(L=1, dense_n_groups=1)
        top.merge_state_rows([0], [0], [[(1 << 50) - 1]], [[(1 << 63) - 1]])
        top.merge_state_rows([0], [0], [[1]], [[0]])  # dev = 2**50 unfolded
        with pytest.raises(OverflowError):
            top.export_states()
        with pytest.raises(OverflowError):
            top.finalize()

    def test_failed_merge_changes_nothing(self):
        """Every check of a merge runs before the table changes: a
        duplicate key leaves a growing table its size, and a column that
        overflows leaves the columns before it unmerged."""
        acc = GroupedBinnedAcc(L=1)
        with pytest.raises(ValueError, match="at most one row per key"):
            acc.merge_state_rows([3, 3], [0, 0], [[1], [1]], [[0], [0]])
        assert acc.n_slots == 0
        a = GroupedBinnedAcc(L=1, ncols=2, dense_n_groups=1).update([0], [[1.0, 2.0]])
        a.C[1, 0, 0] = 1 << 62
        b = GroupedBinnedAcc(L=1, ncols=2, dense_n_groups=1).update([0], [[4.0, 2.0]])
        b.C[1, 0, 0] = 1 << 62
        before = a.e_top.copy(), a.dev.copy(), a.C.copy()
        with pytest.raises(OverflowError):
            a.merge(b)
        for x, y in zip(before, (a.e_top, a.dev, a.C)):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "growing"])
    @pytest.mark.parametrize("keys,vals,exc", [
        pytest.param([0, 3], [1e10, np.nan], ValueError, id="nan"),
        pytest.param([0, 3], [1e10, 1e308], ValueError, id="above-rail"),
        pytest.param([0, 3, -1], [1e10, 1.0, 1.0], IndexError, id="bad-key"),
        pytest.param([0, 3], [[1e10, 1.0], [1.0, 1.0]], ValueError, id="two-columns"),
    ])
    def test_failed_update_changes_nothing(self, keys, vals, exc, dense, fast):
        """Shape, values (finite and below the upper guard rail) and keys
        are checked before the table grows or a window moves: a growing
        table keeps its size, and rows wider than the table raise instead
        of losing columns."""
        acc = GroupedBinnedAcc(L=2, dense_n_groups=4 if dense else None)
        acc.update([0, 2], [1.0, 3.0], fast=fast)
        before = acc.n_slots, acc.e_top.copy(), acc.dev.copy(), acc.C.copy()
        with pytest.raises(exc):
            acc.update(keys, vals, fast=fast)
        assert acc.n_slots == before[0]
        for x, y in zip(before[1:], (acc.e_top, acc.dev, acc.C)):
            assert np.array_equal(x, y)

    def test_L_outside_the_normal_extractors_raises(self):
        """L is checked at construction, with ``repro_sum``'s limits."""
        for dtype, max_L in ((np.float64, 27), (np.float32, 9)):
            GroupedBinnedAcc(L=max_L, dtype=dtype)
            for L in (0, max_L + 1):
                with pytest.raises(ValueError, match=rf"L={L} is outside \[1, {max_L}\]"):
                    GroupedBinnedAcc(L=L, dtype=dtype)

    def test_export_roundtrip(self):
        keys, vals = np_groupby_input(5000, 8, dist="mixed", seed=8)
        acc = GroupedBinnedAcc(L=2, dense_n_groups=8).update(keys, vals)
        k, e, d, c = acc.export_states()
        back = GroupedBinnedAcc(L=2, dense_n_groups=8)
        back.merge_state_rows(k, e, d, c)
        assert np.array_equal(bits(back.finalize()), bits(acc.finalize()))
