"""Accumulator backends: builtin, DECIMAL(p), repro (un)buffered."""
import math
import re

import numpy as np
import pytest

from repro.aggregate import make_acc
from repro.synth_data import np_groupby_input


class TestBuiltin:
    def test_matches_numpy_scatter(self):
        keys, vals = np_groupby_input(5000, 16, seed=1)
        acc = make_acc("builtin", 16)
        acc.update(keys, vals)
        ref = np.zeros(16)
        np.add.at(ref, keys, vals)
        assert np.array_equal(acc.finalize(), ref)

    def test_float32_table(self):
        acc = make_acc("builtin", 4, dtype=np.float32)
        acc.update(np.array([0, 0]), np.array([1.5, 2.5]))
        assert acc.table.dtype == np.float32
        assert acc.finalize()[0] == 4.0

    def test_merge_from_stride(self):
        a = make_acc("builtin", 8)
        b = make_acc("builtin", 2)
        b.update(np.array([0, 1]), np.array([1.0, 2.0]))
        a.merge_from(b, base=3, stride=4)  # local i -> 3 + 4i
        out = a.finalize()
        assert out[3] == 1.0 and out[7] == 2.0 and out.sum() == 3.0


class TestDecimal:
    @pytest.mark.parametrize("p", [9, 19, 38])
    def test_exact_on_prices(self, p):
        keys, vals = np_groupby_input(20000, 32, dist="prices", seed=p)
        acc = make_acc("decimal", 32, p=p)
        acc.update(keys, vals)
        want = [round(math.fsum(np.round(vals[keys == k] * 100).tolist()))
                for k in range(32)]
        if p == 9:  # int32 storage may wrap for large groups — skip exactness
            want32 = [np.int32(w) for w in want]
            assert acc.exact_ints() == [int(w) for w in want32]
        else:
            assert acc.exact_ints() == want

    @pytest.mark.parametrize("p", [19, 38])
    def test_reproducible_by_construction(self, p):
        keys, vals = np_groupby_input(10000, 8, dist="prices", seed=3)
        a = make_acc("decimal", 8, p=p)
        a.update(keys, vals)
        perm = np.random.default_rng(0).permutation(keys.size)
        b = make_acc("decimal", 8, p=p)
        b.update(keys[perm], vals[perm])
        assert a.result_bits() == b.result_bits()

    def test_storage_widths(self):
        assert make_acc("decimal", 1, p=9).table.dtype == np.int32
        assert make_acc("decimal", 1, p=19).table.dtype == np.int64
        assert make_acc("decimal", 1, p=38)._two_limb

    def test_two_limb_carries(self):
        acc = make_acc("decimal", 1, p=38, frac=0)
        big = float(2**40)
        acc.update(np.zeros(4096, np.int64), np.full(4096, big))
        assert acc.exact_ints()[0] == 4096 * 2**40

    @pytest.mark.parametrize("p,x", [
        (19, np.nan), (19, np.inf), (19, -np.inf), (9, 2e7), (9, -1e7),
        (9, 9999999.996), (19, 1e17), (38, 1e17),
    ])
    def test_rejects_values_it_cannot_hold(self, p, x):
        """NaN/Inf and values whose scaled integer leaves DECIMAL(p) or
        int64 raise, naming the value, before the table changes: NaN does
        not sum to an int64 cast, nor 2e7 at p = 9 to a wrapped int32."""
        acc = make_acc("decimal", 2, p=p)
        acc.update(np.array([0]), np.array([1.0]))
        before = acc.result_bits()
        with pytest.raises(ValueError, match=re.escape(f"cannot hold {x}")):
            acc.update(np.array([1, 0]), np.array([1.0, x]))
        assert acc.result_bits() == before

    @pytest.mark.parametrize("p,x,units", [
        (9, 9999999.99, 10**9 - 1), (9, -9999999.994, 1 - 10**9),
        (19, 9.2e16, 92 * 10**17),
    ])
    def test_holds_values_up_to_its_bound(self, p, x, units):
        """The largest magnitude DECIMAL(p, 2) holds is 10**p - 1 units, and
        the int64 cast's 2**63 - 1 past p = 18."""
        acc = make_acc("decimal", 1, p=p)
        acc.update(np.array([0]), np.array([x]))
        assert acc.exact_ints() == [units]

    def test_cannot_represent_wide_dynamic_range(self):
        """The paper's point (Section II-C): fixed-point loses tiny values."""
        acc = make_acc("decimal", 1, p=19, frac=2)
        acc.update(np.array([0, 0]), np.array([1e-6, 1e-6]))
        assert acc.finalize()[0] == 0.0  # rounded away at scale 10**2


class TestRepro:
    @pytest.mark.parametrize("kind", ["repro", "repro_buffered"])
    @pytest.mark.parametrize("L", [1, 2, 4])
    def test_bits_stable_under_permutation(self, kind, L):
        keys, vals = np_groupby_input(8000, 25, dist="mixed", seed=L)
        a = make_acc(kind, 25, L=L)
        a.update(keys, vals)
        perm = np.random.default_rng(1).permutation(keys.size)
        b = make_acc(kind, 25, L=L)
        b.update(keys[perm], vals[perm])
        assert a.result_bits() == b.result_bits()

    def test_buffered_equals_unbuffered_bits(self):
        keys, vals = np_groupby_input(8000, 25, dist="mixed", seed=7)
        a = make_acc("repro", 25, L=3)
        a.update(keys, vals)
        b = make_acc("repro_buffered", 25, L=3)
        b.update(keys, vals)
        assert a.result_bits() == b.result_bits()

    def test_merge_from_stride(self):
        """Private tables of 4 partitions, partition p holding the groups
        ``p + 4i``, merged into a shared table with a stride (the last
        partitions are short): the bits of one pass."""
        keys, vals = np_groupby_input(5000, 30, dist="mixed", seed=2)
        one = make_acc("repro", 30, L=2)
        one.update(keys, vals)
        shared = make_acc("repro", 30, L=2)
        for p in range(4):
            sel = keys % 4 == p
            private = make_acc("repro", 8, L=2)
            private.update(keys[sel] // 4, vals[sel])
            shared.merge_from(private, base=p, stride=4)
        assert shared.result_bits() == one.result_bits()

    def test_float32_finalize_dtype(self):
        acc = make_acc("repro", 4, dtype=np.float32, L=2)
        acc.update(np.array([1]), np.array([2.5], np.float32))
        assert acc.finalize()[1] == 2.5


@pytest.mark.parametrize("key,dtype", [
    pytest.param(-1, np.int64, id="-1"),
    pytest.param(4, np.int64, id="4"),
    pytest.param(1 << 63, np.uint64, id="uint64-2**63"),
])
@pytest.mark.parametrize("kind", ["builtin", "decimal", "repro", "repro_buffered"])
def test_update_rejects_keys_outside_the_table(kind, key, dtype):
    """Every kind's own ``update`` names a key outside its table and adds
    nothing: -1 does not wrap into the last group."""
    acc = make_acc(kind, 4)
    acc.update(np.array([0, 3]), np.array([1.0, 2.0]))
    before = acc.result_bits()
    with pytest.raises(IndexError, match=re.escape(f"key {key} is out of range [0, 4)")):
        acc.update(np.array([1, key], dtype), np.array([1.0, 8.0]))
    assert acc.result_bits() == before


def test_make_acc_unknown_kind():
    with pytest.raises(KeyError):
        make_acc("nope", 1)
