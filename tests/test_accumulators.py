"""Accumulator backends: builtin, DECIMAL(p), repro (un)buffered."""
import itertools
import math
import re

import numpy as np
import pytest

from repro.aggregate import make_acc, partition_and_aggregate
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


def _largest(p: int) -> float:
    """The largest value DECIMAL(p, 2) holds: 10**p - 1 units, or the
    largest float64 whose units stay below the int64 cast's 2**63."""
    v = min(float(10**p - 1) / 100, 2.0**63 / 100)
    while np.rint(v * 100) >= min(10**p, 2**63):
        v = np.nextafter(v, 0)
    return float(v)


class TestDecimal:
    @pytest.mark.parametrize("p", [9, 19, 38])
    def test_exact_on_prices(self, p):
        keys, vals = np_groupby_input(20000, 32, dist="prices", seed=p)
        acc = make_acc("decimal", 32, p=p)
        acc.update(keys, vals)
        want = [round(math.fsum(np.round(vals[keys == k] * 100).tolist()))
                for k in range(32)]
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
        """Every p keeps its sums in one layout: two int64 limbs, the low
        31 bits in ``lo`` and the rest in ``hi``."""
        for p in (9, 19, 38):
            acc = make_acc("decimal", 3, p=p)
            assert acc.lo.dtype == acc.hi.dtype == np.int64
            assert acc.lo.shape == acc.hi.shape == (3,)
            acc.update(np.array([1, 1]), np.array([-0.01, -0.01]))
            assert acc.lo.tolist() == [0, 2**31 - 2, 0] and acc.hi.tolist() == [0, -1, 0]

    def test_two_limb_carries(self):
        """Carries out of ``lo`` fold into ``hi`` after every update, at
        every p: each negative row leaves ``lo`` near 2**31, and 4096 of
        them carry."""
        for p in (9, 19, 38):
            acc = make_acc("decimal", 1, p=p, frac=0)
            acc.update(np.zeros(4096, np.int64), np.full(4096, -1e5))
            assert acc.exact_ints()[0] == -4096 * 10**5 and 0 <= acc.lo[0] < 2**31
            big = float(2**40 if p > 9 else 2 * 10**5)
            acc.update(np.zeros(4096, np.int64), np.full(4096, big))
            assert acc.exact_ints()[0] == 4096 * (int(big) - 10**5)
            assert 0 <= acc.lo[0] < 2**31

    @pytest.mark.parametrize("p,n,x", [(9, 3, 9999999.99), (19, 2, 9.2e16)])
    def test_sums_past_the_bound_raise(self, p, n, x):
        """A group sum past 10**p - 1 units raises, naming the type and the
        group, where int32 or int64 storage would wrap: 3 x 9999999.99 once
        finalized to -12949672.99 at p = 9, 2 x 9.2e16 to -4.67e14 at p = 19."""
        acc = make_acc("decimal", 2, p=p)
        acc.update(np.ones(n, np.int64), np.full(n, x))
        msg = re.escape(f"DECIMAL({p}, 2) cannot hold group 1's sum")
        with pytest.raises(OverflowError, match=msg):
            acc.finalize()
        with pytest.raises(OverflowError, match=msg):
            acc.exact_ints()

    @pytest.mark.parametrize("p,rows", [
        (9, [9999999.98, 0.01]), (19, [9e16, 1e16, -0.01]),
    ])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_bound_is_ten_to_the_p_minus_one_units(self, p, rows, sign):
        """A sum of exactly ±(10**p - 1) units finalizes; one unit more raises."""
        acc = make_acc("decimal", 1, p=p)
        acc.update(np.zeros(len(rows), np.int64), sign * np.array(rows))
        assert acc.exact_ints() == [sign * (10**p - 1)]
        assert acc.finalize()[0] == sign * float(10**p - 1) / 100
        acc.update(np.zeros(1, np.int64), np.array([sign * 0.01]))
        with pytest.raises(OverflowError, match=re.escape(f"DECIMAL({p}, 2)")):
            acc.finalize()

    @pytest.mark.parametrize("p", [9, 19])
    def test_bound_checks_the_final_sum_only(self, p):
        """A sum that passes 10**p - 1 units in between and comes back by
        cancellation finalizes, in every order and every split into
        updates: order and split cannot decide whether a query raises."""
        big = _largest(p)
        vals = [big, big, -big, -big, 0.01]
        for order in itertools.permutations(vals):
            for cuts in range(16):  # every split of 5 rows into updates
                acc = make_acc("decimal", 1, p=p)
                start = 0
                for end in [i for i in range(1, 5) if cuts >> (i - 1) & 1] + [5]:
                    acc.update(np.zeros(end - start, np.int64), np.array(order[start:end]))
                    start = end
                assert acc.exact_ints() == [1]
                assert acc.finalize()[0] == 0.01

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_bound_outcome_is_the_same_at_every_depth(self, d):
        """Through ``partition_and_aggregate`` at any depth, a group whose sum
        passes the bound and comes back finalizes, and a group that ends
        past it raises, naming that group."""
        big = _largest(9)
        keys = np.repeat([700, 3, 700, 3, 3, 700], 2)
        vals = np.tile([big, -big], 6)
        vals[keys == 3] = [big, big, big, -big, -big, -big]
        acc = partition_and_aggregate(keys, vals, 1000, kind="decimal", d=d, p=9)
        assert acc.exact_ints()[3] == 0 and acc.finalize()[700] == 0.0
        vals[9] = big  # group 3's last row: it ends at 2 x big
        acc = partition_and_aggregate(keys, vals, 1000, kind="decimal", d=d, p=9)
        with pytest.raises(OverflowError, match=re.escape(
                "DECIMAL(9, 2) cannot hold group 3's sum of 1999999998 units")):
            acc.finalize()

    @pytest.mark.parametrize("p", [9, 19, 38])
    @pytest.mark.parametrize("batch", [1, 7, (1 << 16) + 1])
    def test_exact_on_the_largest_values(self, p, batch):
        """Rows of ±the largest value p holds, in updates of ``batch`` rows,
        sum to the exact Python-int sums in every group; each group's sum
        swings by the largest value from row to row."""
        G, n = 3, 2 * batch + 1001
        big = _largest(p)
        units = round(big * 100)
        keys = np.arange(n) % G
        signs = np.where(np.arange(n) // G % 2 == 0, 1, -1)
        acc = make_acc("decimal", G, p=p)
        for i in range(0, n, batch):
            acc.update(keys[i:i + batch], signs[i:i + batch] * big)
        want = [sum(int(s) * units for s in signs[keys == g]) for g in range(G)]
        assert acc.exact_ints() == want
        assert acc.finalize().tolist() == [float(w) / 100 for w in want]

    def test_headroom_raise_changes_nothing(self):
        """An update that could carry a group's ``hi`` limb past 2**62 (as
        2**30 rows of the largest values would leave it) raises before the
        table changes, naming the group; a smaller update still passes."""
        acc = make_acc("decimal", 3, p=38, frac=0)
        acc.update(np.array([0, 2]), np.array([1.0, 2.0]))
        acc.hi[1] = (1 << 62) - (2 << 32)
        before = acc.result_bits()
        with pytest.raises(OverflowError, match=re.escape(
                "DECIMAL(38, 0): 3 more rows could carry group 1's sum")):
            acc.update(np.array([0, 1, 2]), np.array([4.0, 8.0, 16.0]))
        assert acc.result_bits() == before
        acc.update(np.array([0, 1]), np.array([4.0, 8.0]))
        assert acc.exact_ints() == [5, ((1 << 62) - (2 << 32)) * 2**31 + 8, 2]

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
