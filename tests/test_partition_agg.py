"""PARTITIONANDAGGREGATE (Algorithm 4): partitioning + private tables + merge."""
import numpy as np
import pytest

from repro.aggregate import (
    hash_aggregate,
    parallel_partition,
    partition_and_aggregate,
)
from repro.synth_data import np_groupby_input


class TestParallelPartition:
    def test_routes_by_low_bits(self):
        keys = np.arange(1000, dtype=np.int64)
        vals = keys.astype(np.float64)
        pk, pv, bounds = parallel_partition(keys, vals, 8)
        for p in range(8):
            part = pk[bounds[p]:bounds[p + 1]]
            assert np.all(part & 7 == p)
        assert bounds[-1] == 1000

    def test_pairs_stay_together(self):
        keys, vals = np_groupby_input(5000, 64, seed=1)
        pk, pv, _ = parallel_partition(keys, vals, 16)
        order = np.lexsort((vals, keys))
        order2 = np.lexsort((pv, pk))
        assert np.array_equal(keys[order], pk[order2])
        assert np.array_equal(vals[order], pv[order2])

    def test_stable_within_partition(self):
        keys = np.array([2, 0, 2, 2, 0], dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        pk, pv, bounds = parallel_partition(keys, vals, 2)
        assert np.array_equal(pv[bounds[0]:bounds[1]], [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            parallel_partition(np.array([0]), np.array([1.0]), 3)

    @pytest.mark.parametrize("F", [1, 2, 256, 4096])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16])
    def test_equals_stable_argsort(self, F, dtype):
        """The counting sort gives exactly what a stable argsort on the
        partition id gives, for any value width, row shape and key sign."""
        rng = np.random.default_rng(F)
        keys = rng.integers(-(1 << 40), 1 << 40, 20_000)
        for vals in (rng.standard_normal(20_000).astype(dtype),
                     rng.standard_normal((20_000, 3)).astype(dtype)):
            order = np.argsort(keys & (F - 1), kind="stable")
            counts = np.bincount(keys & (F - 1), minlength=F)
            pk, pv, bounds = parallel_partition(keys, vals, F)
            assert np.array_equal(pk, keys[order])
            assert np.array_equal(pv, vals[order]) and pv.dtype == vals.dtype
            assert np.array_equal(bounds, np.concatenate([[0], np.cumsum(counts)]))


@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("kind,kw", [
    ("repro", {"L": 2}),
    ("repro_buffered", {"L": 2}),
    ("repro_buffered", {"L": 4}),
])
def test_bit_equal_to_plain_hash_agg(d, kind, kw):
    """Any depth, any buffering: identical bits to one-pass aggregation."""
    keys, vals = np_groupby_input(30000, 700, dist="mixed", seed=d)
    ref = hash_aggregate(keys, vals, 700, kind="repro", L=kw["L"]).result_bits()
    got = partition_and_aggregate(keys, vals, 700, kind=kind, d=d, **kw).result_bits()
    assert got == ref


@pytest.mark.parametrize("kind,kw", [("builtin", {}), ("decimal", {"p": 19})])
@pytest.mark.parametrize("d", [0, 1])
def test_totals_match_for_flat_types(kind, kw, d):
    dist = "prices" if kind == "decimal" else "uniform12"
    keys, vals = np_groupby_input(20000, 300, dist=dist, seed=d)
    ref = hash_aggregate(keys, vals, 300, kind=kind, **kw).finalize()
    got = partition_and_aggregate(keys, vals, 300, kind=kind, d=d, **kw).finalize()
    assert np.allclose(got, ref, rtol=1e-12)


def test_permutation_reproducibility_through_partitioning():
    keys, vals = np_groupby_input(40000, 5000, dist="mixed", seed=9)
    a = partition_and_aggregate(keys, vals, 5000, kind="repro_buffered", d=1, L=2)
    p = np.random.default_rng(0).permutation(keys.size)
    b = partition_and_aggregate(keys[p], vals[p], 5000, kind="repro_buffered", d=1, L=2)
    assert a.result_bits() == b.result_bits()


def test_default_depth_applies():
    """d=None routes through the depth model without error."""
    keys, vals = np_groupby_input(20000, 1 << 11, seed=4)
    acc = partition_and_aggregate(keys, vals, 1 << 11, kind="repro_buffered", L=2)
    ref = hash_aggregate(keys, vals, 1 << 11, kind="repro", L=2)
    assert acc.result_bits() == ref.result_bits()


def test_group_count_smaller_than_fanout():
    keys, vals = np_groupby_input(3000, 5, seed=5)
    acc = partition_and_aggregate(keys, vals, 5, kind="repro", d=1, L=2)
    ref = hash_aggregate(keys, vals, 5, kind="repro", L=2)
    assert acc.result_bits() == ref.result_bits()


def test_non_multiple_group_count():
    """n_groups not divisible by the fan-out (short last partitions)."""
    G = 1000  # not a multiple of 256
    keys, vals = np_groupby_input(20000, G, seed=6)
    for kind, kw in [("builtin", {}), ("repro", {"L": 2})]:
        acc = partition_and_aggregate(keys, vals, G, kind=kind, d=1, **kw)
        ref = hash_aggregate(keys, vals, G, kind=kind, **kw)
        assert np.allclose(acc.finalize(), ref.finalize(), rtol=1e-12)
