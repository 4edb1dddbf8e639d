"""PARTITIONANDAGGREGATE (Algorithm 4): radix partition + HASHAGGREGATION."""
import numpy as np
import pytest

from repro.aggregate import hash_aggregate, make_acc, partition_and_aggregate
from repro.aggregate.partition_agg import parallel_partition
from repro.core import _kernels
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


@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("kind,kw", [
    ("builtin", {}), ("builtin", {"dtype": np.float32}),
    ("decimal", {"p": 9}), ("decimal", {"p": 38}),
])
@pytest.mark.parametrize("batch", [1 << 16, 999])
def test_flat_types_bit_equal_to_plain_hash_agg(d, kind, kw, batch):
    """The partition is stable and partitions hold disjoint groups, so
    each group gets the same adds in the same order at any depth: even
    order-dependent built-in floats keep their bits, those of one pass
    over the unpartitioned rows in ``update`` calls of ``batch`` rows."""
    dist = "prices" if kind == "decimal" else "mixed"
    keys, vals = np_groupby_input(30000, 1000, dist=dist, seed=d)
    ref = make_acc(kind, 1000, **kw)
    for i in range(0, keys.size, batch):
        ref.update(keys[i:i + batch], vals[i:i + batch])
    got = partition_and_aggregate(keys, vals, 1000, kind=kind, d=d, **kw)
    assert got.result_bits() == ref.result_bits()


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


@pytest.mark.parametrize("key", [1000, -1])
@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("kind,kw", [
    ("builtin", {}), ("decimal", {"p": 19}), ("repro", {"L": 2}),
    ("repro_buffered", {"L": 2}),
])
def test_out_of_range_key_raises(kind, kw, d, key):
    """A key outside [0, n_groups) is an error at every depth, never a
    dropped row or a wrapped index."""
    keys = np.array([0, 5, key], np.int64)
    vals = np.array([1.0, 2.0, 4.0])
    with pytest.raises(IndexError, match=str(key)):
        partition_and_aggregate(keys, vals, 1000, kind=kind, d=d, **kw)


def test_high_digit_routing_owns_contiguous_slices():
    """At d = 1 partition p holds exactly the keys of [p << s, (p+1) << s),
    so its groups form one slice of the shared table."""
    keys, vals = np_groupby_input(20000, 1000, seed=3)
    pk, pv, bounds = _kernels.partition(keys, vals, 256, 2)  # 256 << 2 >= 1000
    for p in range(256):
        assert np.all(pk[bounds[p]:bounds[p + 1]] >> 2 == p)
    order = np.argsort(keys >> 2, kind="stable")
    assert np.array_equal(pk, keys[order]) and np.array_equal(pv, vals[order])


_KINDS = [("builtin", {}), ("builtin", {"dtype": np.float32}), ("decimal", {"p": 19}),
          ("repro", {"L": 2}), ("repro_buffered", {"L": 2})]


@pytest.mark.parametrize("kind,kw", _KINDS)
def test_partition_output_reuse_keeps_bits(kind, kw):
    """Calls back to back on one thread (large, small, another value dtype,
    large again) share the partition output; each result is bit-equal to
    ``hash_aggregate`` on the unpartitioned rows, and no later call
    changes an earlier result."""
    dist = "prices" if kind == "decimal" else "mixed"
    runs = []
    for n, G, dtype in ((40_000, 3000, np.float64), (3_000, 500, np.float64),
                        (20_000, 3000, np.float32), (40_000, 3000, np.float64)):
        keys, vals = np_groupby_input(n, G, dist=dist, seed=n + G)
        vals = vals.astype(dtype)
        acc = partition_and_aggregate(keys, vals, G, kind=kind, d=1, **kw)
        want = hash_aggregate(keys, vals, G, kind=kind, **kw).result_bits()
        assert acc.result_bits() == want
        runs.append((acc, want))
    assert all(acc.result_bits() == want for acc, want in runs)


def test_concurrent_calls_on_two_threads():
    """Two Python threads run the operator at once on different inputs
    (the kernels release the interpreter lock), each with its own
    partition output: every result keeps its bits."""
    import sys
    import threading
    G, rounds = 1 << 14, 12
    inputs = [np_groupby_input((1 << 17) + 5000 * t, G, dist="mixed", seed=t)
              for t in range(2)]
    want = [hash_aggregate(k, v, G, kind="repro", L=2).result_bits()
            for k, v in inputs]
    got = [[], []]
    start = threading.Barrier(2, timeout=60)

    def run(t):
        k, v = inputs[t]
        start.wait()
        for _ in range(rounds):
            got[t].append(partition_and_aggregate(k, v, G, kind="repro_buffered",
                                                  d=1, L=2).result_bits())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == [[want[0]] * rounds, [want[1]] * rounds]
