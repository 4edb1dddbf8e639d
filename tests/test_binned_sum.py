"""BinnedSum (vectorized RSUM) — order independence, merges, accuracy."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BinnedSum, RsumScalar, rsum_bound

# Finite values inside the supported magnitude window (the binned format
# guards against windows whose lowest level would leave the normal
# exponent range — subnormal inputs raise by design, tested separately).
finite = st.floats(
    min_value=-1e30, max_value=1e30, allow_nan=False, allow_infinity=False
).filter(lambda x: x == 0 or abs(x) > 1e-250)


def bits(x) -> int:
    a = np.asarray(x)
    return int(a.view(np.int64) if a.dtype == np.float64 else a.view(np.int32))


class TestBasics:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_empty_is_zero(self, dtype, L):
        assert BinnedSum(L=L, dtype=dtype).finalize() == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zeros_only_is_zero(self, dtype):
        assert BinnedSum(dtype=dtype).add_vector([0.0, -0.0, 0.0]).finalize() == 0.0

    @pytest.mark.parametrize("x", [1.0, -1.0, 3.25, 1e10, 1e-10, 2.0**-40])
    def test_single_value_exact(self, x):
        assert BinnedSum(L=2).add(x).finalize() == x

    def test_single_value_exact_f32(self):
        x = np.float32(3.140625)
        assert BinnedSum(L=2, dtype=np.float32).add(x).finalize() == x

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_exactly_representable_sum(self, L):
        v = [1.0, 2.0, 4.0, 8.0, -3.0, 0.5]
        assert BinnedSum(L=L).add_vector(v).finalize() == 12.5

    def test_rejects_nan_inf(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                BinnedSum().add(bad)

    def test_rejects_L0(self):
        with pytest.raises(ValueError):
            BinnedSum(L=0)

    def test_rejects_L_past_the_normal_extractors(self):
        """``GroupedBinnedAcc(L=40)`` used to be accepted, and every
        nonzero value then raised at finalize."""
        with pytest.raises(ValueError, match=r"L=28 is outside \[1, 27\]"):
            BinnedSum(L=28)
        with pytest.raises(ValueError, match=r"L=10 is outside \[1, 9\]"):
            BinnedSum(L=10, dtype=np.float32)

    def test_out_of_range_magnitude_raises(self):
        with pytest.raises(ValueError):
            BinnedSum().add(1e305)

    def test_paper_motivating_example(self):
        """The Algorithm-1 cancellation: orders differ for IEEE, not here."""
        v = np.array([1.0, 1e16, -1e16])
        ieee_a = (v[0] + v[1]) + v[2]
        ieee_b = (v[1] + v[2]) + v[0]
        assert ieee_a != ieee_b  # the bug being fixed
        r = [BinnedSum(L=2).add_vector(v[list(p)]).finalize()
             for p in ([0, 1, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0])]
        assert len({bits(x) for x in r}) == 1


class TestOrderIndependence:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    @pytest.mark.parametrize("dist", ["uniform", "mixed", "signed"])
    def test_permutation_and_chunking_invariance(self, dtype, L, dist):
        rng = np.random.default_rng(hash((str(dtype), L, dist)) % 2**32)
        n = 5000
        if dist == "uniform":
            v = rng.random(n) + 1
        elif dist == "mixed":
            v = (rng.random(n) + 1) * 10.0 ** rng.integers(-6, 7, n)
        else:
            v = rng.standard_normal(n) * 100
        v = v.astype(dtype)
        ref = BinnedSum(L=L, dtype=dtype).add_vector(v).finalize()
        for seed in range(3):
            p = np.random.default_rng(seed).permutation(v)
            b = BinnedSum(L=L, dtype=dtype)
            for chunk in np.array_split(p, 1 + seed * 13):
                b.add_vector(chunk)
            assert bits(b.finalize()) == bits(ref)

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_merge_equals_concat(self, L):
        rng = np.random.default_rng(L)
        v = rng.standard_normal(4000) * 10.0 ** rng.integers(-3, 4, 4000)
        ref = BinnedSum(L=L).add_vector(v).finalize()
        for cut in (0, 1, 1999, 3999, 4000):
            a = BinnedSum(L=L).add_vector(v[:cut])
            b = BinnedSum(L=L).add_vector(v[cut:])
            assert bits(a.merge(b).finalize()) == bits(ref)

    def test_merge_associative(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal(3000)
        parts = np.array_split(v, 3)
        mk = lambda arr: BinnedSum(L=2).add_vector(arr)
        left = mk(parts[0]).merge(mk(parts[1])).merge(mk(parts[2]))
        right = mk(parts[0]).merge(mk(parts[1]).merge(mk(parts[2])))
        assert bits(left.finalize()) == bits(right.finalize())

    def test_merge_identity(self):
        v = np.random.default_rng(2).random(100)
        ref = BinnedSum(L=2).add_vector(v).finalize()
        assert bits(BinnedSum(L=2).add_vector(v).merge(BinnedSum(L=2)).finalize()) \
            == bits(ref)
        empty = BinnedSum(L=2).merge(BinnedSum(L=2).add_vector(v))
        assert bits(empty.finalize()) == bits(ref)

    def test_merge_rejects_mismatched(self):
        with pytest.raises(TypeError):
            BinnedSum(L=2).merge(BinnedSum(L=3))
        with pytest.raises(TypeError):
            BinnedSum(L=2).merge(BinnedSum(L=2, dtype=np.float32))

    def test_window_shift_mid_stream(self):
        """Small values first, then a huge one (level demotion, Fig. 2)."""
        small = np.full(100, 1e-8)
        big = np.array([1e12])
        v = np.concatenate([small, big])
        a = BinnedSum(L=2).add_vector(v).finalize()
        b = BinnedSum(L=2).add_vector(v[::-1]).finalize()
        assert bits(a) == bits(b)

    def test_extreme_magnitude_mix_drops_tail_reproducibly(self):
        """Values below the retained window are dropped identically in
        any order — reproducible even where accuracy is lost (L=1)."""
        v = np.array([1e30, 1e-30, -1e30, 1e-30] * 10)
        r = [BinnedSum(L=1).add_vector(np.random.default_rng(s).permutation(v))
             .finalize() for s in range(4)]
        assert len({bits(x) for x in r}) == 1


class TestAgainstScalarReference:
    """The vectorized kernel must agree bit-for-bit with Algorithm 2."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_random_streams(self, dtype, L):
        rng = np.random.default_rng(L * 7 + (dtype is np.float32))
        v = (rng.standard_normal(300) * 10.0 ** rng.integers(-4, 5, 300)).astype(dtype)
        sc = RsumScalar(L=L, dtype=dtype).add_many(v)
        vec = BinnedSum(L=L, dtype=dtype).add_vector(v)
        assert sc.state()[0] == vec.state()[0]
        assert np.array_equal(sc.state()[1], vec.state()[1])
        assert np.array_equal(sc.state()[2], vec.state()[2])
        assert bits(sc.finalize()) == bits(vec.finalize())

    @settings(max_examples=40, deadline=None)
    @given(st.lists(finite, min_size=0, max_size=60), st.integers(1, 3))
    def test_hypothesis_streams(self, xs, L):
        v = np.asarray(xs, np.float64)
        sc = RsumScalar(L=L).add_many(v)
        vec = BinnedSum(L=L).add_vector(v)
        assert bits(sc.finalize()) == bits(vec.finalize())
        e1, d1, c1 = sc.state()
        e2, d2, c2 = vec.state()
        assert e1 == e2 and np.array_equal(d1, d2) and np.array_equal(c1, c2)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(finite, min_size=1, max_size=40), st.randoms())
    def test_hypothesis_permutation(self, xs, rnd):
        v = list(xs)
        ref = BinnedSum(L=2).add_vector(np.asarray(v)).finalize()
        rnd.shuffle(v)
        assert bits(BinnedSum(L=2).add_vector(np.asarray(v)).finalize()) == bits(ref)


class TestAccuracy:
    @pytest.mark.parametrize("dist", ["uniform12", "exp1"])
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_within_eq6_bound(self, dist, L):
        rng = np.random.default_rng(L)
        n = 20000
        v = rng.random(n) + 1 if dist == "uniform12" else rng.exponential(1.0, n)
        exact = math.fsum(v.tolist())
        got = float(BinnedSum(L=L).add_vector(v).finalize())
        assert abs(got - exact) <= rsum_bound(n, float(np.max(np.abs(v))), L)

    def test_l2_comparable_to_conventional_l3_better(self):
        rng = np.random.default_rng(0)
        v = rng.exponential(1.0, 100000)
        exact = math.fsum(v.tolist())
        conv = abs(float(np.add.reduce(v)) - exact)
        e2 = abs(float(BinnedSum(L=2).add_vector(v).finalize()) - exact)
        e3 = abs(float(BinnedSum(L=3).add_vector(v).finalize()) - exact)
        # Table II: L=2 within a few orders of conventional; L=3 much tighter
        assert e2 <= max(conv * 1e3, 1e-6)
        assert e3 <= e2
        assert e3 <= 1e-9

    def test_higher_L_never_worse_on_cancellation(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal(1000) * 1e8
        v = np.concatenate([base, -base, rng.random(10)])
        exact = math.fsum(v.tolist())
        errs = [abs(float(BinnedSum(L=L).add_vector(v).finalize()) - exact)
                for L in (1, 2, 3, 4)]
        assert errs[2] <= errs[0] and errs[3] <= errs[1]
