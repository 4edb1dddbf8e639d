"""Algorithm 2 reference (RsumScalar): per-element mechanics."""
import math

import numpy as np
import pytest

from repro.core import EMPTY_E, BinnedSum, RsumScalar, fmt_for


class TestMechanics:
    def test_empty_state(self):
        s = RsumScalar(L=2)
        assert s.finalize() == 0.0
        assert s.state()[0] == EMPTY_E

    def test_zero_inputs_keep_state_empty(self):
        s = RsumScalar(L=2).add(0.0).add(-0.0)
        assert s.state()[0] == EMPTY_E and s.finalize() == 0.0

    def test_window_initialised_on_grid(self):
        s = RsumScalar(L=2).add(1.0)
        f = fmt_for(np.float64)
        assert s.e_top % f.W == 0
        assert s.e_top == int(f.top_exponent(1.0))

    def test_running_sums_initialised_at_1_5_ufp(self):
        s = RsumScalar(L=3).add(1.0)
        f = fmt_for(np.float64)
        for lev in range(3):
            e_l = s.e_top - lev * f.W
            assert 1.5 * 2.0**e_l <= s.S[lev] < 1.75 * 2.0**e_l

    def test_invariant_after_many_adds(self):
        """Carry propagation keeps S in [1.5, 1.75)*ufp (Alg. 2 lines 14-18)."""
        rng = np.random.default_rng(1)
        s = RsumScalar(L=2)
        for x in rng.standard_normal(500) * 50:
            s.add(x)
            for lev in range(2):
                e_l = s.e_top - lev * 40
                assert 1.5 * 2.0**e_l <= s.S[lev] < 1.75 * 2.0**e_l

    def test_level_demotion_on_large_value(self):
        """Figure 2's white box: a large value shifts the window up."""
        s = RsumScalar(L=2).add(1.0)
        e0 = s.e_top
        s.add(2.0**60)
        assert s.e_top > e0
        assert (s.e_top - e0) % 40 == 0

    def test_carry_counter_triggers(self):
        """Enough same-sign mass in one level must spill into C.

        2**26 is below the deposit threshold of the e=40 window
        (2**27), so the window never shifts; 8192 deposits accumulate
        2**39 > 0.25*ufp = 2**38 of deviation, forcing a carry.
        """
        s = RsumScalar(L=1)
        for _ in range(8192):
            s.add(float(2.0**26))
        assert s.e_top == 40
        assert np.any(s.C != 0)
        assert s.finalize() == 8192 * 2.0**26

    def test_negative_totals(self):
        s = RsumScalar(L=2)
        for x in (-1.5, -2.25, -100.0, 3.0):
            s.add(x)
        assert s.finalize() == -100.75

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RsumScalar().add(float("nan"))
        with pytest.raises(ValueError):
            RsumScalar().add(float("inf"))

    @pytest.mark.parametrize("order", [[1e-305, 1.0], [1.0, 1e-305]])
    def test_lower_rail_checked_on_the_final_window(self, order):
        """A value below the lower rail is legal once a later value lifts
        the window above it, in either order, as in the compiled deposit."""
        got = RsumScalar(L=2).add_many(order).finalize()
        assert got == 1.0 and got == BinnedSum(L=2).add_vector(order).finalize()

    def test_lone_value_below_the_rail_raises_at_finalize(self):
        s = RsumScalar(L=2).add(1e-305)
        with pytest.raises(ValueError, match="outside supported range"):
            s.finalize()

    def test_rejects_L0(self):
        with pytest.raises(ValueError):
            RsumScalar(L=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_accuracy_vs_fsum(self, dtype):
        rng = np.random.default_rng(3)
        v = (rng.random(400) * 100 - 20).astype(dtype)
        got = float(RsumScalar(L=3, dtype=dtype).add_many(v).finalize())
        exact = math.fsum(np.asarray(v, np.float64).tolist())
        tol = 1e-3 if dtype == np.float32 else 1e-9
        assert abs(got - exact) < tol

    def test_permutation_invariance_small(self):
        v = [0.1, 0.2, 0.3, 1e10, -1e10, 7.25, -0.6]
        ref = RsumScalar(L=2).add_many(v).finalize()
        import itertools
        for p in itertools.islice(itertools.permutations(v), 0, 720, 97):
            assert RsumScalar(L=2).add_many(p).finalize() == ref
