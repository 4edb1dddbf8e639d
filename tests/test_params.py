"""Unit tests for repro.core.params: formats, ufp/ulp, the bin grid."""
import numpy as np
import pytest

from repro.core import EMPTY_E, FORMATS, fmt_for, ufp, ulp


class TestFormats:
    def test_double_constants(self):
        f = fmt_for(np.float64)
        assert (f.m, f.W) == (52, 40)
        assert f.NB == 2**11  # paper Section III-D bound 2**(m-W-1)

    def test_single_constants(self):
        f = fmt_for(np.float32)
        assert (f.m, f.W) == (23, 18)
        assert f.NB == 2**4

    def test_max_L_keeps_the_lowest_extractor_normal(self):
        for fmt, max_L in ((FORMATS[np.dtype(np.float64)], 27),
                           (FORMATS[np.dtype(np.float32)], 9)):
            assert fmt.max_L == max_L
            tiny = np.finfo(fmt.dtype).tiny
            assert fmt.extractor(fmt.m - (max_L - 1) * fmt.W) >= tiny
            assert fmt.extractor(fmt.m - max_L * fmt.W) < tiny
            fmt.check_L(max_L)
            with pytest.raises(ValueError, match="outside"):
                fmt.check_L(max_L + 1)

    def test_fmt_for_aliases(self):
        assert fmt_for("float64") is FORMATS[np.dtype(np.float64)]
        assert fmt_for("float32") is FORMATS[np.dtype(np.float32)]

    def test_fmt_for_rejects_other_dtypes(self):
        with pytest.raises(TypeError):
            fmt_for(np.int64)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_extractor_value(self, dtype):
        f = fmt_for(dtype)
        assert f.extractor(0) == 1.5
        assert f.extractor(3) == 12.0
        assert f.extractor(np.array([0, 1])).dtype == f.dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_extractor_grid_parity_even(self, dtype):
        # M / ulp(M) must be even for tie-invariant extraction (DESIGN §2)
        f = fmt_for(dtype)
        assert (3 * 2 ** (f.m - 1)) % 2 == 0


class TestUfpUlp:
    @pytest.mark.parametrize(
        "x,expected",
        [(1.0, 1.0), (1.5, 1.0), (1.999, 1.0), (2.0, 2.0), (3.9, 2.0),
         (0.5, 0.5), (-6.0, 4.0), (1024.1, 1024.0)],
    )
    def test_ufp_values(self, x, expected):
        assert ufp(x) == expected

    def test_ufp_vectorized(self):
        x = np.array([1.0, 3.0, 0.25, -9.0])
        assert np.array_equal(ufp(x), [1.0, 2.0, 0.25, 8.0])

    @pytest.mark.parametrize("dtype,m", [(np.float64, 52), (np.float32, 23)])
    def test_ulp_is_spacing(self, dtype, m):
        one = np.asarray(1.0, dtype)
        assert ulp(one) == 2.0 ** (-m)
        # the spacing property: x + ulp(x) is the next representable value
        x = np.asarray(1.5, dtype)
        assert np.nextafter(x, np.inf, dtype=dtype) == x + ulp(x)

    def test_ulp_preserves_dtype(self):
        assert ulp(np.float32(8.0)).dtype == np.float32


class TestTopExponent:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "mag", [1e-6, 1e-3, 0.5, 1.0, 1.5, 2.0, 100.0, 4096.0, 1e6]
    )
    def test_threshold_strict(self, dtype, mag):
        """|b| < 2**(e-m+W-1): the deposit threshold holds strictly."""
        f = fmt_for(dtype)
        if mag < 1e-4 and dtype == np.float32:
            mag = 1e-4
        e = int(f.top_exponent(mag))
        assert e % f.W == 0
        assert mag < 2.0 ** (e - f.m + f.W - 1)
        # and e is minimal on the grid
        assert mag >= 2.0 ** (e - f.W - f.m + f.W - 1)

    def test_top_exponent_vectorized(self):
        f = fmt_for(np.float64)
        e = f.top_exponent(np.array([1.0, 1e6, 1e-6]))
        assert e.shape == (3,)
        assert np.all(e % f.W == 0)

    def test_power_of_two_boundary(self):
        """|b| = 2**j exactly lies strictly below its threshold."""
        f = fmt_for(np.float64)
        for j in (-20, 0, 13, 27, 40):
            e = int(f.top_exponent(2.0**j))
            assert 2.0**j < 2.0 ** (e - f.m + f.W - 1)

    def test_check_window_raises_out_of_range(self):
        f = fmt_for(np.float64)
        with pytest.raises(ValueError):
            f.check_window(np.array([2000]), 2)
        with pytest.raises(ValueError):
            f.check_window(np.array([-2000]), 2)
        f.check_window(np.array([40, EMPTY_E]), 4)  # EMPTY slots are fine
