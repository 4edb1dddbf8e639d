"""Eq. 4 buffer-size model and partitioning-depth thresholds (Section V-C)."""
import pytest

from repro.aggregate import BSZ_MAX, CACHE_BYTES, choose_depth, eq4_bsz


class TestEq4:
    def test_small_group_counts_get_max_buffers(self):
        # few groups -> cache not a constraint -> bsz_max
        assert eq4_bsz(16, F=1, itemsize=4) == BSZ_MAX

    def test_cache_bound_kicks_in(self):
        # 2**16 groups * 4 B: budget 1 MiB -> raw bsz = 4, stays 4
        assert eq4_bsz(1 << 16, F=1, itemsize=4) == 4
        # doubles halve the buffer for the same group count
        assert eq4_bsz(1 << 16, F=1, itemsize=8) == 2

    def test_partitioning_divides_groups(self):
        # one 256-way level multiplies the affordable buffer by 256
        assert eq4_bsz(1 << 16, F=256, itemsize=4) == min(BSZ_MAX, 4 * 256)

    def test_power_of_two(self):
        for g in (3, 5, 100, 999, 12345):
            b = eq4_bsz(g, F=1, itemsize=8)
            assert b & (b - 1) == 0 and b >= 1

    def test_working_set_within_cache(self):
        """The modelled working set never exceeds the budget (paper Fig. 8)."""
        for g in (1 << 10, 1 << 14, 1 << 18):
            for item in (4, 8):
                b = eq4_bsz(g, F=1, itemsize=item)
                if b < BSZ_MAX:  # cache-constrained regime
                    assert g * item * b <= 2 * CACHE_BYTES

    def test_never_below_one(self):
        assert eq4_bsz(1 << 28, F=1, itemsize=8) == 1


class TestDepth:
    @pytest.mark.parametrize("kind,t1,t2", [
        ("builtin", 1 << 22, 1 << 26),
        ("repro_buffered", 1 << 17, 1 << 24),
    ])
    def test_thresholds(self, kind, t1, t2):
        assert choose_depth(t1 - 1, kind) == 0
        assert choose_depth(t1, kind) == 1
        assert choose_depth(t2 - 1, kind) == 1
        assert choose_depth(t2, kind) == 2

    def test_monotone(self):
        for kind in ("builtin", "decimal", "repro", "repro_buffered"):
            ds = [choose_depth(1 << g, kind) for g in range(2, 28)]
            assert ds == sorted(ds)

    def test_repro_partitions_earlier_than_builtin(self):
        """The paper's qualitative finding (Figure 9 vs Section VI-C)
        holds in this substrate too: reproducible state is (2L+1)x wider
        per group, so partitioning pays off at fewer groups."""
        assert choose_depth(1 << 20, "repro_buffered") == 1
        assert choose_depth(1 << 20, "builtin") == 0

    def test_paper_reference_thresholds_recorded(self):
        from repro.aggregate.tuning import PAPER_DEPTH_THRESHOLDS
        assert PAPER_DEPTH_THRESHOLDS["repro_buffered"] == (1 << 10, 1 << 18)
