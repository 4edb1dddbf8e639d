"""Smoke tests: every jobs/ entry point runs end-to-end (tiny scale)."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "jobs"))

import table2_error_bounds  # noqa: E402
import table3_slowdown  # noqa: E402
import table4_tpch_q1  # noqa: E402


class TestTable2Job:
    def test_main_quick(self, monkeypatch, capsys):
        """Every measured RSUM error of ``BinnedSum`` within its Eq. 6 bound."""
        monkeypatch.setenv("QUICK", "1")
        assert table2_error_bounds.main() == 0
        assert "All measured errors within their analytic bounds" in \
            capsys.readouterr().out


class TestTable3Job:
    def test_main_quick(self, monkeypatch, capsys):
        monkeypatch.setenv("QUICK", "1")
        assert table3_slowdown.main() == 0
        out = capsys.readouterr().out
        assert "Table III" in out and "geometric mean" in out

    def test_sweep_returns_slowdowns(self):
        import numpy as np
        res, base = table3_slowdown.run_sweep(
            1 << 14, (4,), (2,), (np.float64,), reps=1
        )
        assert ("float64", 2) in res
        assert all(v > 0 for v in res[("float64", 2)].values())

    def test_paper_reference_values_present(self):
        # the recorded paper numbers we diff against in EXPERIMENTS.md
        assert table3_slowdown.PAPER_TABLE3[("float64", 4)] == 2.41
        assert table3_slowdown.PAPER_TABLE3[("float32", 1)] == 1.88


class TestTable4Job:
    def test_run_produces_all_variants(self, spark):
        times = table4_tpch_q1.run(spark, sf=0.002, reps=1)
        assert set(table4_tpch_q1.PAPER_TABLE4) <= set(times)
        for agg, other, total in times.values():
            assert total > 0 and agg >= 0 and other > 0

    def test_report_formats(self):
        times = {k: (1.0, 2.0, 3.0) for k in table4_tpch_q1.PAPER_TABLE4}
        rep = table4_tpch_q1.report(times)
        assert "double (sorted)" in rep and "Total%" in rep
