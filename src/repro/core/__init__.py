"""Core of the reproduction: the paper's reproducible summation machinery.

* :mod:`repro.core.params` — IEEE format constants, W/NB tuning, bin grid.
* :mod:`repro.core.rsum_scalar` — Algorithm 2, the per-element reference.
* :mod:`repro.core.binned` — the associative ``repro<ScalarT,L>`` state,
  vectorized batch deposits (Algorithm 3's role) and grouped accumulators.
* :mod:`repro.core.errors` — error bounds of Eq. 5/6 (Table II).
"""
from .binned import BinnedSum, GroupedBinnedAcc, deposit_units, finalize_state, renorm
from .errors import conventional_bound, machine_eps, rsum_bound, table2_rows
from .params import EMPTY_E, FORMATS, FloatFormat, fmt_for, ufp, ulp
from .rsum_scalar import RsumScalar

__all__ = [
    "BinnedSum",
    "GroupedBinnedAcc",
    "RsumScalar",
    "deposit_units",
    "finalize_state",
    "renorm",
    "conventional_bound",
    "rsum_bound",
    "machine_eps",
    "table2_rows",
    "EMPTY_E",
    "FORMATS",
    "FloatFormat",
    "fmt_for",
    "ufp",
    "ulp",
]
