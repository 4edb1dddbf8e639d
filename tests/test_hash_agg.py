"""HASHAGGREGATION: correctness, reproducibility, the float counterexample."""
import math

import numpy as np
import pytest

from repro.aggregate import hash_aggregate
from repro.synth_data import np_groupby_input


@pytest.mark.parametrize("kind,kw", [
    ("builtin", {}),
    ("repro", {"L": 2}),
    ("repro_buffered", {"L": 2}),
])
def test_sums_close_to_fsum(kind, kw):
    keys, vals = np_groupby_input(30000, 100, dist="uniform12", seed=1)
    acc = hash_aggregate(keys, vals, 100, kind=kind, **kw)
    got = acc.finalize()
    for k in range(0, 100, 9):
        ref = math.fsum(vals[keys == k].tolist())
        assert got[k] == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("batch", [1 << 8, 1 << 12, 1 << 16])
def test_batch_size_invariance_for_repro(batch):
    keys, vals = np_groupby_input(20000, 40, dist="mixed", seed=2)
    ref = hash_aggregate(keys, vals, 40, kind="repro", L=2).result_bits()
    got = hash_aggregate(keys, vals, 40, kind="repro", L=2, batch=batch).result_bits()
    assert got == ref


def test_mismatched_lengths_raise():
    with pytest.raises(ValueError):
        hash_aggregate(np.array([0]), np.array([1.0, 2.0]), 1)


class TestNonReproducibilityOfFloats:
    """The paper's Algorithm 1 phenomenon, deterministic version."""

    def test_float_sum_depends_on_order(self):
        keys = np.zeros(3, np.int64)
        v1 = np.array([1.0, 1e16, -1e16])
        v2 = np.array([1e16, -1e16, 1.0])
        a = hash_aggregate(keys, v1, 1, kind="builtin", batch=1).finalize()[0]
        b = hash_aggregate(keys, v2, 1, kind="builtin", batch=1).finalize()[0]
        assert a != b  # 0.0 vs 1.0 — the non-reproducibility being fixed

    @pytest.mark.parametrize("kind,kw", [
        ("repro", {"L": 1}), ("repro", {"L": 2}),
        ("repro_buffered", {"L": 2}),
    ])
    def test_repro_sum_does_not(self, kind, kw):
        keys = np.zeros(3, np.int64)
        v1 = np.array([1.0, 1e16, -1e16])
        v2 = np.array([1e16, -1e16, 1.0])
        a = hash_aggregate(keys, v1, 1, kind=kind, batch=1, **kw)
        b = hash_aggregate(keys, v2, 1, kind=kind, batch=1, **kw)
        assert a.result_bits() == b.result_bits()
        if kw["L"] >= 2:
            # with L>=2 the small addend survives: the exact answer.
            # (L=1 reproducibly loses it — Table II's huge L=1 bound.)
            assert a.finalize()[0] == 1.0
