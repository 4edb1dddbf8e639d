"""SORTAGGREGATION baseline: deterministic, permutation-independent."""
import math

import numpy as np
import pytest

from repro.aggregate import sort_aggregate
from repro.synth_data import np_groupby_input


def test_close_to_fsum():
    keys, vals = np_groupby_input(20000, 50, dist="uniform12", seed=1)
    out = sort_aggregate(keys, vals, 50)
    for k in range(0, 50, 7):
        assert out[k] == pytest.approx(math.fsum(vals[keys == k].tolist()), rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_permutation_independent_bits(seed):
    keys, vals = np_groupby_input(15000, 200, dist="mixed", seed=3)
    ref = sort_aggregate(keys, vals, 200)
    p = np.random.default_rng(seed).permutation(keys.size)
    got = sort_aggregate(keys[p], vals[p], 200)
    assert np.array_equal(ref.view(np.int64), got.view(np.int64))


def test_cancellation_case_deterministic():
    keys = np.zeros(3, np.int64)
    a = sort_aggregate(keys, np.array([1.0, 1e16, -1e16]), 1)
    b = sort_aggregate(keys, np.array([1e16, -1e16, 1.0]), 1)
    assert a[0] == b[0]  # reproducible (value fixed by the sorted order)


def test_empty_and_missing_groups():
    out = sort_aggregate(np.array([], np.int64), np.array([]), 4)
    assert np.array_equal(out, np.zeros(4))
    out = sort_aggregate(np.array([2]), np.array([5.0]), 4)
    assert out[2] == 5.0 and out.sum() == 5.0


def test_float32_dtype():
    keys, vals = np_groupby_input(1000, 4, dtype=np.float32, seed=2)
    out = sort_aggregate(keys, vals, 4, dtype=np.float32)
    assert out.dtype == np.float32


@pytest.mark.parametrize("keys,exc", [
    pytest.param([0, -1], IndexError, id="negative"),
    pytest.param([0.7, 1.2], TypeError, id="float"),
])
def test_keys_are_checked(keys, exc):
    """Keys follow the rule of every table: a negative key does not land
    in the last group, nor a float key in the group it truncates to."""
    with pytest.raises(exc):
        sort_aggregate(np.array(keys), np.array([1.0, 2.0]), 2)
