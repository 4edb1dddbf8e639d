"""The JVM aggregate behind ``rsum_groupby``: exact merge, float32, plan
shape and three-way agreement with the local accumulator and Algorithm 2."""
import math
import re

import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core import EMPTY_E, GroupedBinnedAcc, RsumScalar, finalize_state, fmt_for
from repro.spark import _jar, rsum_groupby
from repro.synth_data import np_groupby_input


#: ``ReproSum.NONE``, the window of a state that has seen no value
_NONE = np.iinfo(np.int64).min + 1


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64) if a.dtype == np.float64 else a.view(np.int32)


def _sorted_sums(out, dtype) -> np.ndarray:
    return out.toPandas().sort_values("k")["v_rsum"].to_numpy().astype(dtype)


def _min_magnitude(fmt, L: int) -> int:
    """log2 of the smallest |value| whose window passes ``check_window``."""
    return fmt.e_bot_min + (L - 1) * fmt.W - fmt.m - 1


def _max_binade(fmt) -> int:
    """The highest binade ``[2**x, 2**(x+1))`` whose window passes."""
    return fmt.e_top_max // fmt.W * fmt.W - fmt.m + fmt.W - 2


# ------------------------------------------------------- merge exactness
def _synthetic_bins(fmt, L: int, n: int, seed: int):
    """Per-bin rows ``(e, dev, C)`` of one value column: group 0 receives
    ``n`` rows, most at one window and the rest up to three levels below
    it, whose carries are so large that a level's exact sum
    ``C * 2**(m-2) + dev`` needs more than 64 bits; groups 1 and 2 a few
    rows each. ``dev`` runs up to ``2**45``, past ``2**(m-2)`` for
    float32, so the merge must fold it first. ``EMPTY_E`` rows carry
    zeros, and group 2 has only those."""
    rng = np.random.default_rng(seed)
    shift = fmt.m - 2
    e0 = fmt.e_bot_min + (L + 2) * fmt.W
    keys = np.concatenate([np.zeros(n, np.int64), np.repeat([1, 2], 8)])
    k = keys.size
    e = e0 - fmt.W * rng.choice(4, k, p=[0.7, 0.1, 0.1, 0.1])
    e[rng.random(k) < 0.1] = EMPTY_E
    e[keys == 2] = EMPTY_E
    dev = rng.integers(0, 1 << 45, (k, L))
    C = rng.integers(1 << (51 - shift), 1 << (52 - shift), (k, L))
    C[rng.random((k, L)) < 0.1] *= -1
    dev[e == EMPTY_E] = 0
    C[e == EMPTY_E] = 0
    return keys, e, dev, C


def _exact_merge(fmt, L: int, keys, e, dev, C) -> np.ndarray:
    """The merge in Python integers: per group, every live row's level
    sums ``C * 2**(m-2) + dev`` added at their level of the group's
    largest window, renormed and finalized by ``finalize_state``."""
    shift, cap = fmt.m - 2, 1 << (fmt.m - 2)
    out, widest = [], 0
    for g in np.unique(keys):
        rows = [i for i in np.flatnonzero(keys == g) if e[i] != EMPTY_E]
        top = max((int(e[i]) for i in rows), default=EMPTY_E)
        T = [0] * L
        for i in rows:
            s = (top - int(e[i])) // fmt.W
            for lev in range(s, L):
                T[lev] += (int(C[i, lev - s]) << shift) + int(dev[i, lev - s])
        widest = max([widest] + [abs(t).bit_length() for t in T])
        d = np.array([[t % cap] for t in T], np.int64)
        c = np.array([[t // cap] for t in T], np.int64)
        out.append(finalize_state(fmt, L, np.array([top]), d, c)[0])
    assert widest > 63  # a long would overflow
    return np.array(out, fmt.dtype)


def _jvm_states(spark, states: np.ndarray):
    """``states`` (rows of ``1 + 2L`` int64) as one Java ``long[]``."""
    jvm, gw = spark.sparkContext._jvm, spark.sparkContext._gateway
    out = gw.new_array(jvm.long, states.size)
    jvm.java.nio.ByteBuffer.wrap(bytearray(states.astype(">i8").tobytes())) \
        .asLongBuffer().get(out)
    return out


def _jvm_merged(spark, udaf, L: int, rows: np.ndarray):
    """``rows`` (``(e, dev[L], C[L])`` each) merged by
    ``ReproSum.mergeStates`` into an initial state, as a Java ``long[]``."""
    acc = _jvm_states(spark, np.r_[_NONE, np.zeros(2 * L, np.int64)])
    udaf.mergeStates(acc, _jvm_states(spark, rows))
    return acc


def _jvm_merge(spark, fmt, L: int, keys, e, dev, C) -> np.ndarray:
    """Per group, its rows merged by ``ReproSum.mergeStates`` into an
    initial state and finalized by ``ReproSum.finish``."""
    udaf = _jar.udaf(spark, "v", fmt, L)
    rows = np.column_stack([e, dev, C])
    return np.array([udaf.finish(_jvm_merged(spark, udaf, L, rows[keys == g]))
                     for g in np.unique(keys)], fmt.dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("ansi", ["true", "false"])
def test_sql_merge_exact_beyond_long_headroom(spark, dtype, ansi):
    """20 000 per-bin states of one group whose level sums need more
    than 64 bits: the JVM merge and finalize stay bit-equal to an exact
    Python-integer merge. They are Java code, which has no ANSI mode, so
    the result is the same with either setting."""
    fmt, L = fmt_for(dtype), 3
    keys, e, dev, C = _synthetic_bins(fmt, L, 20_000, seed=5)
    want = _exact_merge(fmt, L, keys, e, dev, C)

    old = spark.conf.get("spark.sql.ansi.enabled")
    spark.conf.set("spark.sql.ansi.enabled", ansi)
    try:
        got = _jvm_merge(spark, fmt, L, keys, e, dev, C)
    finally:
        spark.conf.set("spark.sql.ansi.enabled", old)
    assert want[2] == 0.0
    assert np.array_equal(_bits(got), _bits(want))


def test_merge_past_long_headroom_raises_naming_column(spark):
    """Two states whose carries at one level, ``C = 2**62`` each, sum
    past ``2**63`` raise, naming the column, instead of wrapping."""
    fmt, L = fmt_for(np.float64), 2
    e = np.array([40, 40])
    dev = np.zeros((2, L), np.int64)
    C = np.array([[1 << 62, 0], [1 << 62, 0]])
    with pytest.raises(Exception, match=r"column 'v' .* exceeds the range of a long"):
        _jvm_merge(spark, fmt, L, np.zeros(2, np.int64), e, dev, C)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_jvm_merge_of_local_partials_is_the_one_pass_state(spark, dtype):
    """``GroupedBinnedAcc`` partials of 5 chunks, exported, merged per
    group by ``ReproSum.mergeStates``: the ``long[]`` is the one-pass
    ``export_states()`` row ``(e, dev, C)`` bit for bit, as both keep
    the same state. An all-zero group and groups without rows stay
    ``EMPTY_E``."""
    fmt, L, G = fmt_for(dtype), 2, 50
    keys, vals = np_groupby_input(20_000, G, dist="mixed", dtype=dtype, seed=3)
    vals[np.random.default_rng(3).random(vals.size) < 0.5] *= -1
    vals[keys == 7] = 0
    slots = G + 2  # the last two receive no row

    def export(k, v):
        acc = GroupedBinnedAcc(L=L, dtype=dtype, dense_n_groups=slots).update(k, v)
        return np.column_stack(acc.export_states()[1:])

    want = export(keys, vals)
    parts = [export(k, v) for k, v in zip(np.array_split(keys, 5),
                                          np.array_split(vals, 5))]
    assert all(p[g, 0] == EMPTY_E for p in parts for g in (7, G, G + 1))
    udaf = _jar.udaf(spark, "v", fmt, L)
    got = np.array([list(_jvm_merged(spark, udaf, L, np.stack([p[g] for p in parts])))
                    for g in range(slots)], np.int64)
    assert np.array_equal(got, want)
    assert (want[[7, G, G + 1], 0] == EMPTY_E).all()
    assert (want[:, 1 + L:] != 0).any()  # some level carries


def test_update_folds_low_half_before_it_wraps(spark):
    """One buffer receives 5 * 2**22 deposits of ``1.75 * 2**38`` units
    each, 2**63 units after about 2**24.2 of them: ``update`` folds a
    level's ``dev`` into its carry before it wraps, and the sum stays
    exact."""
    n, x = 5 << 22, 1.75 * 2.0**26
    df = spark.range(0, n, 1, 1).select(F.lit(0).alias("k"), F.lit(x).alias("v"))
    assert rsum_groupby(df, "k", "v", L=1).collect() == [(0, x * n)]


# --------------------------------------------------------------- float32
def _guard_rail_values(rng, fmt, L: int, n: int) -> np.ndarray:
    """Mixed-sign ``dtype`` values from the smallest admissible magnitude
    up by ~2.5 levels, a few at the top of the range, and some zeros."""
    lo = _min_magnitude(fmt, L)
    ex = rng.integers(lo, lo + 5 * fmt.W // 2, n)
    big = rng.random(n) < 0.005
    ex[big] = _max_binade(fmt) - rng.integers(0, fmt.W, big.sum())
    v = np.ldexp(rng.uniform(1, 2, n), ex) * rng.choice([-1.0, 1.0], n)
    v[rng.random(n) < 0.05] = 0.0
    return v.astype(fmt.dtype)


@pytest.mark.parametrize("L", [2, 3, 4])
def test_float32_matches_grouped_acc_at_guard_rails(spark, L):
    """The float32 finalize in SQL (float casts, float products, float
    adds) is bit-equal to ``GroupedBinnedAcc(dtype=float32)``, down to
    window tops at ``-126 + (L-1)*18`` where the lowest level's grid is
    the smallest subnormal."""
    fmt = fmt_for(np.float32)
    rng = np.random.default_rng(L)
    n, G = 20_000, 40
    keys = rng.integers(0, G, n)
    vals = _guard_rail_values(rng, fmt, L, n)
    vals[keys < 4] = np.ldexp(  # groups whose windows all sit at the rail
        rng.uniform(1, 2, (keys < 4).sum()), _min_magnitude(fmt, L)
    ).astype(np.float32)
    acc = GroupedBinnedAcc(L=L, dtype=np.float32, dense_n_groups=G)
    want = acc.update(keys, vals, fast=False).finalize()[:, 0]
    assert int(acc.e_top.min()) == fmt.e_bot_min + (L - 1) * fmt.W
    df = spark.createDataFrame(pd.DataFrame({"k": keys, "v": vals.astype(np.float64)}))
    for parts in (1, 9):
        out = rsum_groupby(df.repartition(parts), "k", "v", L=L, dtype="float32")
        assert dict(out.dtypes)["v_rsum"] == "float"
        assert np.array_equal(_bits(_sorted_sums(out, np.float32)), _bits(want))


# ------------------------------------------------------------ plan shape
_PY_OPERATOR = re.compile(r"Pandas|Python|Arrow")


@pytest.mark.parametrize("values", [["a"], ["a", "b"]],
                         ids=["one_column", "two_columns"])
def test_plan_has_no_python_operator(spark, values):
    """The executed plan is JVM operators only: deposit, merge and
    finalize all run in ``ReproSum`` inside Spark's own ``HashAggregate``
    (a typed ``Aggregator`` would show ``ObjectHashAggregate``). A Python
    partial (``MapInPandas``, ``ArrowEvalPython``) or a per-group Python
    merge (``FlatMapGroupsInPandas``) fails this test. The plan names the
    aggregate instead of generated ``__q0``/``__u1``/``__h1`` columns."""
    df = spark.createDataFrame(
        pd.DataFrame({"k": np.arange(200) % 7, "a": np.arange(200.0),
                      "b": np.ones(200)}))
    out = rsum_groupby(df, "k", values, L=2)
    out.collect()
    plan = out._jdf.queryExecution().executedPlan().toString()
    if "== Final Plan ==" in plan:  # adaptive execution: keep the final plan
        plan = plan.split("== Final Plan ==")[1].split("== Initial Plan ==")[0]
    ops = [m.group(1) for m in re.finditer(r"^[\s+\-:*()\d]*([A-Za-z]\w*)",
                                           plan, re.M)]
    assert "HashAggregate" in ops
    assert [op for op in ops if _PY_OPERATOR.search(op)] == []
    for op in ("MapInPandas", "ArrowEvalPython", "FlatMapGroupsInPandas"):
        assert op not in plan
    assert "partial_reprosum(" in plan and not re.search(r"__[a-z]\d", plan)


# ----------------------------------------------------------- level limit
@pytest.mark.parametrize("dtype, max_L", [(np.float64, 27), (np.float32, 9)])
def test_deepest_levels_and_limit(spark, dtype, max_L):
    """The deepest L whose lowest extractor ``1.5*2**(m-(L-1)*W)`` is a
    normal number sums bit-equal to ``GroupedBinnedAcc``; one level more
    is rejected, naming the limit."""
    vals = np.array([1e6, 3.0, -2.5e5, 7e-3, 0.0], dtype)
    df = spark.createDataFrame(pd.DataFrame({"k": np.zeros(5, np.int64),
                                             "v": vals.astype(np.float64)}))
    name = np.dtype(dtype).name
    want = (GroupedBinnedAcc(L=max_L, dtype=dtype, dense_n_groups=1)
            .update(np.zeros(5, np.int64), vals, fast=False).finalize()[:, 0])
    got = _sorted_sums(rsum_groupby(df, "k", "v", L=max_L, dtype=name), dtype)
    assert np.array_equal(_bits(got), _bits(want))
    for L in (0, max_L + 1):
        with pytest.raises(ValueError, match=rf"L={L} is outside \[1, {max_L}\]"):
            rsum_groupby(df, "k", "v", L=L, dtype=name)


# ------------------------------------------------- three-way property test
def _value(L: int, fmt):
    """A value near the lower guard rail (``1 + 3*W`` binades above the
    smallest admissible magnitude, so windows of one group differ by up
    to three levels), either sign, or zero."""
    lo = _min_magnitude(fmt, L)
    nonzero = st.builds(
        lambda mant, ex, neg: (-1.0 if neg else 1.0) * math.ldexp(mant, ex - fmt.m),
        st.integers(1 << fmt.m, (1 << (fmt.m + 1)) - 1),
        st.integers(lo, lo + 3 * fmt.W),
        st.booleans(),
    )
    return st.one_of(st.just(0.0), nonzero)


@st.composite
def _groups(draw):
    L = draw(st.sampled_from([2, 3, 4]))
    fmt = fmt_for(np.float64)
    n_groups = draw(st.integers(1, 12))
    rows = draw(st.lists(
        st.tuples(st.integers(0, n_groups - 1), _value(L, fmt)),
        min_size=1, max_size=400,
    ))
    if draw(st.booleans()):  # an all-zero group
        rows += [(n_groups, 0.0)] * draw(st.integers(1, 5))
    return L, rows


@pytest.mark.parametrize("parts", [1, 37, 200])
@settings(max_examples=4, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=_groups())
def test_rsum_groupby_grouped_acc_and_scalar_agree(spark, parts, case):
    """``rsum_groupby`` at 1, 37 and 200 partitions, ``GroupedBinnedAcc``
    and, on up to three groups, Algorithm 2 agree bit for bit. With many
    partitions most of a group's partials see only its zeros, so its
    live state rows meet ``EMPTY_E`` rows in the merge."""
    L, rows = case
    keys = np.array([k for k, _ in rows], np.int64)
    vals = np.array([v for _, v in rows], np.float64)
    uniq, codes = np.unique(keys, return_inverse=True)
    want = (GroupedBinnedAcc(L=L, dense_n_groups=uniq.size)
            .update(codes, vals, fast=False).finalize()[:, 0])
    for g in range(min(3, uniq.size)):
        scalar = RsumScalar(L=L).add_many(vals[codes == g]).finalize()
        assert _bits(np.array([scalar])) == _bits(want[g:g + 1])
    df = spark.createDataFrame(pd.DataFrame({"k": keys, "v": vals}))
    out = rsum_groupby(df.repartition(parts), "k", "v", L=L)
    got = out.toPandas().sort_values("k")
    assert np.array_equal(got["k"].to_numpy(), uniq)
    assert np.array_equal(_bits(got["v_rsum"].to_numpy()), _bits(want))
