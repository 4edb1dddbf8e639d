"""Table IV benchmark: end-to-end TPC-H Q1 variants on Spark.

``jobs/table4_tpch_q1.py`` (SF=0.1, native baseline, warm-ups,
best-of-N) is the authoritative Table IV reproduction; these
pytest-benchmark cases track each variant's cost at a smaller SF as a
regression signal. At small scale fixed per-query costs (JVM planning,
Python worker spin-up) are a large share of every bar, so ordering here
is noisier than in the job's table.
"""
import pytest

from repro.spark import tpch

SF = 0.1


@pytest.fixture(scope="module")
def lineitem(spark):
    df = tpch.q1_input(spark, sf=SF).persist()
    df.count()
    yield df
    df.unpersist()


def _collect(df):
    return df.collect()


@pytest.mark.benchmark(group="table4-q1")
def bench_q1_native_double(benchmark, lineitem):
    benchmark.pedantic(_collect, args=(tpch.q1_native(lineitem),),
                       rounds=3, warmup_rounds=1)


@pytest.mark.benchmark(group="table4-q1")
def bench_q1_pandas_double(benchmark, lineitem):
    """The Python/JVM boundary's cost: a double SUM in a pandas operator."""
    benchmark.pedantic(_collect, args=(tpch.q1_pandas_double(lineitem),),
                       rounds=3, warmup_rounds=1)


@pytest.mark.benchmark(group="table4-q1")
def bench_q1_repro(benchmark, lineitem):
    benchmark.pedantic(_collect, args=(tpch.q1_repro(lineitem, L=4),),
                       rounds=3, warmup_rounds=1)


@pytest.mark.benchmark(group="table4-q1")
def bench_q1_sorted(benchmark, lineitem):
    benchmark.pedantic(_collect, args=(tpch.q1_sorted(lineitem),),
                       rounds=3, warmup_rounds=1)


@pytest.mark.benchmark(group="table4-q1")
def bench_q1_scan_other(benchmark, lineitem):
    benchmark.pedantic(_collect, args=(tpch.q1_scan_other(lineitem),),
                       rounds=3, warmup_rounds=1)
