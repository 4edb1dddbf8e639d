"""Spark workloads: TPC-H Q1 (``tpch.q1_repro``) and a many-group
``rsum_groupby``.

The Spark layer is timed from the action to the last collected row.
Stage times, task counts and shuffle counts come from Spark's own event
log, written only in the traced run. The core layer is timed by
replaying the workload's rows through ``GroupedBinnedAcc`` in this
process at the Arrow batch size.
"""
from __future__ import annotations

import glob
import json
import os
import subprocess
import time

import numpy as np
import pandas as pd

from common import SPOT_ADDS, Tracer, diff_groups, log, median, spot_check

CORES = 4
SHUFFLE_PARTITIONS = 8
DRIVER_MEMORY = "2g"
#: partition count of the second, seeded layout (the first has CORES).
RELAYOUT_PARTITIONS = 7
#: rows per Arrow batch (Spark's default), also the core replay's batch size
ARROW_BATCH = 10_000

SIZES = {
    "q1_sf0.1": {"full": 0.1, "tiny": 0.002},
    "spark_groups_1k": {"full": (1 << 20, 1 << 10), "tiny": (1 << 12, 1 << 6)},
}
#: lineitem columns Q1 reads; the others are not shipped to Spark.
Q1_COLUMNS = ["l_quantity", "l_extendedprice", "l_discount", "l_tax",
              "l_returnflag", "l_linestatus", "l_shipdate"]
Q1_CUTOFF = pd.Timestamp("1998-09-02")


class _ArrowSession:
    """Stands in for ``SparkSession`` in ``repro.synth_data``: keeps the
    generated pandas frame and ships it to Spark through Arrow."""

    def __init__(self, spark, columns=None):
        self.spark, self.columns = spark, columns

    def createDataFrame(self, pdf: pd.DataFrame):
        import pyarrow as pa
        self.pdf = pdf if self.columns is None else pdf[self.columns]
        return self.spark.createDataFrame(
            pa.Table.from_pandas(self.pdf, preserve_index=False))


def start_session(out_dir: str, traced: bool):
    from pyspark.sql import SparkSession
    tmp = os.path.join(out_dir, "tmp")
    conf = {
        "spark.master": f"local[{CORES}]",
        "spark.driver.memory": DRIVER_MEMORY,
        "spark.sql.shuffle.partitions": str(SHUFFLE_PARTITIONS),
        "spark.sql.adaptive.enabled": "true",
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.driver.host": "127.0.0.1",
        "spark.local.dir": os.path.join(out_dir, "spark-local"),
        "spark.sql.warehouse.dir": os.path.join(out_dir, "warehouse"),
        # a fixed-size heap: the JVM's resident size varies less between runs.
        # No perf-data file: the JVM would write it to /tmp.
        "spark.driver.extraJavaOptions": f"-Xms{DRIVER_MEMORY} -XX:-UsePerfData "
                                         f"-Djava.io.tmpdir={tmp} -Dderby.system.home={tmp}",
    }
    if traced:
        log_dir = os.path.join(out_dir, "eventlog")
        os.makedirs(log_dir, exist_ok=True)
        conf.update({
            "spark.eventLog.enabled": "true",
            "spark.eventLog.dir": "file://" + log_dir,
            "spark.eventLog.compress": "false",
            "spark.eventLog.rolling.enabled": "false",
        })
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"  # spark-submit's own JVM
    b = SparkSession.builder.appName("perfbench")
    for k, v in conf.items():
        b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def require_worker_import(spark, module: str = "repro") -> None:
    """Fail fast, with a short message, when Spark's Python workers
    cannot import ``module``; otherwise the first query dies inside a
    long ``PythonException``."""
    def probe(_):
        import importlib
        importlib.import_module(module)
        yield module

    try:
        spark.sparkContext.parallelize([0], 1).mapPartitions(probe).collect()
    except Exception as e:  # Py4JJavaError or PythonException
        if f"No module named '{module}'" not in str(e):
            raise
        raise SystemExit(
            f"perfbench: Spark's Python workers cannot import '{module}'. "
            f"Put the repository's src directory on PYTHONPATH "
            f"(worker PYTHONPATH={os.environ.get('PYTHONPATH', '')!r}).") from None


def _relayout(df, seed: int):
    """A seeded repartition of the same rows, in a new row order."""
    from pyspark.sql import functions as F
    return (df.withColumn("_perfbench_r", F.rand(seed))
            .repartition(RELAYOUT_PARTITIONS, "_perfbench_r")
            .sortWithinPartitions("_perfbench_r").drop("_perfbench_r"))


def _identity_floor(df):
    """Scan plus Arrow transfer into Python workers, no aggregation."""
    from pyspark.sql import types as T

    def consume(batches):
        for _ in batches:
            pass
        return
        yield

    return df.mapInPandas(consume, T.StructType([T.StructField("x", T.LongType())]))


class SparkWorkload:
    def __init__(self, name: str, seed: int, scale: str, out_dir: str, traced: bool):
        self.name, self.seed, self.out_dir, self.traced = name, seed, out_dir, traced
        self.size = SIZES[name][scale]
        self.spark = None
        self.walls: dict[str, float] = {}  # job group -> wall seconds
        self.plan_s: list[float] = []

    def env(self) -> dict:
        conf = self.spark.conf
        return {
            "workload": self.name, "rows": self.rows, "size": self.size,
            "spark.master": self.spark.sparkContext.master,
            "spark.sql.shuffle.partitions": conf.get("spark.sql.shuffle.partitions"),
            "spark.sql.adaptive.enabled": conf.get("spark.sql.adaptive.enabled"),
            "spark.sql.execution.arrow.maxRecordsPerBatch":
                conf.get("spark.sql.execution.arrow.maxRecordsPerBatch"),
            "spark.driver.memory": self.spark.sparkContext.getConf().get(
                "spark.driver.memory"),
            "layout_partitions": [lay.rdd.getNumPartitions() for lay in self.layouts],
        }

    # ------------------------------------------------------------ set-up
    def setup(self) -> dict:
        from repro import synth_data
        from repro.spark import tpch

        t0 = time.perf_counter()
        self.spark = start_session(self.out_dir, self.traced)
        require_worker_import(self.spark)
        session_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        if self.name == "q1_sf0.1":
            cap = _ArrowSession(self.spark, Q1_COLUMNS)
            base = tpch.q1_input(cap, sf=self.size, seed=self.seed)
            self.rows = len(cap.pdf)
            self._q1_arrays(cap.pdf)
        else:
            n, n_groups = self.size
            cap = _ArrowSession(self.spark)
            base = synth_data.groupby_pairs(cap, n=n, n_groups=n_groups,
                                            dist="mixed", seed=self.seed)
            self.rows = n
            self.keys = np.arange(n_groups)
            self.codes = cap.pdf["k"].to_numpy(np.int64)
            self.vals = cap.pdf[["v"]].to_numpy(np.float64)
            self.L = 2
        self.layouts = [base.persist(), _relayout(base, self.seed).persist()]
        for lay in reversed(self.layouts):  # the relayout also fills the first cache
            lay.count()
        input_s = time.perf_counter() - t0

        # one full-size query of each kind: the first full-size repro query
        # of a session runs about 15% slower than the ones after it
        t0 = time.perf_counter()
        self._repro_df(self.layouts[0]).collect()
        self._native_df(self.layouts[0]).collect()
        warmup_s = time.perf_counter() - t0
        return {"session_s": session_s, "input_s": input_s, "warmup_s": warmup_s}

    def _q1_arrays(self, pdf: pd.DataFrame) -> None:
        """Q1's filter and projection in NumPy, with Spark's operation order."""
        from repro.spark import tpch
        p = pdf[pdf["l_shipdate"] <= Q1_CUTOFF]
        price, disc, tax = (p[c].to_numpy(np.float64)
                            for c in ("l_extendedprice", "l_discount", "l_tax"))
        disc_price = price * (1 - disc)
        self.vals = np.column_stack([p["l_quantity"].to_numpy(np.float64), price,
                                     disc_price, disc_price * (1 + tax)])
        codes, uniq = pd.factorize(pd.MultiIndex.from_arrays(
            [p[k] for k in tpch.Q1_KEYS]))
        self.codes = codes.astype(np.int64)
        self.keys = list(uniq)
        self.L = 4

    def _repro_df(self, df):
        from repro.spark import rsum_groupby, tpch
        if self.name == "q1_sf0.1":
            return tpch.q1_repro(df, L=4)
        return rsum_groupby(df, "k", "v", L=self.L)

    def _native_df(self, df):
        from pyspark.sql import functions as F
        from repro.spark import tpch
        if self.name == "q1_sf0.1":
            return tpch.q1_native(df)
        return df.groupBy("k").agg(F.sum("v").alias("v_sum"))

    # --------------------------------------------------------- reference
    def reference(self) -> list[str]:
        """Unbuffered per-element deposits (``fast=False``) over the rows
        as generated; spot-checked against Algorithm 2."""
        from repro.core import GroupedBinnedAcc
        n_groups, ncols = len(self.keys), self.vals.shape[1]
        acc = GroupedBinnedAcc(L=self.L, ncols=ncols, dense_n_groups=n_groups)
        for i in range(0, len(self.codes), 1 << 16):
            acc.update(self.codes[i:i + (1 << 16)], self.vals[i:i + (1 << 16)],
                       fast=False)
        self.ref_sums = acc.finalize().astype(np.float64)
        self.ref_counts = np.bincount(self.codes, minlength=n_groups)
        rng = np.random.default_rng([self.seed, 2])
        msgs = []
        if ncols == 1:  # whole groups
            order = rng.permutation(n_groups)
            picked = order[np.cumsum(self.ref_counts[order]) <= SPOT_ADDS][:64]
            sel = np.isin(self.codes, picked)
            cs, vs = self.codes[sel], self.vals[sel, 0]
            msgs += [f"spot check: group {g}: RsumScalar differs from the reference"
                     for g in picked if not spot_check(self.L, vs[cs == g],
                                                       self.ref_sums[g, 0])]
        else:  # Q1 groups hold ~10**5 rows: check a seeded sample of rows
            rows = rng.choice(len(self.codes), SPOT_ADDS // ncols, replace=False)
            sample = GroupedBinnedAcc(L=self.L, ncols=ncols, dense_n_groups=1)
            sample.update(np.zeros(len(rows), np.int64), self.vals[rows], fast=False)
            want = sample.finalize()[0]
            msgs += [f"spot check: column {j}: RsumScalar differs from the reference"
                     for j in range(ncols)
                     if not spot_check(self.L, self.vals[rows, j], want[j])]
        return msgs

    def _check(self, rows, flip: bool) -> list[str]:
        if self.name == "q1_sf0.1":
            from repro.spark import tpch
            cols = [c + "_rsum" for c in tpch.Q1_SUMS]
            got_map = {(r[tpch.Q1_KEYS[0]], r[tpch.Q1_KEYS[1]]):
                       ([r[c] for c in cols], r["count_order"]) for r in rows}
        else:
            got_map = {r["k"]: ([r["v_rsum"]], None) for r in rows}
        got = np.full(self.ref_sums.shape, np.nan)
        msgs = []
        for i, key in enumerate(self.keys):
            if key not in got_map:
                msgs.append(f"{self.name}: group {key!r} missing from the result")
                continue
            got[i], count = got_map[key]
            if count is not None and count != self.ref_counts[i]:
                msgs.append(f"{self.name}: group {key!r}: count {count} "
                            f"!= reference {self.ref_counts[i]}")
        if len(got_map) != len(self.keys):
            msgs.append(f"{self.name}: {len(got_map)} groups, expected {len(self.keys)}")
        if flip:
            got.view(np.uint64).flat[0] ^= np.uint64(1)
        return msgs + diff_groups(self.keys, got, self.ref_sums, self.name)

    # ----------------------------------------------------------- queries
    def _job_group(self, group: str) -> None:
        self.spark.sparkContext.setJobGroup(group, group)

    def query(self, i: int, tracer: Tracer, flip: bool) -> tuple[float, list[str]]:
        layout = self.layouts[i % 2]
        q = f"q{i}.repro"
        with tracer.span("query", query=q):
            with tracer.span("spark.plan"):
                t0 = time.perf_counter()
                df = self._repro_df(layout)
                plan_s = time.perf_counter() - t0
            if self.traced:
                self._job_group(q)
            with tracer.span("spark.action"):
                t0 = time.perf_counter()
                rows = df.collect()
                t = time.perf_counter() - t0
        if tracer.enabled:
            self.plan_s.append(plan_s)
            self.walls[q] = t
        return t, self._check(rows, flip)

    def baseline(self, i: int) -> float:
        df = self._native_df(self.layouts[i % 2])
        if self.traced:
            self._job_group(f"q{i}.native")
        t0 = time.perf_counter()
        df.collect()
        return time.perf_counter() - t0

    # ------------------------------------------------------------- trace
    def _timed_once(self, group: str, df) -> float:
        self._job_group(group)
        t0 = time.perf_counter()
        df.collect()
        return time.perf_counter() - t0

    def layer_metrics(self, tracer: Tracer, base_times: list[float]):
        """Per-layer numbers of the traced run, and the bit check of the
        core replay. Stops the session."""
        from repro.spark import tpch
        from repro.spark.repro_sum import pandas_sum_groupby
        lay = self.layouts[0]
        if self.name == "q1_sf0.1":
            floor = self._timed_once("floor", tpch.q1_pipeline_other(lay))
            double = self._timed_once("pandas_double", tpch.q1_pandas_double(lay))
        else:
            floor = self._timed_once("floor", _identity_floor(lay.select("k", "v")))
            double = self._timed_once("pandas_double", pandas_sum_groupby(lay, "k", "v"))
        out = {"spark.plan_s": median(self.plan_s), "spark.floor_s": floor,
               "spark.pandas_double_s": double, "spark.native_s": median(base_times)}
        app_id = self.spark.sparkContext.applicationId
        self.close()
        out.update(self._stage_metrics(app_id))
        core, replay_msgs = self._replay_core()
        out.update(core)
        return out, [replay_msgs]

    def _stage_metrics(self, app_id: str) -> dict:
        """Stage times, task counts and shuffle counts of the traced repro
        queries, from Spark's event log (median over queries)."""
        path = glob.glob(os.path.join(self.out_dir, "eventlog", f"{app_id}*"))[0]
        stage_group, stages = {}, {}
        with open(path) as f:
            for line in f:
                e = json.loads(line)
                kind = e["Event"]
                if kind == "SparkListenerJobStart":
                    g = (e.get("Properties") or {}).get("spark.jobGroup.id")
                    for s in e["Stage IDs"]:
                        stage_group[s] = g
                elif kind == "SparkListenerStageCompleted":
                    si = e["Stage Info"]
                    st = stages.setdefault(si["Stage ID"], {"run_ms": 0, "bytes": 0, "recs": 0})
                    st["scopes"] = {json.loads(r["Scope"])["name"]
                                    for r in si["RDD Info"] if r.get("Scope")}
                    st["s"] = (si["Completion Time"] - si["Submission Time"]) / 1e3
                    st["tasks"] = si["Number of Tasks"]
                elif kind == "SparkListenerTaskEnd" and e.get("Task Metrics"):
                    st = stages.setdefault(e["Stage ID"], {"run_ms": 0, "bytes": 0, "recs": 0})
                    m = e["Task Metrics"]
                    st["run_ms"] += m["Executor Run Time"]
                    st["bytes"] += m["Shuffle Write Metrics"]["Shuffle Bytes Written"]
                    st["recs"] += m["Shuffle Write Metrics"]["Shuffle Records Written"]
        per_query: dict[str, list[float]] = {}
        for g, wall in self.walls.items():
            if not g.endswith(".repro"):
                continue
            mine = [st for sid, st in stages.items()
                    if stage_group.get(sid) == g and "s" in st]
            partial = [st for st in mine if "MapInPandas" in st["scopes"]]
            merge = [st for st in mine if "FlatMapGroupsInPandas" in st["scopes"]]
            vals = {
                "spark.partial_stage_s": sum(st["s"] for st in partial),
                "spark.partial_tasks": sum(st["tasks"] for st in partial),
                "spark.merge_stage_s": sum(st["s"] for st in merge),
                "spark.merge_tasks": sum(st["tasks"] for st in merge),
                "spark.state_rows": sum(st["recs"] for st in partial),
                "spark.shuffle_bytes": sum(st["bytes"] for st in partial),
                "spark.busy_frac": sum(st["run_ms"] for st in mine)
                / (1e3 * wall * CORES),
            }
            for k, v in vals.items():
                per_query.setdefault(k, []).append(float(v))
        return {k: median(v) for k, v in per_query.items()}

    def _replay_core(self) -> tuple[dict, list[str]]:
        """The workload's rows through ``GroupedBinnedAcc`` as the Spark
        partial and merge use it: one accumulator per input partition fed
        in Arrow-sized batches, exported, merged, finalized."""
        from repro.core import EMPTY_E, GroupedBinnedAcc
        n_groups, ncols = len(self.keys), self.vals.shape[1]
        dep = exp = 0.0
        raises = 0
        partials = []
        for part in np.array_split(np.arange(len(self.codes)), CORES):
            acc = GroupedBinnedAcc(L=self.L, ncols=ncols)
            for i in range(0, len(part), ARROW_BATCH):
                s = part[i:i + ARROW_BATCH]
                before = acc.e_top.copy()
                t0 = time.perf_counter()
                acc.update(self.codes[s], self.vals[s])
                dep += time.perf_counter() - t0
                after = acc.e_top[:, : before.shape[1]]
                raises += int(((after > before) & (before != EMPTY_E)).sum())
            t0 = time.perf_counter()
            partials.append([acc.export_states(j) for j in range(ncols)])
            exp += time.perf_counter() - t0
        merged = GroupedBinnedAcc(L=self.L, ncols=ncols, dense_n_groups=n_groups)
        t0 = time.perf_counter()
        for states in partials:
            for j, (keys, e, dev, C) in enumerate(states):
                merged.merge_state_rows(keys, e, dev, C, j=j)
        merge_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        sums = merged.finalize()
        fin_s = time.perf_counter() - t0
        state_rows = sum(len(states[0][0]) for states in partials)
        return {
            "core.deposit_ns_per_value": 1e9 * dep / self.vals.size,
            "core.merge_ns_per_state_row": 1e9 * merge_s / state_rows,
            "core.export_s": exp,
            "core.finalize_ns_per_group": 1e9 * fin_s / n_groups,
            "core.window_raises": float(raises),
            "core.groups": float(n_groups),
            "core.state_bytes": float(merged.e_top.nbytes + merged.dev.nbytes
                                      + merged.C.nbytes),
        }, diff_groups(self.keys, sums, self.ref_sums, f"{self.name} core replay")

    def close(self) -> None:
        """Stop the session and its JVM: ``SparkSession.stop`` leaves the
        JVM running until it reads end-of-file on its standard input."""
        from pyspark import SparkContext
        if self.spark is not None:
            spark, self.spark = self.spark, None
            try:
                spark.stop()
                log("spark session stopped")
            except Exception as e:  # e.g. a call into the JVM was interrupted
                log(f"spark session did not stop cleanly: {type(e).__name__}")
        gateway = SparkContext._gateway
        if gateway is None:
            return
        proc = getattr(gateway, "proc", None)
        try:
            gateway.shutdown()
        except Exception:  # the JVM may already be gone
            pass
        SparkContext._gateway = SparkContext._jvm = None
        if proc is not None:
            proc.stdin.close()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            log("spark JVM ended")
