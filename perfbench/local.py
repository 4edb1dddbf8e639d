"""Single-node workloads: ``partition_and_aggregate`` without Spark.

Layers timed from outside: ``repro.aggregate`` (the operator and the
names it calls: ``parallel_partition``, ``hash_aggregate``, the shared
table's ``merge_from``) and ``repro.core`` (the accumulator ``update``
that ``hash_aggregate`` drives, export and finalize).
"""
from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from common import SPOT_ADDS, Tracer, diff_groups, median, spot_check

SIZES = {
    "local_steady_1k": {"full": (1 << 24, 1 << 10), "tiny": (1 << 14, 1 << 6),
                        "dist": "uniform12"},
    # tiny keeps 2**19 groups so that the operator still partitions (d = 1)
    "local_wide_1m": {"full": (1 << 22, 1 << 20), "tiny": (1 << 15, 1 << 19),
                      "dist": "mixed"},
}
L = 2
#: set-ups per run; setup_s is their median.
SETUP_REPS = 3


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the public names ``partition_and_aggregate`` calls with spans."""
    from repro.aggregate import hash_agg, partition_agg
    from repro.core import EMPTY_E

    saved = {(m, n): getattr(m, n) for m, n in (
        (partition_agg, "parallel_partition"), (partition_agg, "hash_aggregate"),
        (partition_agg, "make_acc"), (hash_agg, "make_acc"))}

    def parallel_partition(keys, values, F):
        with tracer.span("aggregate.parallel_partition") as s:
            out = saved[partition_agg, "parallel_partition"](keys, values, F)
        s["fanout"] = F
        return out

    def hash_aggregate(*a, **kw):
        with tracer.span("aggregate.hash_aggregate"):
            return saved[partition_agg, "hash_aggregate"](*a, **kw)

    def wrap(make_acc):
        def make(kind, n_groups, **kw):
            acc = make_acc(kind, n_groups, **kw)
            update, merge_from = acc.update, acc.merge_from
            state = getattr(acc, "acc", None)  # GroupedBinnedAcc of repro kinds

            def timed_update(idx, vals):
                before = state.e_top.copy() if state is not None else None
                with tracer.span("core.update", rows=len(idx)):
                    update(idx, vals)
                if before is not None:
                    after = state.e_top[:, : before.shape[1]]
                    tracer.count("core.window_raises",
                                 int(((after > before) & (before != EMPTY_E)).sum()))

            def timed_merge_from(other, base, stride=1):
                with tracer.span("aggregate.transfer"):
                    merge_from(other, base, stride)

            acc.update, acc.merge_from = timed_update, timed_merge_from
            return acc
        return make

    partition_agg.parallel_partition = parallel_partition
    partition_agg.hash_aggregate = hash_aggregate
    partition_agg.make_acc = wrap(saved[partition_agg, "make_acc"])
    hash_agg.make_acc = wrap(saved[hash_agg, "make_acc"])
    try:
        yield
    finally:
        for (m, n), f in saved.items():
            setattr(m, n, f)


class LocalWorkload:
    def __init__(self, name: str, seed: int, scale: str):
        self.name, self.seed = name, seed
        self.n, self.n_groups = SIZES[name][scale]
        self.dist = SIZES[name]["dist"]
        self.rows = self.n
        self.layer: dict[str, list[float]] = {}

    def env(self) -> dict:
        return {"workload": self.name, "rows": self.n, "groups": self.n_groups,
                "dist": self.dist, "L": L}

    # ------------------------------------------------------------ set-up
    def setup(self) -> dict:
        from repro import synth_data
        gen, warm = [], []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            k, v = synth_data.np_groupby_input(self.n, self.n_groups,
                                               dist=self.dist, seed=self.seed)
            perm = np.random.default_rng([self.seed, 1]).permutation(self.n)
            self.layouts = [(k, v), (k[perm], v[perm])]
            t1 = time.perf_counter()
            self._repro(self.layouts[0])
            self._builtin(self.layouts[0])
            gen.append(t1 - t0)
            warm.append(time.perf_counter() - t1)
        return {"session_s": 0.0, "input_s": median(gen), "warmup_s": median(warm)}

    def reference(self) -> list[str]:
        """Unbuffered per-element deposits (``kind="repro"``), no
        partitioning, input order as generated; spot-checked against
        Algorithm 2 on whole groups."""
        from repro.aggregate import hash_aggregate
        k, v = self.layouts[0]
        ref = hash_aggregate(k, v, self.n_groups, kind="repro", L=L)
        self.ref_state = ref.result_bits()
        self.ref_sums = ref.finalize()
        rng = np.random.default_rng([self.seed, 2])
        counts = np.bincount(k, minlength=self.n_groups)
        order = rng.permutation(self.n_groups)
        picked = order[np.cumsum(counts[order]) <= SPOT_ADDS][:64]
        if picked.size == 0:
            picked = order[:1]
        sel = np.isin(k, picked)
        ks, vs = k[sel], v[sel]
        return [f"spot check: group {g}: RsumScalar differs from the reference"
                for g in picked if not spot_check(L, vs[ks == g], self.ref_sums[g])]

    # ----------------------------------------------------------- queries
    def _repro(self, layout):
        from repro.aggregate import partition_and_aggregate
        k, v = layout
        acc = partition_and_aggregate(k, v, self.n_groups, kind="repro_buffered", L=L)
        return acc, acc.finalize()

    def _builtin(self, layout):
        from repro.aggregate import partition_and_aggregate
        k, v = layout
        return partition_and_aggregate(k, v, self.n_groups, kind="builtin").finalize()

    def query(self, i: int, tracer: Tracer, flip: bool) -> tuple[float, list[str]]:
        layout = self.layouts[i % 2]
        if tracer.enabled:
            with instrument(tracer), tracer.span("query", query=f"q{i}"):
                t0 = time.perf_counter()
                acc, sums = self._repro(layout)
                t = time.perf_counter() - t0
            self._core_layer(acc, f"q{i}", tracer)
        else:
            t0 = time.perf_counter()
            acc, sums = self._repro(layout)
            t = time.perf_counter() - t0
        if flip:
            sums = sums.copy()
            sums.view(np.uint64)[0] ^= np.uint64(1)
        msgs = diff_groups(np.arange(self.n_groups), sums, self.ref_sums, self.name)
        if acc.result_bits() != self.ref_state:
            msgs.append(f"{self.name}: exported state bits differ from the reference")
        return t, msgs

    def baseline(self, i: int) -> float:
        t0 = time.perf_counter()
        self._builtin(self.layouts[i % 2])
        return time.perf_counter() - t0

    # ------------------------------------------------------------- trace
    def _core_layer(self, acc, q: str, tracer: Tracer) -> None:
        state = acc.acc
        t0 = time.perf_counter()
        state.export_states()
        export_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        state.finalize()
        fin_s = time.perf_counter() - t0
        fanout = [s["fanout"] for s in tracer.spans
                  if s["query"] == q and s["name"] == "aggregate.parallel_partition"]
        vals = {
            "core.deposit_ns_per_value": 1e9 * tracer.total("core.update", q) / self.n,
            "core.export_s": export_s,
            "core.finalize_ns_per_group": 1e9 * fin_s / state.n_slots,
            "core.groups": float(state.n_slots),
            "core.state_bytes": float(state.e_top.nbytes + state.dev.nbytes
                                      + state.C.nbytes),
            "aggregate.partition_s": tracer.total("aggregate.parallel_partition", q),
            "aggregate.hash_aggregate_s": tracer.total("aggregate.hash_aggregate", q),
            "aggregate.transfer_s": tracer.total("aggregate.transfer", q),
            "aggregate.fanout": float(fanout[0] if fanout else 1),
        }
        for name, x in vals.items():
            self.layer.setdefault(name, []).append(x)

    def layer_metrics(self, tracer: Tracer, base_times: list[float]):
        """Per-layer numbers of the traced run; no extra bit checks."""
        out = {name: median(xs) for name, xs in self.layer.items()}
        queries = max(1, len(self.layer.get("core.groups", ())))
        out["core.window_raises"] = tracer.counts.get("core.window_raises", 0) / queries
        out["aggregate.builtin_s"] = median(base_times)
        return out, []

    def close(self) -> None:
        pass
