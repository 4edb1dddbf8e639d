"""Layered benchmark of the reproducible GROUP BY SUM.

Usage (from the repository root):

    python3 perfbench/run.py --workload spark_groups_1k --seed 1 --seconds 5 --trace 0

One driver process issues its queries one after another (a closed loop
with a single client). Each iteration runs the reproducible query on one
of two physical layouts of the same rows, bit-checks it against a
reference computed by another path, then runs the non-reproducible SUM a
user would otherwise run. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

LOCAL = ("local_steady_1k", "local_wide_1m")
#: baseline queries per iteration: the baseline is short, so one sample per
#: iteration makes the denominator of slowdown_x the noisier term
BASELINE_REPS = 3
SPARK = ("q1_sf0.1", "spark_groups_1k")

# Absolute query times drift with the host's speed by more than the largest
# allowed bound, so they are printed in the info line; slowdown_x, timed
# interleaved with the baseline, cancels that drift. It is taken per layout
# (see slowdown), because the baseline's time differs by up to 3x between
# the two layouts, and a median over both would jump from one to the other.
END_TO_END_UNITS = {"slowdown_x": "x", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "spark.plan_s": "s", "spark.floor_s": "s", "spark.partial_stage_s": "s",
    "spark.merge_stage_s": "s", "spark.merge_tasks": "count",
    "spark.partial_tasks": "count", "spark.state_rows": "count",
    "spark.shuffle_bytes": "bytes", "spark.busy_frac": "frac",
    "spark.pandas_double_s": "s", "spark.native_s": "s",
    "core.deposit_ns_per_value": "ns", "core.merge_ns_per_state_row": "ns",
    "core.export_s": "s", "core.finalize_ns_per_group": "ns",
    "core.window_raises": "count", "core.groups": "count", "core.state_bytes": "bytes",
    "aggregate.partition_s": "s", "aggregate.hash_aggregate_s": "s",
    "aggregate.transfer_s": "s", "aggregate.fanout": "count",
    "aggregate.builtin_s": "s",
    "setup.session_s": "s", "setup.input_s": "s", "setup.warmup_s": "s",
    "trace.query_s_p50": "s", "trace.overhead_s": "s",
}


def _prepare_paths() -> None:
    """Import ``repro`` from this checkout's ``src`` and give Spark's
    workers, temporary files and logs directories inside the checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {SRC}; "
                         "run from a checkout of the repository")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(OUT, "tmp")
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    os.environ.setdefault("PYSPARK_PYTHON", sys.executable)
    # the benchmark fixes its own Spark settings
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)


def measure(wl, seconds: float, traced: bool, flip: bool):
    """Closed loop: repro query (bit-checked), then the baseline three
    times, for ``seconds`` and at least one query per layout (two when
    traced), alternating layouts. A traced run traces queries in the order
    off, on, on, off, so that each layout, and early and late queries, fall
    on both sides."""
    from common import Tracer, log
    off, on = Tracer(False), Tracer(True)
    times, traced_times, base = [], [], []
    by_layout = {"repro": ([], []), "baseline": ([], [])}  # untraced queries
    attempted = failed = 0
    min_iters = 4 if traced else 2
    start, i = time.perf_counter(), 0
    while i < min_iters or time.perf_counter() - start < seconds:
        tracer = on if traced and (i + 1) // 2 % 2 == 1 else off
        attempted += 1
        try:
            t, msgs = wl.query(i, tracer, flip and i == 0)
        except Exception as e:  # a query that raises counts as failed
            t, msgs = None, [f"q{i} raised {type(e).__name__}: "
                             f"{str(e).strip().splitlines()[0] if str(e).strip() else ''}"]
        if t is not None:
            (traced_times if tracer.enabled else times).append(t)
            if not tracer.enabled:
                by_layout["repro"][i % 2].append(t)
        if msgs:
            failed += 1
            for m in msgs:
                print(f"MISMATCH {m}", flush=True)
        reps = [wl.baseline(i) for _ in range(BASELINE_REPS)]
        base += reps
        by_layout["baseline"][i % 2].extend(reps)
        log(f"q{i}: repro {t} s, baseline {' '.join(f'{x:.4f}' for x in reps)} s"
            + (" (traced)" if tracer.enabled else ""))
        i += 1
    if not times or (traced and not traced_times):
        raise SystemExit("perfbench: no reproducible query completed")
    return times, traced_times, base, by_layout, attempted, failed, on


def slowdown(by_layout) -> float:
    """Sum over the layouts of the median reproducible query time, over
    the same sum for the baseline."""
    from common import median
    repro = [xs for xs in by_layout["repro"] if xs]
    base = [b for xs, b in zip(by_layout["repro"], by_layout["baseline"]) if xs]
    return sum(map(median, repro)) / sum(map(median, base))


def main(argv=None) -> int:
    """Run one workload; on every way out, wait for every process it
    started (Spark's JVM and Python workers) to end."""
    from common import become_subreaper, reap_children
    become_subreaper()
    # SIGTERM unwinds like an exception, so the session is stopped as well
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return _main(argv)
    finally:
        reap_children()


def _main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=LOCAL + SPARK)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny inputs for the benchmark's own tests")
    ap.add_argument("--flip-bit", action="store_true",
                    help="flip one result bit of the first query, to show the "
                         "bit check fails")
    args = ap.parse_args(argv)
    _prepare_paths()

    from common import environment, log, median, peak_rss_mb, tail
    traced = bool(args.trace)
    if args.workload in LOCAL:
        from local import LocalWorkload
        wl = LocalWorkload(args.workload, args.seed, args.scale)
    else:
        from spark_wl import SparkWorkload
        wl = SparkWorkload(args.workload, args.seed, args.scale, OUT, traced)
    try:
        setup = wl.setup()
        setup_s = sum(setup.values())
        log(f"set-up {setup_s:.3f} s {setup}")
        spot = wl.reference()
        for m in spot:
            print(f"MISMATCH {m}", flush=True)
        times, traced_times, base, by_layout, attempted, failed, tracer = measure(
            wl, args.seconds, traced, args.flip_bit)
        rss = peak_rss_mb()
        info = environment(args.seed, wl.env())
        p50 = median(times)
        tail_s, tail_pct, n = tail(times)
        if traced:
            layer, checks = wl.layer_metrics(tracer, base)
            layer.update({f"setup.{k}": v for k, v in setup.items()})
            layer["trace.query_s_p50"] = median(traced_times)
            layer["trace.overhead_s"] = layer["trace.query_s_p50"] - p50
            for msgs in checks:
                attempted += 1
                failed += bool(msgs)
                for m in msgs:
                    print(f"MISMATCH {m}", flush=True)
            metrics = {k: (layer.get(k, 0.0), u) for k, u in PER_LAYER_UNITS.items()}
            spans = os.path.join(OUT, f"spans_{args.workload}_{args.seed}.json")
            tracer.dump(spans)
            info["spans"] = os.path.relpath(spans, ROOT)
        else:
            values = {"slowdown_x": slowdown(by_layout), "setup_s": setup_s,
                      "peak_rss_mb": rss}
            metrics = {k: (values[k], u) for k, u in END_TO_END_UNITS.items()}
    finally:
        wl.close()
    info.update({"query_s_p50": p50, "query_s_tail": tail_s,
                 "query_s_tail_percentile": tail_pct, "query_samples": n,
                 "rows_per_s": wl.rows / p50, "baseline_s_p50": median(base),
                 "peak_rss_mb": rss,
                 "error_frac": failed / attempted, "spot_check_failures": len(spot),
                 "setup": setup})
    print(json.dumps({"info": info}), flush=True)
    print(json.dumps({
        "correct": failed == 0 and not spot,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
