"""Table III — geometric-mean slowdown of buffered reproducible aggregation.

Sweeps the number of groups and, for every ``repro<ScalarT,L>``
(ScalarT ∈ {float, double}, L ∈ 1..4), measures PARTITIONANDAGGREGATE
*with summation buffers* (each batch is one compiled deposit call;
depth d from the offline depth thresholds) against the same operator on
built-in floats of the same width. The geometric mean of the
per-n_groups slowdowns is the paper's Table III (1.88–2.35 for float,
2.12–2.41 for double).

The compiled partition, deposit and finalize cut their n rows into
``_kernels.morsels(n)`` morsels (one per 2**16 rows, at most 64) and run
on ``_kernels.threads(n)`` threads (one per usable CPU, at most one per
morsel), which the job prints; the built-in baseline is NumPy on one
thread, so part of any drop in these ratios is cores, not a cheaper
algorithm. Pin the process (``taskset -c 0``) to measure one thread.

Also prints the Section IV spot check (Figure 4's claim): the
*unbuffered* drop-in repro type at 16 groups is 4–12x slower than
built-ins, which is the motivation for summation buffers.

Environment knobs: ``N`` (input size, default 2**22 — scaled down from
the paper's 2**30), ``REPS`` (timing repetitions, best-of, default 3),
``QUICK=1`` (tiny sweep for smoke tests).

Run: ``python jobs/table3_slowdown.py`` (no Spark needed).
"""
import json
import os
import sys
import time

import numpy as np

from repro.aggregate import partition_and_aggregate, hash_aggregate
from repro.core import _kernels
from repro.synth_data import np_groupby_input


def _best_time(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_sweep(n: int, group_exps, Ls, dtypes, reps: int):
    """Returns {(dtype_name, L): {n_groups: slowdown}} plus baselines."""
    results = {}
    base_times = {}
    for dt in dtypes:
        dtname = np.dtype(dt).name
        for ge in group_exps:
            G = 1 << ge
            if G > n:
                continue
            keys, vals = np_groupby_input(n, G, dist="uniform12", dtype=dt, seed=ge)
            tb = _best_time(
                lambda: partition_and_aggregate(keys, vals, G, kind="builtin",
                                                dtype=dt), reps)
            base_times[(dtname, G)] = tb
            for L in Ls:
                tr = _best_time(
                    lambda: partition_and_aggregate(
                        keys, vals, G, kind="repro_buffered", dtype=dt, L=L
                    ),
                    reps,
                )
                results.setdefault((dtname, L), {})[G] = tr / tb
    return results, base_times


def unbuffered_spot_check(n: int, reps: int, dtypes):
    """Figure 4's setting: 16 groups, drop-in repro type, no buffers."""
    out = {}
    for dt in dtypes:
        keys, vals = np_groupby_input(n, 16, dist="uniform12", dtype=dt, seed=4)
        tb = _best_time(lambda: hash_aggregate(keys, vals, 16, kind="builtin",
                                               dtype=dt), reps)
        for L in (1, 2, 3, 4):
            tr = _best_time(
                lambda: hash_aggregate(keys, vals, 16, kind="repro", dtype=dt, L=L),
                reps,
            )
            out[(np.dtype(dt).name, L)] = tr / tb
    return out


PAPER_TABLE3 = {  # data type -> geometric-mean slowdown (paper Table III)
    ("float64", 1): 2.12, ("float64", 2): 2.18,
    ("float64", 3): 2.29, ("float64", 4): 2.41,
    ("float32", 1): 1.88, ("float32", 2): 2.11,
    ("float32", 3): 2.16, ("float32", 4): 2.35,
}


def main():
    quick = os.environ.get("QUICK") == "1"
    n = int(os.environ.get("N", str(1 << (16 if quick else 22))))
    reps = int(os.environ.get("REPS", "1" if quick else "3"))
    group_exps = (4, 8) if quick else tuple(range(4, 23, 2))
    dtypes = (np.float32, np.float64)
    Ls = (1, 2) if quick else (1, 2, 3, 4)

    print(f"n = {n}, n_groups = 2^{list(group_exps)}, best of {reps} runs, "
          f"{_kernels.threads(n)} kernel thread(s) per call at n rows")
    results, base = run_sweep(n, group_exps, Ls, dtypes, reps)

    print("\nPer-n_groups slowdown of repro_buffered vs builtin (same width):")
    header = "dtype      L  " + "".join(f"  2^{g:<4d}" for g in group_exps)
    print(header)
    rows = {}
    for (dtname, L), sl in sorted(results.items()):
        cells = "".join(f"  {sl.get(1 << g, float('nan')):5.2f}" for g in group_exps)
        gm = float(np.exp(np.mean(np.log(list(sl.values())))))
        rows[(dtname, L)] = gm
        print(f"{dtname:9s} {L:2d}  {cells}")

    print("\nTable III — geometric mean of slowdown (paper vs measured):")
    print(f"{'data type':22s} {'paper':>6s} {'measured':>9s}")
    for (dtname, L), gm in sorted(rows.items()):
        scalar = "float" if dtname == "float32" else "double"
        paper = PAPER_TABLE3.get((dtname, L))
        ps = f"{paper:6.2f}" if paper is not None else "   n/a"
        print(f"repro<{scalar},{L}>{'':8s} {ps} {gm:9.2f}")

    print("\nSpot check (Fig. 4 claim: unbuffered drop-in repro, 16 groups,")
    print("4x-12x slower than builtin):")
    for (dtname, L), sl in sorted(unbuffered_spot_check(n, reps, dtypes).items()):
        print(f"  repro<{dtname},{L}> unbuffered: {sl:5.2f}x")

    out = os.environ.get("JSON_OUT")
    if out:
        with open(out, "w") as f:
            json.dump({f"{k[0]},L={k[1]}": v for k, v in rows.items()}, f, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
