"""Pieces shared by every workload: statistics, spans, memory, bit checks."""
from __future__ import annotations

import json
import ctypes
import os
import platform
import signal
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

#: RsumScalar adds per spot check (about 27 us each on a 4-core host).
SPOT_ADDS = 16_384


def median(xs) -> float:
    return float(statistics.median(xs))


def tail(xs) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with at least
    ten samples beyond it, floored at the median when the sample is too
    small to support a percentile above it."""
    s = sorted(xs)
    n = len(s)
    k = n - 11
    if k >= n / 2:
        return float(s[k]), round(100.0 * (k + 1) / n, 1), n
    return median(s), 50.0, n


class Tracer:
    """Spans kept in memory (name, start, end, parent, query) and counters.

    With ``enabled=False`` every call is a no-op, so the untraced path
    pays only a branch.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, query: str | None = None, **attrs):
        if not self.enabled:
            yield {}
            return
        parent = self._stack[-1] if self._stack else None
        if query is None and parent is not None:
            query = self.spans[parent]["query"]
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "query": query, **attrs}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    def total(self, name: str, query: str | None = None) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and (query is None or s["query"] == query))

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)


def _proc_status(pid: int) -> dict[str, str]:
    out = {}
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                k, _, v = line.partition(":")
                out[k] = v.strip()
    except OSError:
        pass
    return out


def peak_rss_mb() -> float:
    """Sum of ``VmHWM`` over this process and all its descendants
    (driver Python, and for Spark the JVM and its Python workers)."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            ppid = _proc_status(int(name)).get("PPid")
            if ppid is not None:
                children.setdefault(int(ppid), []).append(int(name))
    total_kb, todo = 0, [os.getpid()]
    while todo:
        pid = todo.pop()
        hwm = _proc_status(pid).get("VmHWM", "0 kB").split()[0]
        total_kb += int(hwm)
        todo.extend(children.get(pid, []))
    return total_kb / 1024.0


def environment(seed: int, extra: dict) -> dict:
    import pandas
    import pyarrow
    import pyspark
    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "cores": os.cpu_count(),
        "mem_gib": round(mem_kb / 2**20, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "pyspark": pyspark.__version__,
        "seed": seed,
        **extra,
    }


def bits(a) -> np.ndarray:
    """IEEE-754 bit patterns of a float64 array."""
    return np.ascontiguousarray(a, np.float64).view(np.uint64)


def diff_groups(keys, got: np.ndarray, ref: np.ndarray, label: str,
                limit: int = 3) -> list[str]:
    """Messages for groups whose result bits differ (at most ``limit``).

    ``got`` and ``ref`` are aligned on ``keys``: shape ``(groups,)`` or
    ``(groups, columns)``.
    """
    gb = bits(got).reshape(len(keys), -1)
    rb = bits(ref).reshape(len(keys), -1)
    bad = np.flatnonzero((gb != rb).any(axis=1))
    msgs = [f"{label}: group {keys[i]!r}: got bits {[hex(x) for x in gb[i]]} "
            f"!= reference {[hex(x) for x in rb[i]]}" for i in bad[:limit]]
    if len(bad) > limit:
        msgs.append(f"{label}: {len(bad) - limit} more groups differ")
    return msgs


def spot_check(L: int, vals: np.ndarray, ref_value: float) -> bool:
    """Algorithm 2 (``RsumScalar``) over ``vals`` equals ``ref_value`` bit for bit."""
    from repro.core import RsumScalar
    got = RsumScalar(L=L).add_many(vals).finalize()
    return bits([got])[0] == bits([ref_value])[0]


def become_subreaper() -> None:
    """Make this process the parent of every orphaned descendant (Spark's
    JVM outlives ``SparkSession.stop`` and its Python workers outlive the
    JVM), so that ``reap_children`` can wait for all of them."""
    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _children() -> list[int]:
    me = str(os.getpid())
    return [int(name) for name in os.listdir("/proc")
            if name.isdigit() and _proc_status(int(name)).get("PPid") == me]


def reap_children(grace: float = 30.0) -> None:
    """Wait until this process has no child left. Children still running
    after ``grace`` seconds are killed; orphaned grandchildren come back
    as children (see ``become_subreaper``) and are waited for too."""
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)
