"""Sample summaries, failure accounting and memory sampling.

Latencies are summarised as a median plus a *tail*: the highest
percentile of :data:`TAIL_LADDER` that still has at least
:data:`MIN_BEYOND` samples beyond it.  A workload picks its tail from the
sample count it always reaches (a constant), so a faster program that
collects more samples is still compared at the same percentile.

A failed or refused operation is never dropped from a latency sample: it
is recorded as ``inf`` and so misses any latency limit.
"""

from __future__ import annotations

import gc
import math
import os
import threading
import time
from collections import Counter

import numpy as np

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def tail_quantile(n: int) -> float:
    """The highest ladder quantile with at least ``MIN_BEYOND`` of *n*
    samples beyond it.

    >>> tail_quantile(1000), tail_quantile(999), tail_quantile(100)
    (0.99, 0.95, 0.9)
    """
    for q in TAIL_LADDER:
        # round() keeps 1000 * (1 - 0.99) from reading 9.999999...
        if round(n * (1.0 - q), 9) >= MIN_BEYOND:
            return q
    raise ValueError(f"{n} samples leave no percentile with {MIN_BEYOND} beyond it")


def quantile_label(q: float) -> str:
    """``0.99`` -> ``"p99"``, ``0.999`` -> ``"p99.9"``."""
    return "p" + f"{q * 100:.1f}".rstrip("0").rstrip(".")


class Samples:
    """Latency samples (seconds) with nearest-rank quantiles.

    Each sample keeps its value as measured beside the value it is
    reported as (scaled to reference host speed, see :class:`HostSpeed`).
    """

    def __init__(self) -> None:
        self._rows: list[tuple[float, float]] = []  # (reported, as measured)

    @property
    def n(self) -> int:
        return len(self._rows)

    def add(self, value: float, scale: float = 1.0) -> None:
        """Record *value* seconds, reported as ``value * scale``."""
        self._rows.append((value * scale, value))

    def fail(self) -> None:
        """Record a failed operation: it misses every latency limit."""
        self.add(math.inf)

    def extend(self, other: "Samples", scale: float) -> None:
        """Add every sample of *other*, its reported value multiplied by
        *scale*."""
        self._rows.extend((value * scale, raw) for value, raw in other._rows)

    def quantile(self, q: float, raw: bool = False) -> float:
        """Nearest-rank *q*-quantile of the reported values (of the values
        as measured if *raw*); ``inf`` if a failure lands there."""
        if not self._rows:
            raise ValueError("no samples")
        column = sorted(row[1 if raw else 0] for row in self._rows)
        return column[max(1, math.ceil(q * len(column))) - 1]


class OpLedger:
    """Attempted and failed operations, per operation kind."""

    def __init__(self) -> None:
        self.attempted: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()

    def record(self, kind: str, ok: bool, count: int = 1) -> None:
        self.attempted[kind] += count
        if not ok:
            self.failed[kind] += count

    def fail(self, kind: str, count: int = 1) -> None:
        """Count failures discovered after the fact (the attempt was
        already recorded as a success)."""
        self.failed[kind] += count

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    def describe(self) -> str:
        return ", ".join(
            f"{kind} {self.failed[kind]}/{n}"
            for kind, n in sorted(self.attempted.items())
        )


class HostSpeed:
    """How fast the host runs right now, relative to a reference.

    Co-tenant load on a shared host moves every timing of this benchmark
    by 15-30% over tens of seconds, far more than the changes it has to
    resolve.  So the benchmark times a fixed probe that does not touch
    the program (dict churn plus a numpy sort, about 4 ms, with the
    garbage collector off) between units of measured work, and reports
    each unit at reference host speed: a duration is divided by, and a
    rate multiplied by, the unit's factor ``(probe before + probe after)
    / 2 / REFERENCE_S``.  On a 2-core shared host this cut the
    interquartile spread of 5 s serve-ingest windows from 13-28% to 4-9%.
    The figures as measured are reported beside them as ``raw.*``.
    """

    #: Typical probe time on the 2-core reference host.
    REFERENCE_S = 0.0038

    _KEYS = [(i % 97, i % 1013, i) for i in range(4000)]
    _ARRAY = np.random.default_rng(0).integers(0, 1 << 40, 40_000)

    def __init__(self) -> None:
        self._last = self._probe()
        self.factors: list[float] = []

    def _probe(self) -> float:
        # The probe runs in the program's process.  With the collector on,
        # a full collection could fire inside it, and its cost grows with
        # the program's heap: the probe would then time the program.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            counts: dict = {}
            for key in self._KEYS:
                pair = key[:2]
                counts[pair] = counts.get(pair, 0) + 1
            sorted(counts.items())
            np.sort(self._ARRAY)
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        """Probe now and return the factor of the unit that just ended
        (it started at the previous probe)."""
        now = self._probe()
        f = (self._last + now) / 2 / self.REFERENCE_S
        self._last = now
        self.factors.append(f)
        return f


_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mb(pid: int | str) -> float:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE_MB
    except (OSError, IndexError, ValueError):
        return 0.0  # the process exited between listing and reading


def _child_pids() -> list[str]:
    pids: list[str] = []
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for tid in tasks:
        try:
            with open(f"/proc/self/task/{tid}/children") as f:
                pids.extend(f.read().split())
        except OSError:
            continue
    return pids


def tree_rss_mb() -> float:
    """Resident memory of this process plus its direct children (MB)."""
    return _rss_mb("self") + sum(_rss_mb(pid) for pid in _child_pids())


class RssSampler:
    """Samples :func:`tree_rss_mb` every :attr:`INTERVAL_S` on a background
    thread; keeps the peak.

    Use as a context manager around the phases whose memory counts.
    """

    INTERVAL_S = 0.05

    def __init__(self) -> None:
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, tree_rss_mb())
            self._stop.wait(self.INTERVAL_S)

    def __enter__(self) -> "RssSampler":
        self.peak_mb = max(self.peak_mb, tree_rss_mb())
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.peak_mb = max(self.peak_mb, tree_rss_mb())


def median(values) -> float:
    """Median of a non-empty sequence."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


class Outcome:
    """Metrics, operation ledger and check failures of one workload run."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, int | None, str]] = {}
        self.ops = OpLedger()
        self.errors: list[str] = []

    def put(self, name: str, value: float, n: int | None = None, note: str = "") -> None:
        """Report *value* for metric *name* over *n* samples."""
        self.metrics[name] = (float(value), n, note)

    def latency(self, prefix: str, samples: Samples, tail_q: float) -> None:
        """``<prefix>_p50_ms`` and ``<prefix>_tail_ms`` from *samples*.

        *tail_q* is fixed per workload from the sample count the workload
        always reaches; fewer samples than that is a benchmark error.
        """
        if tail_q > tail_quantile(samples.n):
            raise RuntimeError(
                f"{prefix}: {samples.n} samples cannot support {quantile_label(tail_q)}"
            )
        for name, raw in ((prefix, False), (f"raw.{prefix}", True)):
            self.put(f"{name}_p50_ms", samples.quantile(0.5, raw) * 1e3, samples.n, "p50")
            self.put(f"{name}_tail_ms", samples.quantile(tail_q, raw) * 1e3, samples.n,
                     quantile_label(tail_q))

    def check(self, ok: bool, message: str) -> None:
        """Record *message* as an output-check failure unless *ok*."""
        if not ok:
            self.errors.append(message)
