"""In-memory span tracing from outside the program.

The benchmark wraps calls into each layer's public functions (module
attributes) and public methods (attributes set on the instances the
benchmark builds) with :class:`Tracer` spans.  Nothing under ``src/``
knows about it.  A span records its name, start, end, parent span and
trace id; spans are kept in memory and written out once, at exit.

A layer's *self time* is its spans' duration minus the part of each
span's interval that its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    trace: int


class Tracer:
    """Collects spans; patches and restores traced attributes.

    Each thread keeps its own span stack.  A span opened on a thread with
    an empty stack (an HTTP server thread, say) is parented to the
    :attr:`request` the client thread has declared, so one query's spans
    share a trace id across threads.
    """

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.calls: Counter[str] = Counter()
        #: ``(trace_id, span_id)`` of the client request in flight.
        self.request: tuple[int, int] | None = None
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_trace(self) -> int:
        return next(self._traces)

    @contextmanager
    def span(self, name: str, trace: int | None = None):
        """Record one span around the block."""
        stack = self._stack()
        if stack:
            parent, tr = stack[-1].sid, stack[-1].trace
        elif self.request is not None:
            tr, parent = self.request
        else:
            parent, tr = None, 0
        if trace is not None:
            tr = trace
        s = Span(next(self._ids), name, self.clock(), 0, parent, tr)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            stack.pop()
            self.spans.append(s)

    # -- wrapping ------------------------------------------------------------
    def wrap(self, fn, name: str, rows=None):
        """*fn* with every call recorded as a span *name*.

        ``rows(*args)``, when given, counts the input size of each call
        into ``calls[name + ".rows"]``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            if rows is not None:
                self.calls[name + ".rows"] += rows(*args)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_generator(self, fn, name: str):
        """Generator function *fn* with each resumption recorded as a span
        *name*, so work the consumer does between items is not charged
        to the generator."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            gen = fn(*args, **kwargs)  # runs no code until the first next()
            while True:
                with self.span(name):
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                yield item

        return traced

    def patch(
        self, owner, attr: str, name: str, *, generator: bool = False, rows=None
    ) -> None:
        """Replace ``owner.attr`` by its traced version until
        :meth:`restore`.  *owner* is a module or an instance."""
        had_own = attr in getattr(owner, "__dict__", {})
        original = getattr(owner, attr)
        if generator:
            traced = self.wrap_generator(original, name)
        else:
            traced = self.wrap(original, name, rows)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, had_own))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- reading -------------------------------------------------------------
    def total_s(self, name: str) -> float:
        """Summed duration of spans *name*, in seconds."""
        return sum(s.end - s.start for s in self.spans if s.name == name) / 1e9

    def self_times_s(self) -> dict[str, float]:
        """Per span name: summed self time in seconds."""
        return {name: ns / 1e9 for name, ns in self_time_ns(self.spans).items()}

    def dump(self, path, meta: dict) -> None:
        """Write every span (and *meta*) as one JSON document."""
        doc = {
            "meta": meta,
            "fields": ["sid", "name", "start_ns", "end_ns", "parent", "trace"],
            "spans": [
                [s.sid, s.name, s.start, s.end, s.parent, s.trace]
                for s in sorted(self.spans, key=lambda s: s.start)
            ],
        }
        with open(path, "w") as f:
            json.dump(doc, f)


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    covered = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def self_time_ns(spans) -> dict[str, int]:
    """Per span name: duration minus the union of its children's
    intervals clipped to the span (children may run on other threads
    and may overlap each other)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        kids = [
            (max(lo, s.start), min(hi, s.end))
            for lo, hi in children.get(s.sid, ())
            if hi > s.start and lo < s.end
        ]
        out[s.name] += (s.end - s.start) - _union_ns(kids)
    return dict(out)
