"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import sys
import time
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.loops import open_loop  # noqa: E402
from perfbench.run import WORKLOADS, _stop_children  # noqa: E402
from perfbench.spans import Span, Tracer, self_time_ns  # noqa: E402
from perfbench.stats import (  # noqa: E402
    HostSpeed,
    Outcome,
    Samples,
    quantile_label,
    tail_quantile,
)
from perfbench.streams import StreamSpec, first_events, iter_events, stream_digest  # noqa: E402


# -- percentile choice --------------------------------------------------------
@pytest.mark.parametrize(
    "n, q",
    [(20, 0.5), (39, 0.5), (40, 0.75), (100, 0.9), (199, 0.9), (200, 0.95),
     (999, 0.95), (1000, 0.99), (9999, 0.99), (10_000, 0.999), (10**6, 0.999)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, q):
    assert tail_quantile(n) == q
    assert n * (1 - q) >= 10 - 1e-9


def test_too_few_samples_for_any_tail():
    with pytest.raises(ValueError):
        tail_quantile(19)


def test_latency_report_carries_percentile_and_sample_count():
    samples = Samples()
    for ms in range(1, 201):
        samples.add(ms / 1e3)
    out = Outcome()
    out.latency("query", samples, tail_quantile(samples.n))
    assert out.metrics["query_p50_ms"] == (100.0, 200, "p50")
    assert out.metrics["query_tail_ms"] == (190.0, 200, "p95")
    assert quantile_label(0.999) == "p99.9"


def test_latency_refuses_a_tail_the_samples_cannot_support():
    samples = Samples()
    for _ in range(150):
        samples.add(0.001)
    with pytest.raises(RuntimeError):
        Outcome().latency("query", samples, 0.95)


def test_failed_operations_stay_in_the_sample_and_miss_the_limit():
    samples = Samples()
    for _ in range(95):
        samples.add(0.001)
    for _ in range(5):
        samples.fail()
    assert samples.n == 100
    assert samples.quantile(0.5) == 0.001
    assert math.isinf(samples.quantile(0.99))


def test_scaled_samples_keep_their_values_as_measured():
    unit = Samples()
    samples = Samples()
    for _ in range(10):
        unit.add(2.0)
        unit.add(4.0)
        samples.add(3.0, scale=2.0)
    samples.extend(unit, 0.5)
    assert [samples.quantile(q) for q in (0.2, 0.5, 1.0)] == [1.0, 2.0, 6.0]
    assert [samples.quantile(q, raw=True) for q in (0.2, 0.5, 1.0)] == [2.0, 3.0, 4.0]
    report = Outcome()
    report.latency("query", samples, 0.5)
    assert report.metrics["query_p50_ms"] == (2000.0, 30, "p50")
    assert report.metrics["raw.query_p50_ms"] == (3000.0, 30, "p50")


def test_host_probe_leaves_the_collector_as_it_found_it():
    speed = HostSpeed()
    assert gc.isenabled()
    gc.disable()
    try:
        speed.factor()
        assert not gc.isenabled()
    finally:
        gc.enable()
    speed.factor()
    assert gc.isenabled()


# -- open loop ----------------------------------------------------------------
class _FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_times_events_from_their_due_time():
    """A stall delays the events due during it; their latency counts the
    wait, not just the time from their (late) send to their apply."""
    clock = _FakeClock()
    queue: list = []
    ticks = {"n": 0}

    def submit(event):
        queue.append(event)
        return True

    def tick():
        ticks["n"] += 1
        # The first tick stalls for 1 s; later ticks take 1 ms.
        clock.now += 1.0 if ticks["n"] == 1 else 0.001
        taken = len(queue)
        queue.clear()
        return taken

    result = open_loop(range(100), rate=10.0, duration=2.0, submit=submit, tick=tick,
                       clock=clock, sleep=clock.sleep)
    assert result.offered == 20 and result.rejected == 0 and result.freshness.n == 20
    # Event 0 is due at 0 s and applied at 1.0 s.
    assert result.freshness.quantile(1.0) == pytest.approx(1.0)
    # Event 1 fell due at 0.1 s, during the stall; it was sent at 1.0 s
    # and applied at 1.001 s.  From its send it took 1 ms; from its due
    # time, 901 ms, and that is what counts.
    assert result.freshness.quantile(0.95) == pytest.approx(0.901)
    assert result.lag.quantile(1.0) == pytest.approx(0.9)
    # Ten events (0-9) waited out the stall; the other ten took 1 ms.
    assert result.freshness.quantile(0.5) == pytest.approx(0.001)


def test_open_loop_counts_rejected_events_as_failures():
    clock = _FakeClock()
    queue: list = []

    def submit(event):
        if event % 2:
            return False
        queue.append(event)
        return True

    def tick():
        taken = len(queue)
        queue.clear()
        return taken

    result = open_loop(range(10), rate=10.0, duration=1.0, submit=submit, tick=tick,
                       clock=clock, sleep=clock.sleep)
    assert result.offered == 10 and result.rejected == 5 and result.freshness.n == 10
    assert math.isinf(result.freshness.quantile(0.6))
    assert not math.isinf(result.freshness.quantile(0.5))


# -- spans and self time --------------------------------------------------------
def test_self_time_subtracts_children_once_even_when_they_overlap():
    spans = [
        Span(1, "root", 0, 100, None, 1),
        Span(2, "child", 10, 40, 1, 1),
        Span(3, "child", 30, 50, 1, 1),  # overlaps the first child
        Span(4, "grandchild", 12, 20, 2, 1),
        Span(5, "other", 90, 130, 1, 1),  # runs past the parent's end
    ]
    self_ns = self_time_ns(spans)
    assert self_ns["root"] == 100 - (50 - 10) - (100 - 90)
    assert self_ns["child"] == (30 - 8) + 20
    assert self_ns["grandchild"] == 8
    assert self_ns["other"] == 40


def test_tracer_nests_spans_and_restores_patches():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))

    class Service:
        def work(self):
            return self.inner() + 1

        def inner(self):
            return 1

    svc = Service()
    tracer.patch(svc, "work", "svc.work")
    tracer.patch(svc, "inner", "svc.inner")
    assert svc.work() == 2
    tracer.restore()
    assert "work" not in vars(svc) and "inner" not in vars(svc)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["svc.inner"].parent == by_name["svc.work"].sid
    assert by_name["svc.inner"].trace == by_name["svc.work"].trace
    assert tracer.self_times_s()["svc.work"] == pytest.approx(20e-9)
    assert tracer.calls["svc.work"] == 1


def test_generator_spans_do_not_charge_the_consumer():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))

    def gen():
        yield 1
        yield 2

    traced = tracer.wrap_generator(gen, "gen")
    assert list(traced()) == [1, 2]
    assert tracer.calls["gen"] == 1
    assert len(tracer.spans) == 3  # two items, then exhaustion


def test_server_thread_spans_join_the_client_request():
    import threading

    tracer = Tracer()
    with tracer.span("http.request", trace=tracer.new_trace()) as req:
        tracer.request = (req.trace, req.sid)
        worker = threading.Thread(target=_open_span, args=(tracer, "tier.topk"))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    child = next(s for s in tracer.spans if s.name == "tier.topk")
    assert child.parent == req.sid and child.trace == req.trace


def _open_span(tracer: Tracer, name: str) -> None:
    with tracer.span(name):
        pass


# -- generator determinism ------------------------------------------------------
def test_same_seed_same_stream_different_seed_different_stream():
    spec = StreamSpec(horizon=500, late_share=0.05)
    a = stream_digest(first_events(7, spec, 3_000))
    assert a == stream_digest(first_events(7, spec, 3_000))
    assert a != stream_digest(first_events(8, spec, 3_000))


def test_batch_arrival_order_follows_the_seed():
    from perfbench.batch import corpus

    _truth, first = corpus(1)
    _truth, again = corpus(1)
    _truth, other = corpus(2)
    assert stream_digest(first) == stream_digest(again)
    assert stream_digest(first) != stream_digest(other)
    assert sorted(first) == sorted(other)  # same month, another order


def test_late_events_are_exactly_the_flagged_ones():
    spec = StreamSpec(horizon=500, late_share=0.05)
    newest = -math.inf
    n_late = 0
    for i, ((_author, _page, t), late) in enumerate(iter_events(3, spec)):
        if i == 5_000:
            break
        if late:
            n_late += 1
            assert t < newest - spec.horizon
        else:
            assert t >= newest - spec.horizon
            newest = max(newest, t)
    assert n_late > 0


# -- BENCHMARK.json stays in step with the code ---------------------------------
def test_benchmark_json_lists_the_workloads_run_py_accepts():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# -- teardown -----------------------------------------------------------------
def test_run_leaves_no_child_process_behind():
    segment = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
    segment.close()
    segment.unlink()
    child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,))
    child.start()
    _stop_children()
    assert not child.is_alive()
    assert resource_tracker._resource_tracker._pid is None
    assert not multiprocessing.active_children()
