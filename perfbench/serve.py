"""``serve_long_window``: one in-process ``DetectionService`` with a
25,000 s window holding about 25k live comments.

Phases, in order: set-up fills the window to steady state; a closed loop
ingests as fast as ticks allow; an open loop offers events at a fixed
rate of the reference host's clock (about half the closed-loop capacity
on a 2-core host) and times each from its due time to the end of the
tick that applied it.  One
``top_k_triplets(10)`` query runs after every tick.
"""

from __future__ import annotations

import itertools
import time
from collections import deque

from repro.graph.bipartite import BipartiteTemporalMultigraph
from repro.graph.filters import AuthorFilter
from repro.pipeline import CoordinationPipeline, PipelineConfig
from repro.projection import TimeWindow
from repro.serve import DetectionService
from repro.verify.online import _engine_views, _oracle_views

from perfbench import layers
from perfbench.loops import OpenLoopResult, open_loop
from perfbench.spans import Tracer
from perfbench.stats import (
    HostSpeed,
    Outcome,
    RssSampler,
    Samples,
    median,
    quantile_label,
    tail_quantile,
)
from perfbench.streams import StreamSpec, iter_events

HORIZON = 25_000
#: Events that fill the window: 1.2 horizons at about one event per second.
FILL_EVENTS = 30_000
BATCH_SIZE = 64
QUEUE_CAPACITY = 8_192
#: Closed-loop ingest is timed per chunk of events (four ticks).
CHUNK = 4 * BATCH_SIZE
#: Queries always made (one per tick); fixes the tail percentile (p90).
MIN_QUERIES = 100
#: The closed loop alone makes the minimum number of queries.
MIN_CHUNKS = MIN_QUERIES * BATCH_SIZE // CHUNK
#: Offered rate of the open-loop phase, events per second of the
#: reference host (see ``_Driver.open_loop``).
OPEN_LOOP_RATE = 900
#: How many of the latest host factors set the rate of a segment.
RATE_FACTORS = 5
#: The open loop runs in segments of about this length, with a host-speed
#: probe between them; set-up probes the host every this many ticks.
OPEN_SEGMENT_S = 0.6
FILL_PROBE_TICKS = 50
LATE_SHARE = 0.01
CLOSED_SHARE = 0.4
#: Closed- and open-loop phases alternate this many times.
BLOCKS = 3
SETUP_REPEATS = 3
QUERY_TAIL = tail_quantile(MIN_QUERIES)
#: About 40 open-loop ticks a second at 900 events/s, so at least 100 in
#: a run of 5 s or more: p90 leaves 10 slow ticks beyond it.
FRESHNESS_TAIL = 0.9

SPEC = StreamSpec(horizon=HORIZON, late_share=LATE_SHARE)


def config() -> PipelineConfig:
    return PipelineConfig(
        window=TimeWindow(0, 60),
        min_triangle_weight=3,
        min_component_size=3,
        author_filter=AuthorFilter.none(),
    )


class _Driver:
    """Feeds one service and keeps what the checks and metrics need."""

    def __init__(self, svc: DetectionService, out: Outcome, speed: HostSpeed) -> None:
        self.svc = svc
        self.out = out
        self.speed = speed
        self.consumed: list = []
        self.deliberately_late = 0
        self.queries = Samples()  # at reference host speed
        self.queue_wait = Samples()
        self.depth_max = 0
        self._unit_queries = Samples()
        self._submitted: deque[float] = deque()

    def submit(self, item) -> bool:
        event, late = item
        ok = self.svc.submit(event)
        self.out.ops.record("submit", ok)
        if ok:
            self.consumed.append(event)
            self.deliberately_late += late
            self._submitted.append(time.perf_counter())
        return ok

    def tick(self, query: bool = True) -> int:
        """One tick plus (unless filling) its query; returns events drained."""
        depth = self.svc.queue.depth
        self.depth_max = max(self.depth_max, depth)
        start = time.perf_counter()
        self.svc.tick()
        taken = depth - self.svc.queue.depth
        for _ in range(taken):
            self.queue_wait.add(start - self._submitted.popleft())
        self.out.ops.record("tick", True)
        if not query:
            return taken
        q0 = time.perf_counter()
        try:
            self.svc.top_k_triplets(10)
        except Exception:  # noqa: BLE001 - a failed query is counted, not fatal
            self.out.ops.record("query", False)
            self._unit_queries.fail()
        else:
            self.out.ops.record("query", True)
            self._unit_queries.add(time.perf_counter() - q0)
        return taken

    def end_unit(self) -> float:
        """Probe the host after a unit of work; file the unit's queries at
        reference speed and return its host factor."""
        f = self.speed.factor()
        self.queries.extend(self._unit_queries, 1 / f)
        self._unit_queries = Samples()
        return f

    def closed_loop(self, stream, seconds: float, min_chunks: int,
                    walls: list, raw: list) -> int:
        """Ingest chunks of ``CHUNK`` events until *seconds* pass (and at
        least *min_chunks*); appends each chunk's time at reference host
        speed to *walls* and as measured to *raw*; returns events."""
        n = 0
        end = time.perf_counter() + seconds
        for k in itertools.count():
            if k >= min_chunks and time.perf_counter() >= end:
                return n
            start = time.perf_counter()
            for _ in range(CHUNK // BATCH_SIZE):
                for item in itertools.islice(stream, BATCH_SIZE):
                    while not self.submit(item):
                        self.tick()
                    n += 1
                self.tick()
            raw.append(time.perf_counter() - start)
            walls.append(raw[-1] / self.end_unit())

    def open_loop(self, stream, seconds: float) -> OpenLoopResult:
        """Open loop at ``OPEN_LOOP_RATE`` in segments of about
        ``OPEN_SEGMENT_S``, each drained before the host probe that
        follows it; freshness at reference host speed."""
        total = OpenLoopResult()
        segments = max(1, round(seconds / OPEN_SEGMENT_S))
        for _ in range(segments):
            # The rate is fixed on the reference host's clock, as every
            # reported time is: a host now slower by a factor f is offered
            # OPEN_LOOP_RATE / f, which loads the service as the reference
            # host would be loaded.  Freshness grows faster than linearly
            # with load, so at one wall-clock rate it moved with host speed
            # even after scaling (12-21% spread over ten seeds).
            f = median(self.speed.factors[-RATE_FACTORS:])
            result = open_loop(stream, OPEN_LOOP_RATE / f, seconds / segments,
                               self.submit, self.tick)
            total.freshness.extend(result.freshness, 1 / self.end_unit())
            total.lag.extend(result.lag, 1.0)
            total.offered += result.offered
            total.rejected += result.rejected
            total.ticks += result.ticks
        return total


def _fill(fill_events, out: Outcome, speed: HostSpeed) -> tuple[_Driver, float, float]:
    """Construct a service and fill its window; returns the driver and the
    set-up time at reference host speed and as measured."""
    total = raw = 0.0
    start = time.perf_counter()
    svc = DetectionService(config(), window_horizon=HORIZON, batch_size=BATCH_SIZE,
                           queue_capacity=QUEUE_CAPACITY)
    driver = _Driver(svc, out, speed)
    n_ticks = -(-len(fill_events) // BATCH_SIZE)
    for i in range(n_ticks):
        for item in fill_events[i * BATCH_SIZE:(i + 1) * BATCH_SIZE]:
            driver.submit(item)
        driver.tick(query=False)
        if (i + 1) % FILL_PROBE_TICKS == 0 or i + 1 == n_ticks:
            wall = time.perf_counter() - start
            total += wall / speed.factor()
            raw += wall
            start = time.perf_counter()
    return driver, total, raw


def run(seed: int, seconds: float, trace: Tracer | None) -> Outcome:
    out = Outcome()
    stream = iter_events(seed, SPEC)
    fill_events = list(itertools.islice(stream, FILL_EVENTS))
    with RssSampler() as rss:
        speed = HostSpeed()
        setups = []
        for _ in range(SETUP_REPEATS):
            driver, setup, raw = _fill(fill_events, out, speed)
            setups.append((setup, raw))
        out.put("setup_s", median(s for s, _raw in setups), len(setups))
        out.put("raw.setup_s", median(raw for _s, raw in setups), len(setups))
        driver.queue_wait = Samples()
        if trace is None:
            _measure(out, driver, stream, seconds)
        else:
            _traced(out, trace, driver, stream, seconds)
    out.put("peak_rss_mb", rss.peak_mb)
    _check(out, driver)
    return out


def _measure(out: Outcome, driver: _Driver, stream, seconds: float) -> None:
    """Closed-loop and open-loop phases alternate in ``BLOCKS`` blocks, so
    both sample the whole measured time."""
    walls, raw = [], []
    freshness = Samples()
    n = offered = ticks = 0
    for _ in range(BLOCKS):
        n += driver.closed_loop(stream, seconds * CLOSED_SHARE / BLOCKS,
                                -(-MIN_CHUNKS // BLOCKS), walls, raw)
        block = driver.open_loop(stream, seconds * (1 - CLOSED_SHARE) / BLOCKS)
        freshness.extend(block.freshness, 1.0)
        offered += block.offered
        ticks += block.ticks
    out.put("events_per_s", CHUNK / median(walls), n, "median chunk")
    out.put("raw.events_per_s", CHUNK / median(raw), n, "median chunk")
    # The events of one tick share its end, so the tail is chosen from the
    # ticks that applied them, not from the events.
    if tail_quantile(ticks) < FRESHNESS_TAIL:
        raise RuntimeError(f"freshness: {ticks} open-loop ticks cannot support "
                           f"{quantile_label(FRESHNESS_TAIL)}")
    out.latency("freshness", freshness, FRESHNESS_TAIL)
    out.put("open_loop_events", offered)
    out.put("open_loop_ticks", ticks)
    out.latency("query", driver.queries, QUERY_TAIL)
    out.put("host.factor_p50", median(driver.speed.factors), len(driver.speed.factors))


def _traced(out: Outcome, tracer: Tracer, driver: _Driver, stream, seconds: float) -> None:
    svc = driver.svc
    engine = svc.engine
    walls: list = []
    n = driver.closed_loop(stream, seconds * 0.3, MIN_CHUNKS, walls, [])
    out.put("trace.events_per_s_untraced", CHUNK / median(walls), n)
    before = svc.metrics.to_dict()
    tracer.patch(svc, "tick", "service.tick")
    tracer.patch(engine, "ingest", "engine.ingest")
    tracer.patch(engine, "advance", "engine.advance")
    tracer.patch(engine, "top_k_triplets", "engine.topk")
    layers.patch_projector(tracer, engine.proj)
    layers.patch_kernels(tracer, layers.incremental)
    driver.queue_wait = Samples()
    driver.depth_max = 0
    try:
        walls = []
        n = driver.closed_loop(stream, seconds * 0.35, MIN_CHUNKS, walls, [])
        block = driver.open_loop(stream, seconds * 0.35)
    finally:
        tracer.restore()
    after = svc.metrics.to_dict()
    rate = CHUNK / median(walls)
    out.put("trace.events_per_s_traced", rate, n)
    out.put("trace.overhead_ratio", out.metrics["trace.events_per_s_untraced"][0] / rate)
    out.put("trace.events", n + block.offered)
    out.put("trace.spans", len(tracer.spans))

    self_s = tracer.self_times_s()
    out.put("service.tick_s", tracer.total_s("service.tick"), tracer.calls["service.tick"])
    out.put("engine.ingest_s", tracer.total_s("engine.ingest"), tracer.calls["engine.ingest"])
    out.put("engine.advance_s", tracer.total_s("engine.advance"), tracer.calls["engine.advance"])
    out.put("engine.self_s", self_s.get("engine.ingest", 0.0) + self_s.get("engine.advance", 0.0))
    out.put("engine.topk_s", tracer.total_s("engine.topk"), tracer.calls["engine.topk"])
    for name, value in {**layers.projector_metrics(tracer), **layers.kernel_metrics(tracer)}.items():
        out.put(name, value)

    def delta(kind: str, name: str) -> float:
        return after[kind].get(name, 0) - before[kind].get(name, 0)

    update = after["histograms"]["engine.update"]
    update_before = before["histograms"]["engine.update"]
    update_s = (update["mean"] * update["count"]
                - update_before["mean"] * update_before["count"])
    ingested = delta("counters", "engine.events_ingested")
    batches = delta("counters", "engine.batches")
    rescored = delta("counters", "engine.rescored_triangles")
    out.put("engine.update_us_per_event", update_s / max(ingested, 1) * 1e6, ingested)
    out.put("engine.dirty_edges", delta("counters", "engine.dirty_edges"))
    out.put("engine.rescored_triangles", rescored)
    out.put("engine.rescored_per_batch", rescored / max(batches, 1), batches)
    out.put("engine.compactions", delta("counters", "engine.compactions"))
    out.put("engine.live_comments", after["gauges"]["engine.live_comments"])
    out.put("engine.triangles", after["gauges"]["engine.triangles"])
    out.put("service.queue_wait_ms", driver.queue_wait.quantile(0.5) * 1e3, driver.queue_wait.n,
            "p50")
    out.put("service.queue_depth_max", driver.depth_max)
    lag = block.lag
    lag_q = tail_quantile(lag.n)
    out.put("service.generator_lag_ms", lag.quantile(lag_q) * 1e3, lag.n, quantile_label(lag_q))
    out.put("service.rejected", delta("counters", "service.backpressure"))


def _check(out: Outcome, driver: _Driver) -> None:
    """Failure accounting for late drops, then final state == batch oracle."""
    svc = driver.svc
    svc.drain_all()
    late = svc.metrics.counter("engine.events_late_dropped").value
    out.check(late >= driver.deliberately_late,
              f"{driver.deliberately_late} events were made late but only {late} were dropped")
    if late > driver.deliberately_late:  # admitted events the engine dropped
        out.ops.fail("submit", late - driver.deliberately_late)
    cutoff = svc.engine.evict_cutoff
    live = [e for e in driver.consumed if cutoff is None or e[2] >= cutoff]
    oracle = CoordinationPipeline(svc.engine.config).run(
        BipartiteTemporalMultigraph.from_comments(live))
    names = ("CI edges", "P' ledger", "triplets", "components")
    for name, want, got in zip(names, _oracle_views(oracle), _engine_views(svc.engine)):
        out.check(want == got, f"engine {name} differ from the batch oracle over the live window")
    out.check(svc.engine.n_live_comments == len(live),
              f"engine holds {svc.engine.n_live_comments} live comments, oracle {len(live)}")
