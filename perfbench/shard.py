"""``shard_page_mixed``: a 2-shard page-mode ``ShardedDetectionService``
behind one ``HttpGateway``, driven by one client thread over one
keep-alive connection.

The 6,000 s window keeps engine work small, so router forwarding, the
supervisor pipes, the partial-weight exchange, the merge and HTTP
dominate.  Phase 1 is closed-loop ingest; phase 2 repeats "submit a
fixed slice of events, then ``GET /topk``".  Every write invalidates the
tier's aggregate view, so every read pays a full exchange.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import socket
import time

from repro.graph.filters import AuthorFilter
from repro.pipeline import PipelineConfig
from repro.projection import TimeWindow
from repro.serve import DetectionService
from repro.serve.http import HttpGateway
from repro.serve.shard import ShardedDetectionService

from perfbench.spans import Tracer
from perfbench.stats import HostSpeed, Outcome, RssSampler, Samples, median, tail_quantile
from perfbench.streams import StreamSpec, iter_events

HORIZON = 6_000
FILL_EVENTS = 7_200
N_SHARDS = 2
FORWARD_BATCH = 64
BATCH_SIZE = 64
#: Events written between two reads in phase 2.
SLICE = 128
#: Closed-loop ingest is timed per chunk of events.
CHUNK = 512
MIN_CHUNKS = 5
CLOSED_SHARE = 0.25
#: Closed-loop ingest and read-after-write alternate this many times.
BLOCKS = 4
SETUP_REPEATS = 3
#: Read-after-write rounds always made; fixes the tail percentile (p90).
MIN_ROUNDS = 100
QUERY_TAIL = tail_quantile(MIN_ROUNDS)
TOPK_PATH = "/topk?k=10"

SPEC = StreamSpec(horizon=HORIZON)


def config() -> PipelineConfig:
    return PipelineConfig(
        window=TimeWindow(0, 60),
        min_triangle_weight=3,
        min_component_size=3,
        author_filter=AuthorFilter.none(),
    )


class _Deployment:
    """One tier, its gateway and the client connection."""

    def __init__(self) -> None:
        self.tier = ShardedDetectionService(
            config(), n_shards=N_SHARDS, ingest_sharding="page",
            forward_batch=FORWARD_BATCH, window_horizon=HORIZON, batch_size=BATCH_SIZE,
        )
        self.gateway = None
        self.conn = None
        try:
            if not self.tier.await_healthy():
                raise RuntimeError("shard tier did not become healthy")
            self.gateway = HttpGateway(self.tier).start()
            self.conn = http.client.HTTPConnection(*self.gateway.address, timeout=60)
        except BaseException:
            self.close()
            raise

    def get(self, path: str) -> tuple[int, bytes]:
        if self.conn.sock is None:
            self.conn.connect()
        # The gateway sends a response's headers and body in two writes, so
        # Nagle holds the body until the client ACKs the headers.  Whether
        # a client delays that ACK (up to 40 ms) depends on how soon it
        # sent this request after the last response, which here depends on
        # host speed; pin the delayed-ACK mode a back-to-back client is in
        # so the stall shows on every query rather than in random runs.
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 0)
        self.conn.request("GET", path)
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.gateway is not None:
            self.gateway.close()
        self.tier.close()


class _Driver:
    def __init__(self, dep: _Deployment, out: Outcome, speed: HostSpeed) -> None:
        self.dep = dep
        self.out = out
        self.speed = speed
        self.consumed: list = []

    def submit(self, event) -> None:
        while True:
            ok = self.dep.tier.submit(event)
            self.out.ops.record("submit", ok)
            if ok:
                self.consumed.append(event)
                return
            time.sleep(0.001)  # backpressure: a shard is restarting

    def query(self) -> float:
        """One ``GET /topk``; its round trip, or ``inf`` if it failed."""
        start = time.perf_counter()
        try:
            status, _body = self.dep.get(TOPK_PATH)
        except (OSError, http.client.HTTPException):
            status = None
        ok = status is not None and 200 <= status < 300
        self.out.ops.record("query", ok)
        return time.perf_counter() - start if ok else math.inf

    def closed_loop(self, stream, seconds: float, min_chunks: int,
                    walls: list, raw: list) -> int:
        """Ingest chunks of ``CHUNK`` events until *seconds* pass (and at
        least *min_chunks*).  Each chunk ends in a flush, so it is timed
        until the shards have applied it, and the host probe after it
        does not share the cores with shards still at work.  Appends each
        chunk's time at reference host speed to *walls* and as measured
        to *raw*; returns events."""
        n = 0
        end = time.perf_counter() + seconds
        for k in itertools.count(1):
            start = time.perf_counter()
            for event in itertools.islice(stream, CHUNK):
                self.submit(event)
                n += 1
            self.dep.tier.flush()
            raw.append(time.perf_counter() - start)
            walls.append(raw[-1] / self.speed.factor())
            if k >= min_chunks and start >= end:
                return n

    def read_after_write(self, stream, seconds: float, min_rounds: int, queries: Samples,
                         freshness: Samples, tracer: Tracer | None = None) -> int:
        """Rounds of ``SLICE`` writes and one read, at reference host
        speed; returns the number of rounds."""
        rounds = 0
        end = time.perf_counter() + seconds
        while rounds < min_rounds or time.perf_counter() < end:
            sent = []
            for event in itertools.islice(stream, SLICE):
                self.submit(event)
                sent.append(time.perf_counter())
            if tracer is None:
                wall = self.query()
            else:
                with tracer.span("http.request", trace=tracer.new_trace()) as req:
                    tracer.request = (req.trace, req.sid)
                    wall = self.query()
                tracer.request = None
            done = time.perf_counter()
            scale = 1 / self.speed.factor()
            queries.add(wall, scale=scale)
            for t in sent:
                freshness.add(done - t if wall < math.inf else math.inf, scale=scale)
            rounds += 1
        return rounds


def run(seed: int, seconds: float, trace: Tracer | None) -> Outcome:
    out = Outcome()
    stream = (event for event, _late in iter_events(seed, SPEC))
    fill_events = list(itertools.islice(stream, FILL_EVENTS))
    dep = None
    try:
        with RssSampler() as rss:
            speed = HostSpeed()
            setups, raw_setups, spawns = [], [], []
            for _ in range(SETUP_REPEATS):
                if dep is not None:
                    dep.close()
                speed.factor()  # closing the old tier is not set-up
                start = time.perf_counter()
                dep = _Deployment()
                raw = time.perf_counter() - start
                spawns.append(raw / speed.factor())
                driver = _Driver(dep, out, speed)
                fill = 0.0
                for i in range(0, FILL_EVENTS, CHUNK):
                    start = time.perf_counter()
                    for event in fill_events[i:i + CHUNK]:
                        driver.submit(event)
                    if i + CHUNK >= FILL_EVENTS:
                        dep.tier.flush()
                    wall = time.perf_counter() - start
                    fill += wall / speed.factor()
                    raw += wall
                setups.append(spawns[-1] + fill)
                raw_setups.append(raw)
            out.put("setup_s", median(setups), len(setups))
            out.put("raw.setup_s", median(raw_setups), len(raw_setups))
            if trace is None:
                _measure(out, driver, stream, seconds)
            else:
                out.put("shard.spawn_s", median(spawns), len(spawns))
                _traced(out, trace, driver, stream, seconds)
        out.put("peak_rss_mb", rss.peak_mb)
        _tier_failures(out, dep.tier)
        _check(out, driver)
    finally:
        if dep is not None:
            dep.close()
    return out


def _measure(out: Outcome, driver: _Driver, stream, seconds: float) -> None:
    """Closed-loop ingest and read-after-write alternate in ``BLOCKS``
    blocks, so both sample the whole measured time."""
    walls, raw = [], []
    queries, freshness = Samples(), Samples()
    n = 0
    for _ in range(BLOCKS):
        n += driver.closed_loop(stream, seconds * CLOSED_SHARE / BLOCKS,
                                -(-MIN_CHUNKS // BLOCKS), walls, raw)
        driver.read_after_write(stream, seconds * (1 - CLOSED_SHARE) / BLOCKS,
                                -(-MIN_ROUNDS // BLOCKS), queries, freshness)
    out.put("events_per_s", CHUNK / median(walls), n, "median chunk")
    out.put("raw.events_per_s", CHUNK / median(raw), n, "median chunk")
    out.latency("query", queries, QUERY_TAIL)
    # Events of one round share its read, so rounds, not events, are the
    # independent samples the tail is chosen from.
    out.latency("freshness", freshness, QUERY_TAIL)
    out.put("host.factor_p50", median(driver.speed.factors), len(driver.speed.factors))


def _shard_counters(tier) -> list[dict]:
    return [s["status"]["metrics"] for s in tier.status()["shards"]]


def _traced(out: Outcome, tracer: Tracer, driver: _Driver, stream, seconds: float) -> None:
    tier = driver.dep.tier
    walls: list = []
    n = driver.closed_loop(stream, seconds * 0.3, MIN_CHUNKS, walls, [])
    out.put("trace.events_per_s_untraced", CHUNK / median(walls), n)
    tier_before = tier.metrics.to_dict()
    shards_before = _shard_counters(tier)
    tracer.patch(tier, "submit", "shard.submit")
    tracer.patch(tier, "flush", "shard.flush")
    tracer.patch(tier, "top_k_triplets", "exchange.topk")
    queries, freshness = Samples(), Samples()
    try:
        walls = []
        n = driver.closed_loop(stream, seconds * 0.2, MIN_CHUNKS, walls, [])
        rounds = driver.read_after_write(stream, seconds * 0.5, MIN_ROUNDS, queries, freshness,
                                         tracer)
    finally:
        tracer.restore()
    rate = CHUNK / median(walls)
    out.put("trace.events_per_s_traced", rate, n)
    out.put("trace.overhead_ratio", out.metrics["trace.events_per_s_untraced"][0] / rate)
    out.put("trace.events", n + rounds * SLICE)
    out.put("trace.spans", len(tracer.spans))
    out.put("shard.submit_s", tracer.total_s("shard.submit"), tracer.calls["shard.submit"])
    out.put("shard.flush_s", tracer.total_s("shard.flush"), tracer.calls["shard.flush"])

    tier_after = tier.metrics.to_dict()
    shards_after = _shard_counters(tier)
    ingested = []
    for sid, (b, a) in enumerate(zip(shards_before, shards_after)):
        hb, ha = b["histograms"]["engine.update"], a["histograms"]["engine.update"]
        out.put(f"shard.{sid}.child_update_s",
                ha["mean"] * ha["count"] - hb["mean"] * hb["count"], ha["count"] - hb["count"])
        ingested.append(a["counters"]["engine.events_ingested"]
                        - b["counters"]["engine.events_ingested"])
    out.put("shard.max_shard_share", max(ingested) / max(sum(ingested), 1), sum(ingested))
    # The supervisors' own registries are not part of tier.status().
    out.put("shard.resent_events", sum(
        s.sup.metrics.counter("supervisor.resent_events").value for s in tier._shards))

    def delta(name: str) -> float:
        return tier_after["counters"].get(name, 0) - tier_before["counters"].get(name, 0)

    exchanges = delta("sharded.exchanges")
    exchange_bytes = delta("sharded.exchange_bytes")
    out.put("exchange.count", exchanges)
    out.put("exchange.bytes", exchange_bytes)
    out.put("exchange.bytes_per_query", exchange_bytes / max(rounds, 1), rounds)
    out.put("exchange.topk_s", tracer.total_s("exchange.topk"), tracer.calls["exchange.topk"])
    self_s = tracer.self_times_s()
    requests = sum(1 for s in tracer.spans if s.name == "http.request")
    out.put("http.self_ms", self_s.get("http.request", 0.0) / max(requests, 1) * 1e3, requests,
            "mean per request")
    out.put("http.non2xx", out.ops.failed["query"])


def _tier_failures(out: Outcome, tier) -> None:
    """Shed and unavailable operations inside the tier are failures."""
    counters = tier.metrics.to_dict()["counters"]
    for name in ("sharded.shed", "sharded.unavailable"):
        out.ops.fail("submit" if name == "sharded.shed" else "query", counters.get(name, 0))


def _check(out: Outcome, driver: _Driver) -> None:
    """``/topk`` and the merged CI ledger equal one in-process engine
    fed the same stream."""
    dep = driver.dep
    status, body = dep.get(TOPK_PATH)
    out.check(status == 200, f"final GET /topk returned {status}")
    oracle = DetectionService(config(), window_horizon=HORIZON, batch_size=BATCH_SIZE)
    oracle.run_events(driver.consumed)
    want = json.loads(json.dumps(oracle.top_k_triplets(10)))
    got = json.loads(body)["rows"] if status == 200 else None
    out.check(got == want, "GET /topk differs from a single engine fed the same stream")
    out.check(dep.tier.ci_edges() == oracle.engine.ci_edges(),
              "merged ci_edges() differ from a single engine fed the same stream")
    out.check(len(want) == 10, f"single engine has only {len(want)} triplets; the check is weak")
