"""Sharded serving tier: N supervised engine shards behind one facade.

:class:`ShardedDetectionService` turns the single supervised serve loop
into a horizontally scaled tier.  Queries are always partitioned by the
stable user hash :func:`repro.serve.ingest.shard_of`; **ingest** runs
in one of two modes (``ingest_sharding``):

- ``"replicated"`` (default) — every event fans out to every shard, so
  each shard's :class:`~repro.serve.engine.DetectionEngine` holds the
  full live window and answers its owned queries locally.  Maximally
  available (a dead shard 503s only its keyspace) but every shard pays
  O(stream) ingest.
- ``"page"`` — each event routes only to the shard its page hashes to
  (:func:`repro.serve.ingest.page_shard_of`), so per-shard ingest cost
  is O(stream/N).  Page locality keeps this exact: a page's co-comment
  pairs are computable from that page's timeline alone and pages are
  disjoint across shards, so each shard builds per-page pair ledgers
  locally and the tier **exchanges partial pair weights** — the shards
  publish their ``w'``/``P'``/incidence partials through the
  :mod:`repro.exec.shm` output path (the transport the engine-state
  handoff already rides) and the facade merges them
  (:mod:`repro.serve.exchange`) before CI thresholding and triangle
  scoring in one :class:`~repro.graph.scored.ScoredGraph`.  Shards
  see only a timestamp subset of the stream, so the tier tracks the
  global watermark and broadcasts it (supervisor op ``observe``) so
  every shard's eviction cutoff converges on the single-engine one.
  Ingest shards skip local triangle maintenance entirely (their
  engines run with an unreachable cutoff — owner-computes: thresholding
  and scoring happen once, at the aggregator).

**Queries are partitioned either way** — shard ``s`` is authoritative
for the users hashing to ``s``.  ``user_score`` routes to the owner;
global top-k is the k-way merge of per-shard *owned* candidate lists
(a triplet is owned by the shard of its lexicographically-first
author, so each appears exactly once); components are rebuilt by a
gateway-side component walk over the union of per-shard owned-vertex
fragments, whose boundary edges stitch the cuts back together.  In
page mode the same
merge machinery runs over the aggregate, asked for each owner's slice
through the same ``owned_top_k`` / ``owned_fragment`` calls.  Each
answer is bit-identical to the single-engine oracle's
(:func:`repro.verify.sharded.run_sharded_parity` sweeps both ingest
modes to enforce this).

What replication buys: query throughput scales with shards and
availability degrades **per keyspace** — a crashed shard 503s only the
users it owns while its supervisor restarts it.  What page partitioning
buys: ingest throughput scales with shards too (each shard processes
~1/N of the stream — ``benchmarks/test_bench_ingest_shard.py`` pins
this), at the cost of query-time exchange latency and coarser
availability (an exchange needs *every* shard, so a dead shard 503s
aggregate queries until it restarts).

Each shard is a :class:`~repro.serve.supervisor.ServeSupervisor` with
``max_restarts=0``: the shard tier owns restart policy.  A detected
death flips the shard to *restarting* (queries raise
:class:`ShardUnavailableError` → HTTP 503), a background thread runs
``sup.restart()`` under capped backoff, and a restart-budget exhaustion
marks the shard permanently failed.  With a durable root every shard
journals to its own ``shard-NN/`` store and recovery is exact; without
one shards are volatile and a restart replays only the retained
in-flight suffix.

Engine state can also be pulled out of a live shard wholesale:
:meth:`ShardedDetectionService.engine_clone` asks the child to publish
its state arrays through the :mod:`repro.exec.shm` output path
(numeric arrays via shared memory, interner keys length-packed into
``uint8`` blobs since object arrays cannot cross a segment) and
rehydrates a private :class:`DetectionEngine` in the caller.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import replace
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from repro.exec.shm import (
    OutputWriter,
    claim_output,
    output_prefix,
    sweep_segments,
)
from repro.graph.scored import (
    ScoredGraph,
    component_from,
    component_lists,
    rank_key,
)
from repro.pipeline.config import PipelineConfig
from repro.serve.engine import DetectionEngine
from repro.serve.exchange import (
    claim_partial_weights,
    merge_partials,
    pack_str_array,
    unpack_str_array,
)
from repro.serve.ingest import Event, page_shard_of, shard_of
from repro.serve.metrics import ServiceMetrics
from repro.serve.supervisor import DegradedError, ServeSupervisor
from repro.store.engine_state import engine_state_arrays, restore_engine_state

__all__ = [
    "INGEST_MODES",
    "ShardUnavailableError",
    "ShardedDetectionService",
    "claim_engine_state",
    "merge_components",
    "merge_topk",
    "merged_component_of",
    "page_shard_of",
    "publish_engine_state",
    "shard_of",
]

#: Supported ``ingest_sharding`` modes of the tier.
INGEST_MODES = ("replicated", "page")

#: Edge-weight cutoff no live pair can reach: page-mode ingest shards run
#: their engines with this so they maintain pair ledgers, ``P'`` and the
#: incidence (all cutoff-independent) but never materialize thresholded
#: adjacency or triangles — that work happens once, at the aggregator.
_LEDGER_ONLY_CUTOFF = 2**62


class ShardUnavailableError(RuntimeError):
    """The authoritative shard for a query is down or restarting.

    The HTTP gateway maps this to ``503 Service Unavailable`` with a
    ``Retry-After`` hint; only the dead shard's keyspace is affected.
    """

    def __init__(self, shard_id: int, reason: str) -> None:
        super().__init__(f"shard {shard_id} unavailable: {reason}")
        self.shard_id = shard_id
        self.reason = reason


# ---------------------------------------------------------------------------
# Merge helpers (pure functions — the gateway-side halves of each query)
# ---------------------------------------------------------------------------


def merge_topk(per_shard: Iterable[list[dict]], k: int, by: str) -> list[dict]:
    """K-way merge of per-shard owned candidate lists into the global top-k.

    Each input list is already sorted by the engine's ranking
    (descending score, lexicographic author tie-break) and owns its
    rows exclusively, so a heap merge of the lists *is* the global
    ranking and its first *k* rows are exact.
    """
    merged = heapq.merge(*per_shard, key=rank_key(by))
    return list(islice(merged, max(int(k), 0)))


def _fragments_adjacency(fragments: Iterable[dict]) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {}
    for frag in fragments:
        for v in frag["vertices"]:
            adj.setdefault(v, set())
        for a, b in frag["edges"]:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    return adj


def merge_components(
    fragments: Iterable[dict], min_component_size: int = 1
) -> list[list[str]]:
    """Union per-shard graph fragments into global components.

    Boundary edges are reported by both incident shards; the union of
    fragments is idempotent under the duplication.  Output matches
    :meth:`DetectionEngine.components` exactly (the same component walk,
    :func:`repro.graph.scored.component_lists`): sorted name lists,
    floored at *min_component_size*, largest first with lexicographic
    tie-break.
    """
    return component_lists(
        _fragments_adjacency(fragments), str, min_component_size
    )


def merged_component_of(fragments: Iterable[dict], author: str) -> list[str]:
    """*author*'s component across fragments (empty when absent/isolated)."""
    adj = _fragments_adjacency(fragments)
    if author not in adj:
        return []
    return sorted(component_from(adj, author))


# ---------------------------------------------------------------------------
# Engine-state handoff over the shm output path
# ---------------------------------------------------------------------------


def publish_engine_state(engine: DetectionEngine, writer: OutputWriter) -> dict:
    """Child-side half of the state handoff: engine → shm segments.

    Numeric state arrays are published directly through
    :meth:`OutputWriter.share`; the object-dtype arrays (interner keys,
    filtered names — variable-length strings cannot live in a fixed
    segment) are packed into ``uint8`` data + ``int64`` length arrays
    first.  Returns a picklable ``{"arrays": ..., "meta": ...}`` payload
    of :class:`~repro.exec.shm.ShmRef` trees for the pipe.
    """
    arrays, meta = engine_state_arrays(engine)
    packed: dict[str, Any] = {}
    for key, arr in arrays.items():
        packed[key] = pack_str_array(arr.tolist()) if arr.dtype == object else arr
    return {"arrays": writer.share(packed), "meta": meta}


def claim_engine_state(
    payload: dict,
    config: PipelineConfig | None,
    *,
    metrics: ServiceMetrics | None = None,
) -> DetectionEngine:
    """Caller-side half: claim the segments and rehydrate an engine.

    Claiming copies and unlinks every segment, so a completed handoff
    leaves ``/dev/shm`` clean.  The snapshot codec
    (:func:`repro.store.engine_state.restore_engine_state`) validates
    the config fingerprint — a clone under the wrong config refuses.
    """
    packed = claim_output(payload["arrays"])
    arrays: dict[str, np.ndarray] = {}
    for key, value in packed.items():
        if isinstance(value, dict) and "packed_data" in value:
            arrays[key] = np.asarray(unpack_str_array(value), dtype=object)
        else:
            arrays[key] = value
    return restore_engine_state(arrays, payload["meta"], config, metrics=metrics)


# ---------------------------------------------------------------------------
# The sharded service
# ---------------------------------------------------------------------------


class _Shard:
    """One supervised engine shard plus its serialization + health state."""

    __slots__ = ("sid", "sup", "lock", "restarting", "failed", "restarts")

    def __init__(self, sid: int, sup: ServeSupervisor) -> None:
        self.sid = sid
        self.sup = sup
        self.lock = threading.Lock()  # serializes this shard's pipe
        self.restarting = False
        self.failed = False
        self.restarts = 0


class ShardedDetectionService:
    """N supervised engine shards behind one exact query facade.

    Parameters
    ----------
    config:
        Pipeline configuration, forked into every shard (and used to
        validate :meth:`engine_clone` handoffs).
    n_shards:
        Worker processes / query keyspace partitions.
    ingest_sharding:
        ``"replicated"`` (every event to every shard) or ``"page"``
        (events route by page hash; queries answered from the
        partial-weight exchange).  ``None`` (default) reads
        ``config.ingest_sharding``.
    directory:
        Optional durable root; shard ``s`` journals under
        ``directory/shard-NN``.  ``None`` = volatile shards.
    heartbeat_timeout / query_timeout:
        Watchdog deadline per shard request; how long a query waits for
        a shard's pipe before declaring the shard busy (503).
    max_shard_restarts / restart_backoff:
        Per-shard restart budget and base backoff (doubles per
        consecutive attempt) applied by the tier's background restart
        thread; an exhausted budget fails the shard permanently.
    **service_kwargs:
        Forwarded to every shard's child service (``window_horizon``,
        ``batch_size``, and — with a durable root — ``fsync``,
        ``snapshot_every``, …).
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        *,
        n_shards: int = 2,
        ingest_sharding: str | None = None,
        directory: str | Path | None = None,
        metrics: ServiceMetrics | None = None,
        heartbeat_timeout: float = 30.0,
        query_timeout: float = 5.0,
        max_shard_restarts: int = 5,
        restart_backoff: float = 0.05,
        forward_batch: int = 512,
        queue_capacity: int = 65_536,
        **service_kwargs: Any,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.config = config if config is not None else PipelineConfig()
        if ingest_sharding is None:
            ingest_sharding = self.config.ingest_sharding
        if ingest_sharding not in INGEST_MODES:
            raise ValueError(
                f"unknown ingest_sharding {ingest_sharding!r} "
                f"(use one of {', '.join(INGEST_MODES)})"
            )
        self.ingest_sharding = ingest_sharding
        self._page_mode = ingest_sharding == "page"
        # Page-mode ingest shards only keep ledgers (cutoff-independent
        # state); thresholding + scoring happen once, in the aggregate.
        child_config = (
            replace(self.config, min_triangle_weight=_LEDGER_ONLY_CUTOFF)
            if self._page_mode
            else self.config
        )
        self.n_shards = int(n_shards)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.query_timeout = float(query_timeout)
        self.max_shard_restarts = int(max_shard_restarts)
        self.restart_backoff = float(restart_backoff)
        self.directory = Path(directory) if directory is not None else None
        self._shm_prefix = output_prefix()  # this process claims handoffs
        self._state_lock = threading.Lock()
        self._restart_threads: dict[int, threading.Thread] = {}
        # Page-mode tier state: the global watermark broadcast and the
        # memoized cross-shard aggregate (invalidated by any ingest).
        self._forward_batch = int(forward_batch)
        self._max_event_t: int | None = None
        self._events_since_observe = 0
        self._agg_lock = threading.Lock()
        self._aggregate: ScoredGraph[str] | None = None
        self._shards: list[_Shard] = []
        try:
            for sid in range(self.n_shards):
                shard_dir = (
                    None
                    if self.directory is None
                    else self.directory / f"shard-{sid:02d}"
                )
                sup = ServeSupervisor(
                    child_config,
                    directory=shard_dir,
                    queue_capacity=queue_capacity,
                    queue_policy="reject",
                    forward_batch=forward_batch,
                    heartbeat_timeout=heartbeat_timeout,
                    # The tier owns restart policy: any child death
                    # degrades the supervisor immediately and the
                    # background restart thread takes over.
                    max_restarts=0,
                    backoff_base=self.restart_backoff,
                    backoff_cap=self.restart_backoff,
                    **service_kwargs,
                )
                self._shards.append(_Shard(sid, sup))
                self.metrics.gauge(f"sharded.shard{sid}.up").set(1)
        except BaseException:
            self.close()
            raise
        self.metrics.gauge("sharded.n_shards").set(self.n_shards)

    # -- ingest ------------------------------------------------------------
    def submit(self, event: Event) -> bool:
        """Route one event into the tier (mode-dependent).

        Replicated mode fans the event out to every shard; page mode
        delivers it only to the shard its page hashes to.  Returns
        ``False`` when a live target shard applied backpressure (its
        parent queue is full while it restarts) — the producer should
        back off and retry, mirroring :meth:`DetectionService.submit`.
        Permanently failed shards shed silently (counted) rather than
        wedging ingest forever.
        """
        if self._page_mode:
            return self._submit_page(event)
        ok = True
        for shard in self._shards:
            if shard.failed:
                self.metrics.counter("sharded.shed").inc()
                continue
            with shard.lock:
                admitted = shard.sup.submit(event)
            if shard.sup.degraded:
                self._begin_restart(shard)
            if not admitted:
                self.metrics.counter("sharded.backpressure").inc()
                ok = False
        self.metrics.counter("sharded.events").inc()
        return ok

    def _submit_page(self, event: Event) -> bool:
        """Page-hash delivery: one event → exactly one ingest shard.

        The tier tracks the global max event time itself (each shard
        sees only a timestamp subset) and broadcasts it every
        ``forward_batch`` events so per-shard eviction cutoffs track the
        single-engine one.  Any accepted event invalidates the memoized
        cross-shard aggregate.
        """
        t = int(event[2])
        if self._max_event_t is None or t > self._max_event_t:
            self._max_event_t = t
        self._aggregate = None
        sid = page_shard_of(event[1], self.n_shards)
        shard = self._shards[sid]
        if shard.failed:
            self.metrics.counter("sharded.shed").inc()
            self.metrics.counter("sharded.events").inc()
            return True
        with shard.lock:
            admitted = shard.sup.submit(event)
        if shard.sup.degraded:
            self._begin_restart(shard)
        if not admitted:
            self.metrics.counter("sharded.backpressure").inc()
        self.metrics.counter("sharded.events").inc()
        self._events_since_observe += 1
        if self._events_since_observe >= self._forward_batch:
            self._broadcast_watermark()
        return admitted

    def _broadcast_watermark(self) -> None:
        """Push the tier-wide max event time into every live shard."""
        self._events_since_observe = 0
        t = self._max_event_t
        if t is None:
            return
        for shard in self._shards:
            if shard.failed:
                continue
            try:
                with shard.lock:
                    shard.sup.observe(t)
            except DegradedError:
                pass
            if shard.sup.degraded:
                self._begin_restart(shard)

    def run_events(
        self, events: Iterable[Event], *, max_events: int | None = None
    ) -> int:
        """Feed an iterable through every shard; returns events consumed."""
        consumed = 0
        try:
            for event in events:
                if max_events is not None and consumed >= max_events:
                    break
                consumed += 1
                while not self.submit(event):
                    time.sleep(0.01)  # a shard is restarting with a full queue
        except KeyboardInterrupt:
            self.metrics.counter("service.interrupted").inc()
        self.flush()
        return consumed

    def flush(self) -> None:
        """Forward and drain every live shard (waits out active restarts).

        In page mode the global watermark is re-broadcast afterwards so
        every shard's eviction cutoff lands on the tier-wide final value
        before any partial weights are exchanged.
        """
        for shard in self._shards:
            if shard.failed:
                continue
            self._await_restart(shard)
            with shard.lock:
                shard.sup.flush()
        if self._page_mode:
            self._aggregate = None
            self._broadcast_watermark()

    # -- restart machinery -------------------------------------------------
    def _begin_restart(self, shard: _Shard) -> None:
        with self._state_lock:
            if shard.restarting or shard.failed:
                return
            if shard.restarts >= self.max_shard_restarts:
                shard.failed = True
                self.metrics.gauge(f"sharded.shard{shard.sid}.up").set(0)
                return
            shard.restarting = True
        self.metrics.gauge(f"sharded.shard{shard.sid}.up").set(0)
        thread = threading.Thread(
            target=self._restart_shard,
            args=(shard,),
            daemon=True,
            name=f"shard-{shard.sid}-restart",
        )
        self._restart_threads[shard.sid] = thread
        thread.start()

    def _restart_shard(self, shard: _Shard) -> None:
        try:
            while True:
                with self._state_lock:
                    if shard.restarts >= self.max_shard_restarts:
                        shard.failed = True
                        return
                    shard.restarts += 1
                    attempt = shard.restarts
                time.sleep(
                    min(1.0, self.restart_backoff * (2 ** (attempt - 1)))
                )
                try:
                    with shard.lock:
                        shard.sup.restart()
                    self.metrics.counter("sharded.restarts").inc()
                    self.metrics.gauge(f"sharded.shard{shard.sid}.up").set(1)
                    return
                except Exception:
                    # Failed start attempt: keep the shard visibly down
                    # and try again until the budget runs out.
                    shard.sup.degraded = True
        finally:
            with self._state_lock:
                shard.restarting = False

    def _await_restart(self, shard: _Shard, timeout: float = 30.0) -> None:
        thread = self._restart_threads.get(shard.sid)
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    def await_healthy(self, timeout: float = 30.0) -> bool:
        """Block until no shard is mid-restart; ``True`` if all are up."""
        deadline = time.monotonic() + timeout
        for shard in self._shards:
            self._await_restart(shard, max(0.0, deadline - time.monotonic()))
        return all(
            not s.failed and not s.restarting and not s.sup.degraded
            for s in self._shards
        )

    # -- queries -----------------------------------------------------------
    def _query(self, shard_id: int, fn: Callable[[ServeSupervisor], Any]) -> Any:
        """Run *fn(supervisor)* on one shard under its lock, 503-typed."""
        shard = self._shards[shard_id]
        if shard.failed:
            self.metrics.counter("sharded.unavailable").inc()
            raise ShardUnavailableError(
                shard_id, "restart budget exhausted (shard failed)"
            )
        if shard.restarting or shard.sup.degraded:
            self.metrics.counter("sharded.unavailable").inc()
            raise ShardUnavailableError(shard_id, "shard restarting")
        if not shard.lock.acquire(timeout=self.query_timeout):
            self.metrics.counter("sharded.unavailable").inc()
            raise ShardUnavailableError(
                shard_id, f"shard busy (> {self.query_timeout:g}s)"
            )
        try:
            try:
                return fn(shard.sup)
            except DegradedError as exc:
                self.metrics.counter("sharded.unavailable").inc()
                raise ShardUnavailableError(shard_id, str(exc)) from exc
        finally:
            shard.lock.release()
            if shard.sup.degraded:
                self._begin_restart(shard)

    def _aggregate_view(self) -> ScoredGraph[str]:
        """The memoized cross-shard aggregate (page mode's query engine).

        Runs the partial-weight exchange when stale: flush every shard,
        have each publish its ``w'``/``P'``/incidence partials through
        the shm output path, claim and merge them, then threshold and
        score once in a name-keyed :class:`ScoredGraph`.  A dead shard raises
        :class:`ShardUnavailableError` — an exchange needs every
        partition, so page-mode aggregate queries 503 until the shard's
        restart completes.
        """
        with self._agg_lock:
            if self._aggregate is not None:
                return self._aggregate
            self.flush()
            with self.metrics.time("sharded.exchange"):
                partials = []
                for shard in self._shards:
                    payload = self._query(
                        shard.sid,
                        lambda sup, sid=shard.sid: sup.partial_state(
                            self._shm_prefix, sid, self.n_shards
                        ),
                    )
                    partials.append(claim_partial_weights(payload))
                merged = merge_partials(partials, self.n_shards)
            self.metrics.counter("sharded.exchanges").inc()
            self.metrics.counter("sharded.exchange_bytes").inc(
                merged.exchange_bytes
            )
            graph: ScoredGraph[str] = ScoredGraph(
                merged.pair_weights,
                merged.page_counts,
                merged.incidence,
                cutoff=self.config.min_triangle_weight,
                hypergraph=self.config.compute_hypergraph,
                min_component_size=self.config.min_component_size,
                name_of=str,
                vertex_of=lambda author: author,
            )
            self._aggregate = graph
            return graph

    def shard_for(self, author: str) -> int:
        """The shard authoritative for *author* (the routing rule)."""
        return shard_of(author, self.n_shards)

    def user_score(self, author: str) -> dict:
        """Route :meth:`DetectionEngine.user_score` to the owner shard."""
        with self.metrics.time("sharded.query.user"):
            if self._page_mode:
                return self._aggregate_view().user_score(author)
            sid = self.shard_for(author)
            return self._query(sid, lambda sup: sup.user_score(author))

    def _gather_owned(self, ask: Callable[[Any, int], Any]) -> list[Any]:
        """``ask(source, owner)`` for every query owner, in owner order.

        The source is the aggregate in page mode and the owner's own
        shard in replicated mode; both answer the same owned queries.
        """
        if self._page_mode:
            graph = self._aggregate_view()
            return [ask(graph, sid) for sid in range(self.n_shards)]
        return [
            self._query(shard.sid, lambda sup, sid=shard.sid: ask(sup, sid))
            for shard in self._shards
        ]

    def top_k_triplets(self, k: int = 10, by: str = "t") -> list[dict]:
        """Global top-k: gather each owner's candidates and merge.

        :func:`merge_topk` stitches the per-owner lists, whether they
        come from the shards or from the page-mode aggregate.
        """
        # Validate the ranking before any pipe roundtrip or exchange.
        rank_key(by, self.config.compute_hypergraph)
        with self.metrics.time("sharded.query.topk"):
            per_owner = self._gather_owned(
                lambda src, sid: src.owned_top_k(k, by, sid, self.n_shards)
            )
            return merge_topk(per_owner, k, by)

    def _gather_fragments(self) -> list[dict]:
        return self._gather_owned(
            lambda src, sid: src.owned_fragment(sid, self.n_shards)
        )

    def component_of(self, author: str) -> list[str]:
        """*author*'s cross-shard component via the boundary-edge union."""
        with self.metrics.time("sharded.query.component"):
            return merged_component_of(self._gather_fragments(), author)

    def components(self) -> list[list[str]]:
        """All candidate networks, merged across shards."""
        with self.metrics.time("sharded.query.component"):
            return merge_components(
                self._gather_fragments(), self.config.min_component_size
            )

    def ci_edges(self) -> dict[tuple[str, str], int]:
        """Merged CI pair weights at the cutoff (page mode only).

        The parity harness diffs this against the single-engine oracle's
        :meth:`DetectionEngine.ci_edges`; replicated shards hold full
        engines, so there :meth:`engine_clone` is the richer probe.
        """
        if not self._page_mode:
            raise ValueError("ci_edges() requires ingest_sharding='page'")
        return self._aggregate_view().ci_edges()

    def page_counts(self) -> dict[str, int]:
        """Merged nonzero ``P'`` entries keyed by author name (page mode)."""
        if not self._page_mode:
            raise ValueError("page_counts() requires ingest_sharding='page'")
        return self._aggregate_view().page_counts()

    def engine_clone(self, shard_id: int = 0) -> DetectionEngine:
        """A private :class:`DetectionEngine` cloned from one live shard.

        The child publishes its full state through the shm output path;
        this process claims the segments (copy + unlink) and rehydrates.
        Exactness riders: the clone answers every query identically to
        the shard it came from.  Page-mode shards hold only their page
        slice (under a ledger-only config), so no single shard *has* a
        full engine to clone — use :meth:`ci_edges` / the query facade
        instead.
        """
        if self._page_mode:
            raise ValueError(
                "engine_clone requires ingest_sharding='replicated': "
                "page-partitioned shards each hold only their page slice"
            )
        payload = self._query(
            shard_id, lambda sup: sup.engine_state(self._shm_prefix)
        )
        return claim_engine_state(payload, self.config)

    def status(self) -> dict:
        """Tier health + per-shard status (degraded shards summarized)."""
        shards = []
        for shard in self._shards:
            entry: dict = {
                "shard": shard.sid,
                "up": not (
                    shard.failed or shard.restarting or shard.sup.degraded
                ),
                "failed": shard.failed,
                "restarting": shard.restarting,
                "restarts": shard.restarts,
            }
            if entry["up"]:
                try:
                    entry["status"] = self._query(
                        shard.sid, lambda sup: sup.status()
                    )
                except ShardUnavailableError:
                    entry["up"] = False
            shards.append(entry)
        return {
            "sharded": True,
            "n_shards": self.n_shards,
            "ingest_sharding": self.ingest_sharding,
            "healthy": all(s["up"] for s in shards),
            "shards": shards,
            "metrics": self.metrics.to_dict(),
        }

    def close(self) -> None:
        """Stop every shard and sweep any unclaimed handoff segments."""
        for shard in self._shards:
            self._await_restart(shard)
            with shard.lock:
                shard.sup.close()
        sweep_segments(self._shm_prefix)

    def __enter__(self) -> "ShardedDetectionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
