"""The stateful online detection engine (sliding window, dirty-set rescoring).

:class:`DetectionEngine` keeps the paper's three-step pipeline *alive*
over a sliding window of comments instead of re-running it per batch:

- **Step 1 stays per-page incremental** — appends and time-based
  evictions route through
  :class:`~repro.projection.incremental.IncrementalProjector`, which
  reprojects only the touched pages.  The engine folds each touched
  page's before/after ``(x, y)`` pair sets into running ``w'`` edge
  weights and the ``P'`` ledger, so the common interaction graph is
  never rebuilt from scratch.
- **Steps 2–3 become dirty-set maintenance** — the engine hands each
  batch's ``w'``, ``P'`` and incidence deltas to its
  :class:`~repro.graph.scored.ScoredGraph`.  The pairs whose ``w'``
  actually changed (the *dirty edges*) are the only places the
  thresholded graph, and therefore its triangle set, can change, and
  scores (``T`` of eq. 7, ``w_xyz``/``C`` of eqs. 2–4) are recomputed
  only for triangles touching a dirty edge or a *dirty user* (one whose
  ``P'`` or live page set changed).

**Exactness contract.**  After *any* interleaving of appends,
out-of-order arrivals, and evictions, every query answer equals a
from-scratch :class:`~repro.pipeline.framework.CoordinationPipeline`
run over exactly the live (admitted, unevicted) comments.  The
contract is enforced by :func:`repro.verify.online.run_online_parity`
and the randomized property tests; nothing here is approximate.

Admission mirrors the watermark semantics of
:class:`~repro.serve.ingest.WatermarkTracker`: once
:meth:`DetectionEngine.advance` has moved the eviction cutoff, an
arriving comment older than the cutoff is dropped (counted as late) —
its window has already been evicted and answered for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.filters import FilterReport
from repro.graph.scored import ScoredGraph
from repro.hypergraph.triplets import TripletMetrics
from repro.pipeline.config import PipelineConfig
from repro.pipeline.framework import component_reports
from repro.pipeline.results import PipelineResult
from repro.projection.incremental import IncrementalProjector
from repro.serve.metrics import ServiceMetrics
from repro.tripoll.survey import TriangleSet

__all__ = ["BatchReport", "DetectionEngine"]


@dataclass(frozen=True)
class BatchReport:
    """What one engine update (ingest batch and/or window advance) did.

    The dirty-set sizes are the engine's own incrementality evidence:
    the serve benchmark asserts per-batch update cost tracks
    ``dirty_edges`` / ``rescored_triangles``, not the live graph size.
    """

    n_appended: int
    n_filtered: int
    n_late_dropped: int
    n_evicted: int
    touched_pages: int
    dirty_edges: int
    dirty_users: int
    triangles_added: int
    triangles_removed: int
    rescored_triangles: int

    @property
    def idle(self) -> bool:
        """Whether the update changed nothing at all."""
        return self.touched_pages == 0 and self.n_late_dropped == 0


class DetectionEngine:
    """Maintains live detection state and answers queries over it.

    Parameters
    ----------
    config:
        The same :class:`~repro.pipeline.config.PipelineConfig` a batch
        run would use — window, cutoff, author filter, component floor,
        ``compute_hypergraph`` — so the oracle for any engine state is
        simply ``CoordinationPipeline(config).run(live_corpus)``.
    metrics:
        Optional shared :class:`~repro.serve.metrics.ServiceMetrics`
        registry (one is created when omitted).
    auto_compact:
        When true (default), the projector's interners are compacted —
        and the engine rebuilt from the compacted state — whenever the
        interned id space exceeds ``compact_ratio`` × the live
        population, keeping steady-state memory proportional to the live
        window under churn.
    compact_ratio / compact_min:
        Compaction triggers when ``interned > max(compact_min,
        compact_ratio * live)`` for users or pages.

    Examples
    --------
    >>> from repro.projection import TimeWindow
    >>> eng = DetectionEngine(PipelineConfig(
    ...     window=TimeWindow(0, 60), min_triangle_weight=1,
    ...     min_component_size=2, compute_hypergraph=True))
    >>> _ = eng.ingest([("a", "p", 0), ("b", "p", 10), ("c", "p", 20)])
    >>> eng.top_k_triplets(1)[0]["authors"]
    ('a', 'b', 'c')
    >>> _ = eng.advance(1_000)              # slide the window past p
    >>> eng.n_live_comments, eng.top_k_triplets(1)
    (0, [])
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        *,
        metrics: ServiceMetrics | None = None,
        auto_compact: bool = True,
        compact_ratio: float = 4.0,
        compact_min: int = 1024,
    ) -> None:
        self.config = config if config is not None else PipelineConfig()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.auto_compact = bool(auto_compact)
        self.compact_ratio = float(compact_ratio)
        self.compact_min = int(compact_min)
        self.proj = IncrementalProjector(
            self.config.window, pair_batch=self.config.pair_batch
        )
        self.evict_cutoff: int | None = None
        # Running CI ledgers, thresholded graph and triangle scores, all
        # keyed by dense user ids.
        self.graph: ScoredGraph[int] = self._new_graph({}, {}, {})
        # Author-filter bookkeeping (decision cache + report data).
        self._filter_cache: dict[str, bool] = {}
        self._filtered_names: dict[str, None] = {}
        self._filtered_comments = 0

    @classmethod
    def restore(
        cls,
        store,
        config: PipelineConfig | None = None,
        *,
        metrics: ServiceMetrics | None = None,
    ):
        """Rebuild an engine from a :class:`~repro.store.DurableStore`.

        Loads the newest snapshot generation that validates (falling back
        to older generations on corruption) and replays the write-ahead
        journal's suffix, so the returned engine is bit-identical to one
        that never crashed — the contract the recovery chaos matrix
        (:func:`repro.verify.chaos.run_recovery_chaos`) enforces.
        Returns ``(engine, recovery_report)``.
        """
        config = config if config is not None else PipelineConfig()
        return store.recover_engine(config, metrics=metrics)

    # -- updates ---------------------------------------------------------------
    def ingest(self, events) -> BatchReport:
        """Apply one micro-batch of ``(author, page, created_utc)`` events.

        Events by filtered authors and events older than the current
        eviction cutoff (late beyond the watermark) are dropped and
        counted; everything else becomes part of the live corpus.
        """
        accepted: list[tuple] = []
        n_filtered = 0
        n_late = 0
        for author, page, created in events:
            created = int(created)
            if self._is_filtered(author):
                n_filtered += 1
                continue
            if self.evict_cutoff is not None and created < self.evict_cutoff:
                n_late += 1
                continue
            accepted.append((author, page, created))
        self._filtered_comments += n_filtered
        report = self._apply(accepted, None, n_filtered, n_late)
        self._maybe_compact()
        return report

    def advance(self, cutoff: int) -> BatchReport:
        """Advance the sliding window: evict comments older than *cutoff*.

        The cutoff is clamped to be monotone (a stale watermark never
        un-evicts) and becomes the admission floor for future arrivals.
        """
        cutoff = int(cutoff)
        if self.evict_cutoff is not None:
            cutoff = max(cutoff, self.evict_cutoff)
        self.evict_cutoff = cutoff
        report = self._apply([], cutoff, 0, 0)
        self._maybe_compact()
        return report

    def _is_filtered(self, author) -> bool:
        if not isinstance(author, str):
            return False
        verdict = self._filter_cache.get(author)
        if verdict is None:
            verdict = self.config.author_filter.matches(author)
            self._filter_cache[author] = verdict
            if verdict:
                self._filtered_names[author] = None
        return verdict

    # -- the dirty-set update ---------------------------------------------------
    def _apply(
        self,
        appends: list[tuple],
        cutoff: int | None,
        n_filtered: int,
        n_late: int,
    ) -> BatchReport:
        with self.metrics.time("engine.update"):
            proj = self.proj
            # Snapshot the pre-batch pair sets of every page this update
            # can touch (append targets now; eviction candidates after
            # the append, which cannot un-age an existing comment).
            old_pairs: dict[int, set[tuple[int, int]]] = {}
            for _a, page, _t in appends:
                pid = proj.page_names.intern(page)
                if pid not in old_pairs:
                    old_pairs[pid] = self._pairs_of(pid)
            if appends:
                proj.add_comments(appends)
            n_evicted = 0
            evicted_rows: tuple[tuple[int, int], ...] = ()
            if cutoff is not None:
                for pid in proj.pages_with_comments_before(cutoff):
                    if pid not in old_pairs:
                        old_pairs[pid] = self._pairs_of(pid)
                ev = proj.evict_before(cutoff)
                n_evicted = ev.n_evicted
                evicted_rows = ev.evicted

            # Net w' / P' deltas over the touched pages.
            edge_delta: dict[tuple[int, int], int] = {}
            pprime_delta: dict[int, int] = {}
            for pid, old in old_pairs.items():
                new = self._pairs_of(pid)
                if new == old:
                    continue
                old_users: set[int] = set()
                new_users: set[int] = set()
                for pair in old - new:
                    edge_delta[pair] = edge_delta.get(pair, 0) - 1
                for pair in new - old:
                    edge_delta[pair] = edge_delta.get(pair, 0) + 1
                for a, b in old:
                    old_users.add(a)
                    old_users.add(b)
                for a, b in new:
                    new_users.add(a)
                    new_users.add(b)
                for u in old_users - new_users:
                    pprime_delta[u] = pprime_delta.get(u, 0) - 1
                for u in new_users - old_users:
                    pprime_delta[u] = pprime_delta.get(u, 0) + 1

            # Live incidence deltas (feed p_x and w_xyz).
            incidence_delta = [
                (proj.user_names.id_of(author), proj.page_names.id_of(page), 1)
                for author, page, _t in appends
            ]
            incidence_delta.extend((uid, pid, -1) for uid, pid in evicted_rows)
            update = self.graph.apply(edge_delta, pprime_delta, incidence_delta)

        m = self.metrics
        m.counter("engine.batches").inc()
        m.counter("engine.events_ingested").inc(len(appends))
        m.counter("engine.events_filtered").inc(n_filtered)
        m.counter("engine.events_late_dropped").inc(n_late)
        m.counter("engine.comments_evicted").inc(n_evicted)
        m.counter("engine.dirty_edges").inc(update.dirty_edges)
        m.counter("engine.dirty_users").inc(update.dirty_users)
        m.counter("engine.triangles_added").inc(update.triangles_added)
        m.counter("engine.triangles_removed").inc(update.triangles_removed)
        m.counter("engine.rescored_triangles").inc(update.rescored_triangles)
        m.gauge("engine.last_dirty_edges").set(update.dirty_edges)
        m.gauge("engine.last_rescored_triangles").set(update.rescored_triangles)
        m.gauge("engine.live_comments").set(self.n_live_comments)
        m.gauge("engine.live_pages").set(self.proj.n_pages)
        m.gauge("engine.ci_edges").set(len(self.graph.weights))
        m.gauge("engine.thresholded_edges").set(self.graph.n_edges)
        m.gauge("engine.triangles").set(self.graph.n_triangles)
        if self.evict_cutoff is not None:
            m.gauge("engine.evict_cutoff").set(self.evict_cutoff)
        return BatchReport(
            n_appended=len(appends),
            n_filtered=n_filtered,
            n_late_dropped=n_late,
            n_evicted=n_evicted,
            touched_pages=len(old_pairs),
            dirty_edges=update.dirty_edges,
            dirty_users=update.dirty_users,
            triangles_added=update.triangles_added,
            triangles_removed=update.triangles_removed,
            rescored_triangles=update.rescored_triangles,
        )

    def _pairs_of(self, pid: int) -> set[tuple[int, int]]:
        triples = self.proj.triples_of(pid)
        if triples is None:
            return set()
        a, b = triples
        return set(zip(a.tolist(), b.tolist()))

    def _new_graph(
        self,
        weights: dict[tuple[int, int], int],
        pprime: dict[int, int],
        incidence: dict[int, dict[int, int]],
    ) -> ScoredGraph[int]:
        # Names resolve through the projector at call time (compaction
        # and restore replace its interners).  Closing over the projector,
        # not the engine, keeps the engine free of reference cycles, so
        # a dropped engine is freed at once rather than by the collector.
        proj = self.proj
        return ScoredGraph(
            weights,
            pprime,
            incidence,
            cutoff=self.config.min_triangle_weight,
            hypergraph=self.config.compute_hypergraph,
            min_component_size=self.config.min_component_size,
            name_of=lambda uid: str(proj.user_names.key_of(uid)),
            vertex_of=lambda author: proj.user_names.get(author),
        )

    # -- compaction -------------------------------------------------------------
    def _maybe_compact(self) -> None:
        if not self.auto_compact:
            return
        stats = self.proj.memory_stats()
        bloated = stats["interned_users"] > max(
            self.compact_min, self.compact_ratio * stats["live_users"]
        ) or stats["interned_pages"] > max(
            self.compact_min, self.compact_ratio * stats["live_pages"]
        )
        if bloated:
            self.compact()

    def compact(self) -> None:
        """Compact the projector id spaces and rebuild engine state.

        Compaction remaps every dense id, so the engine's id-keyed
        stores are rebuilt from the (already compacted, still exact)
        projector state: CI edges and ``P'`` from the triple store, the
        incidence from the live comments, and the triangle store from a
        fresh closure over the thresholded adjacency.  Amortized cost is
        bounded because compaction only fires after ~``compact_ratio``×
        growth; queries before and after are identical (asserted in
        tests).
        """
        with self.metrics.time("engine.compact"):
            self.proj.compact()
            self._rebuild_from_projector()
        self.metrics.counter("engine.compactions").inc()

    def _rebuild_from_projector(self) -> None:
        # Release the old graph first: holding it while the new one is
        # built would double the peak memory of every compaction.
        self.graph = self._new_graph({}, {}, {})
        ci = self.proj.ci_graph()
        btm = self.proj.to_btm()
        incidence: dict[int, dict[int, int]] = {}
        for uid, pid in zip(btm.users.tolist(), btm.pages.tolist()):
            pages = incidence.setdefault(uid, {})
            pages[pid] = pages.get(pid, 0) + 1
        self.graph = self._new_graph(
            ci.edges.to_dict(),
            {i: int(c) for i, c in enumerate(ci.page_counts) if c},
            incidence,
        )

    # -- queries ----------------------------------------------------------------
    def top_k_triplets(self, k: int, by: str = "t") -> list[dict]:
        """The *k* highest-scoring live triplets as name-keyed rows.

        ``by`` ranks by ``"t"`` (eq. 7), ``"c"`` (eq. 4, requires
        ``compute_hypergraph``), or ``"min_weight"``.  Rows are sorted by
        descending score with the lexicographic author triple as the
        deterministic tie-break, and carry every per-triplet metric, so
        the result is directly comparable with a batch run's (see
        :func:`repro.analysis.export.top_triplets_rows`).
        """
        with self.metrics.time("engine.query"):
            return self.graph.top_k_triplets(k, by)

    def user_score(self, author: str) -> dict:
        """Live per-author summary: ``P'``, page count, degree, best scores.

        Returns a row with ``present=False`` (zeros elsewhere) for
        authors not currently in the live window — a monitoring query
        must not throw on unknown names.
        """
        with self.metrics.time("engine.query"):
            return self.graph.user_score(author)

    def component_of(self, author: str) -> list[str]:
        """Sorted member names of *author*'s thresholded-graph component.

        Empty when the author is absent or isolated at the current
        cutoff (no ``min_component_size`` floor is applied here — this
        is the investigative "who is this account coordinating with"
        query).
        """
        with self.metrics.time("engine.query"):
            return self.graph.component_of(author)

    def components(self) -> list[list[str]]:
        """All candidate networks (components ≥ ``min_component_size``),
        each as a sorted name list, largest first."""
        with self.metrics.time("engine.query"):
            return self.graph.components()

    def owned_top_k(
        self, k: int, by: str, shard_id: int, n_shards: int
    ) -> list[dict]:
        """The *k* best live triplets **owned** by one query shard.

        See :meth:`repro.graph.scored.ScoredGraph.owned_top_k`: each
        triplet is owned by the user-hash shard of its
        lexicographically-first author, which makes the gateway's k-way
        merge (:func:`repro.serve.shard.merge_topk`) exact.
        """
        with self.metrics.time("engine.query"):
            return self.graph.owned_top_k(k, by, shard_id, n_shards)

    def owned_fragment(self, shard_id: int, n_shards: int) -> dict[str, list]:
        """This shard's name-keyed fragment of the thresholded graph,
        boundary edges included (see
        :meth:`repro.graph.scored.ScoredGraph.owned_fragment`)."""
        with self.metrics.time("engine.query"):
            return self.graph.owned_fragment(shard_id, n_shards)

    def snapshot(self) -> PipelineResult:
        """Export the live state as a batch-compatible
        :class:`~repro.pipeline.results.PipelineResult`.

        Every artifact (CI graph, thresholded view, canonical triangle
        set, ``T``/``w_xyz``/``C`` arrays, component reports) is
        assembled from the engine's incremental stores, so downstream
        consumers — DOT export, markdown reports, the component census —
        work on live state unchanged.
        """
        with self.metrics.time("engine.snapshot"):
            ci = self.proj.ci_graph()
            ci_thr = ci.threshold(self.config.min_triangle_weight)
            keys = sorted(self.graph.triangles)
            if keys:
                arr = np.asarray(keys, dtype=np.int64)
                tris = [self.graph.triangles[k] for k in keys]
                triangles = TriangleSet(
                    a=arr[:, 0],
                    b=arr[:, 1],
                    c=arr[:, 2],
                    w_ab=np.asarray([t.w_ab for t in tris], dtype=np.int64),
                    w_ac=np.asarray([t.w_ac for t in tris], dtype=np.int64),
                    w_bc=np.asarray([t.w_bc for t in tris], dtype=np.int64),
                )
                t_vals = np.asarray([t.t for t in tris], dtype=np.float64)
                w_xyz = np.asarray([t.w_xyz for t in tris], dtype=np.int64)
                p_sum = np.asarray([t.p_sum for t in tris], dtype=np.int64)
                c_vals = np.asarray([t.c for t in tris], dtype=np.float64)
            else:
                triangles = TriangleSet.empty()
                t_vals = np.empty(0, dtype=np.float64)
                w_xyz = np.empty(0, dtype=np.int64)
                p_sum = np.empty(0, dtype=np.int64)
                c_vals = np.empty(0, dtype=np.float64)
            triplet_metrics = (
                TripletMetrics(
                    triangles=triangles,
                    w_xyz=w_xyz,
                    p_sum=p_sum,
                    c_scores=c_vals,
                )
                if self.config.compute_hypergraph
                else None
            )
            components = component_reports(
                ci_thr, self.config.min_component_size
            )
            stats = {
                "pages": self.proj.n_pages,
                "comments": self.proj.n_comments,
                "triangles": triangles.n_triangles,
                "thresholded_edges": ci_thr.n_edges,
                "components": len(components),
            }
            return PipelineResult(
                config=self.config,
                filter_report=FilterReport(
                    removed_names=tuple(self._filtered_names),
                    removed_user_ids=(),
                    removed_comments=self._filtered_comments,
                ),
                ci=ci,
                ci_thresholded=ci_thr,
                triangles=triangles,
                t_scores=t_vals,
                triplet_metrics=triplet_metrics,
                components=components,
                stats=stats,
                timings=self.metrics.timings,
            )

    def status(self) -> dict:
        """Service-level state summary plus the full metrics snapshot."""
        stats = self.proj.memory_stats()
        return {
            "live_comments": self.n_live_comments,
            "live_pages": stats["live_pages"],
            "live_users": stats["live_users"],
            "interned_users": stats["interned_users"],
            "interned_pages": stats["interned_pages"],
            "evict_cutoff": self.evict_cutoff,
            "ci_edges": len(self.graph.weights),
            "thresholded_edges": self.graph.n_edges,
            "triangles": self.graph.n_triangles,
            "filtered_comments": self._filtered_comments,
            "metrics": self.metrics.to_dict(),
        }

    # -- small accessors ---------------------------------------------------------
    @property
    def n_live_comments(self) -> int:
        """Comments currently inside the live window."""
        return self.proj.n_comments

    @property
    def n_triangles(self) -> int:
        """Triangles currently above the cutoff."""
        return self.graph.n_triangles

    def ci_edges(self) -> dict[tuple[str, str], int]:
        """Current ``w'`` weights keyed by sorted author-name pairs."""
        return self.graph.ci_edges()

    def page_counts(self) -> dict[str, int]:
        """Nonzero ``P'`` entries keyed by author name."""
        return self.graph.page_counts()

    def live_authors(self) -> list[str]:
        """Sorted names of authors with at least one live comment."""
        return sorted(self.graph.name_of(u) for u in self.graph.incidence)

    def filtered_names(self) -> tuple[str, ...]:
        """Author names the filter has excluded so far (first-seen order)."""
        return tuple(self._filtered_names)

    @property
    def filtered_comments(self) -> int:
        """Comments dropped by the author filter so far."""
        return self._filtered_comments

    def live_incidence(self) -> dict[str, dict[str, int]]:
        """Live comment counts as ``{author: {page: count}}``, name-keyed.

        This is the engine's ``w_xyz``/``p_x`` substrate (eqs. 2–3)
        exported by name so page-partitioned ingest shards can exchange
        it: pages are disjoint across shards under the page hash, so the
        per-shard incidences merge by plain union into exactly the
        single-engine incidence.
        """
        uname = self.proj.user_names.key_of
        pname = self.proj.page_names.key_of
        return {
            str(uname(u)): {str(pname(p)): int(c) for p, c in pages.items()}
            for u, pages in self.graph.incidence.items()
        }
