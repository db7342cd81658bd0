"""Online multi-layer detection: one live engine per action layer.

:class:`MultiLayerDetectionEngine` keeps one
:class:`~repro.serve.engine.DetectionEngine` per action layer, all
sharing a single :class:`~repro.serve.metrics.ServiceMetrics` registry.
An incoming *record* (a Pushshift-style dict) fans out: each layer's
extractor turns it into that layer's ``(author, action_value, time)``
events, records performing no action on a layer bump the layer's skip
counter (lenient ingestion, exactly as the batch loaders do), and every
layer's incremental machinery runs untouched.

Per-layer cardinality is exported as gauges after every update —
``layer.<name>.live_events``, ``layer.<name>.ci_edges``,
``layer.<name>.thresholded_edges`` — so ``/metrics`` exposes how much
each behaviour currently weighs, and fused queries
(:meth:`fused_ranking`, :meth:`fused_components`) combine the per-layer
thresholded edges through the same
:func:`~repro.actions.fuse.fuse_edge_maps` rule the batch pipeline uses.

The query surface is :class:`~repro.serve.http.HttpGateway`-compatible:
``top_k_triplets`` / ``user_score`` / ``component_of`` take an optional
``layer=`` and default to the *primary* layer (``page`` when covered,
else the first sorted layer), so a gateway pointed at a multi-layer
engine behaves exactly like a single-layer deployment until a client
asks for ``?layer=``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.actions.base import ActionKey, resolve_layers
from repro.actions.fuse import FusedGraph, fuse_edge_maps
from repro.pipeline.config import PipelineConfig
from repro.pipeline.results import PipelineResult
from repro.serve.engine import BatchReport, DetectionEngine
from repro.serve.metrics import ServiceMetrics

__all__ = ["MultiLayerDetectionEngine"]


class MultiLayerDetectionEngine:
    """Live multi-layer detection over a stream of comment records.

    Parameters
    ----------
    config:
        Applied to every per-layer engine (window, cutoff, filter, …).
    layers:
        Layer names / :class:`~repro.actions.base.ActionKey` instances;
        defaults to ``config.layers`` or ``("page",)``.
    metrics:
        Shared registry (one is created when omitted); all per-layer
        engines and the gateway report into it.

    Examples
    --------
    >>> from repro.projection import TimeWindow
    >>> eng = MultiLayerDetectionEngine(
    ...     PipelineConfig(window=TimeWindow(0, 60), min_triangle_weight=1,
    ...                    min_component_size=2),
    ...     layers=["page", "link"])
    >>> _ = eng.ingest([
    ...     {"author": "a", "link_id": "p", "created_utc": 0,
    ...      "link": "https://x.example/1"},
    ...     {"author": "b", "link_id": "p", "created_utc": 10,
    ...      "link": "http://www.x.example/1/"},
    ... ])
    >>> eng.fused_ranking()
    [('a', 2.0), ('b', 2.0)]
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        layers: "Sequence[str | ActionKey] | None" = None,
        *,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        self.config = config if config is not None else PipelineConfig()
        if layers is None:
            layers = self.config.layers or ("page",)
        self.keys = resolve_layers(list(layers))
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.engines: dict[str, DetectionEngine] = {
            key.name: DetectionEngine(self.config, metrics=self.metrics)
            for key in self.keys
        }
        self.primary = (
            "page" if "page" in self.engines else self.keys[0].name
        )

    # -- updates ---------------------------------------------------------------
    def ingest(self, records: Iterable[Mapping]) -> dict[str, BatchReport]:
        """Fan one micro-batch of comment records out to every layer.

        Each record must carry ``author`` and ``created_utc``; a record
        that performs no action on a layer is *skipped on that layer*
        and counted in ``layer.<name>.skipped_records`` — never an
        error (lenient ingestion).
        """
        batch = list(records)
        per_layer: dict[str, list[tuple[str, str, int]]] = {
            key.name: [] for key in self.keys
        }
        for rec in batch:
            for key in self.keys:
                events = key.triples(rec)
                if not events:
                    self.metrics.counter(
                        f"layer.{key.name}.skipped_records"
                    ).inc()
                    continue
                per_layer[key.name].extend(events)
        reports = {
            key.name: self.engines[key.name].ingest(per_layer[key.name])
            for key in self.keys
        }
        self._update_gauges()
        return reports

    def advance(self, cutoff: int) -> dict[str, BatchReport]:
        """Advance every layer's sliding window to *cutoff*."""
        reports = {
            key.name: self.engines[key.name].advance(cutoff)
            for key in self.keys
        }
        self._update_gauges()
        return reports

    def _update_gauges(self) -> None:
        """Refresh the per-layer cardinality gauges (satellite metrics)."""
        for name, engine in self.engines.items():
            status = engine.status()
            self.metrics.gauge(f"layer.{name}.live_events").set(
                status["live_comments"]
            )
            self.metrics.gauge(f"layer.{name}.ci_edges").set(
                status["ci_edges"]
            )
            self.metrics.gauge(f"layer.{name}.thresholded_edges").set(
                status["thresholded_edges"]
            )

    # -- per-layer queries -------------------------------------------------------
    def _engine(self, layer: "str | None") -> DetectionEngine:
        name = self.primary if layer is None else str(layer)
        engine = self.engines.get(name)
        if engine is None:
            raise ValueError(
                f"layer {name!r} is not served "
                f"(covered: {', '.join(self.layer_names())})"
            )
        return engine

    def layer_names(self) -> list[str]:
        """Covered layers, sorted."""
        return sorted(self.engines)

    def top_k_triplets(
        self, k: int, by: str = "t", layer: "str | None" = None
    ) -> list[dict]:
        """Top-k triplets on one layer (default: the primary layer)."""
        return self._engine(layer).top_k_triplets(k, by=by)

    def user_score(self, author: str, layer: "str | None" = None) -> dict:
        """Per-author live summary on one layer, plus the fused score."""
        row = dict(self._engine(layer).user_score(author))
        row["fused_score"] = self.fused_graph().user_scores().get(
            author, 0.0
        )
        return row

    def component_of(
        self, author: str, layer: "str | None" = None
    ) -> list[str]:
        """The author's component on one layer (see the fused variant)."""
        return self._engine(layer).component_of(author)

    def snapshot(self, layer: "str | None" = None) -> PipelineResult:
        """Batch-compatible :class:`PipelineResult` for one layer."""
        result = self._engine(layer).snapshot()
        result.layer = self.primary if layer is None else str(layer)
        return result

    # -- fused queries -----------------------------------------------------------
    def fused_graph(self) -> FusedGraph:
        """The current weighted union of per-layer thresholded edges."""
        cutoff = self.config.min_triangle_weight
        edge_maps = {
            name: {
                pair: w
                for pair, w in engine.ci_edges().items()
                if w >= cutoff
            }
            for name, engine in self.engines.items()
        }
        return fuse_edge_maps(
            edge_maps, weights=dict(self.config.layer_weights) or None
        )

    def fused_ranking(self, k: "int | None" = None) -> list[tuple[str, float]]:
        """Authors by fused multi-layer score (optionally top *k*)."""
        ranking = self.fused_graph().ranking()
        return ranking if k is None else ranking[: max(int(k), 0)]

    def fused_components(self) -> list[list[str]]:
        """Components of the fused graph ≥ ``min_component_size``."""
        return self.fused_graph().components(
            min_size=self.config.min_component_size
        )

    def fused_component_of(self, author: str) -> list[str]:
        """The author's component in the *fused* union graph."""
        return self.fused_graph().component_of(author)

    # -- status ------------------------------------------------------------------
    def status(self) -> dict:
        """Tier-style status: per-layer engine summaries + fused counts."""
        fused = self.fused_graph()
        layers = {}
        for name in self.layer_names():
            status = self.engines[name].status()
            status.pop("metrics", None)  # shared registry, reported once
            layers[name] = status
        return {
            "layers": layers,
            "primary": self.primary,
            "fused_edges": fused.n_edges,
            "fused_components": len(fused.components(
                min_size=self.config.min_component_size
            )),
            "metrics": self.metrics.to_dict(),
        }
