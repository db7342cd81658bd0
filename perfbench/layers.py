"""Where the benchmark puts its spans in the program's layers.

Kernels are plain functions bound into their callers' module namespaces
at import time, so a span around a kernel call has to replace the name
the caller looks up: ``repro.exec.plans`` for the batch projection plan,
``repro.projection.incremental`` for the online per-page reprojection,
and ``repro.kernels.pairs`` for the kernels ``cooccur_pairs`` and
``merge_triples`` call themselves.
"""

from __future__ import annotations

import repro.exec.plans as plans
import repro.kernels.pairs as kernel_pairs
import repro.projection.incremental as incremental

from perfbench.spans import Tracer

KERNELS = ("window_bounds", "cooccur_pairs", "dedup_triples", "merge_triples",
           "pair_weights", "pair_ledger")
INCREMENTAL = {
    "add_comments": "add_comments",
    "pages_before": "pages_with_comments_before",
    "evict_before": "evict_before",
    "memory_stats": "memory_stats",
    "compact": "compact",
}


def patch_kernels(tracer: Tracer, caller) -> None:
    """Trace the kernels *caller* (``plans`` or ``incremental``) uses."""
    tracer.patch(kernel_pairs, "window_bounds", "kernels.window_bounds")
    tracer.patch(kernel_pairs, "dedup_triples", "kernels.dedup_triples",
                 rows=lambda pg, *_: int(pg.shape[0]))
    tracer.patch(caller, "cooccur_pairs", "kernels.cooccur_pairs", generator=True)
    tracer.patch(caller, "merge_triples", "kernels.merge_triples")
    if caller is plans:
        tracer.patch(plans, "pair_weights", "kernels.pair_weights")
        tracer.patch(plans, "pair_ledger", "kernels.pair_ledger")


def kernel_metrics(tracer: Tracer) -> dict[str, float]:
    """Self time and call count per kernel, plus rows per dedup call."""
    self_s = tracer.self_times_s()
    out: dict[str, float] = {}
    for k in KERNELS:
        out[f"kernels.{k}_s"] = self_s.get(f"kernels.{k}", 0.0)
        out[f"kernels.{k}.calls"] = tracer.calls[f"kernels.{k}"]
    calls = tracer.calls["kernels.dedup_triples"]
    rows = tracer.calls["kernels.dedup_triples.rows"]
    out["kernels.dedup_rows_per_call"] = rows / calls if calls else 0.0
    return out


def patch_projector(tracer: Tracer, proj) -> None:
    """Trace the public methods of one ``IncrementalProjector``."""
    for short, method in INCREMENTAL.items():
        tracer.patch(proj, method, f"incremental.{short}")


def projector_metrics(tracer: Tracer) -> dict[str, float]:
    out: dict[str, float] = {}
    for short in INCREMENTAL:
        out[f"incremental.{short}_s"] = tracer.total_s(f"incremental.{short}")
        out[f"incremental.{short}.calls"] = tracer.calls[f"incremental.{short}"]
    return out

