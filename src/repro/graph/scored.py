"""The scored graph: the paper's Steps 2–3 over live CI ledgers.

:class:`ScoredGraph` owns everything between the common interaction
ledgers and a query answer:

- the ``w'`` pair-weight ledger (eq. 1), the ``P'`` ledger and the live
  user→page incidence (the ``w_xyz`` / ``p_x`` substrate of eqs. 2–3);
- the adjacency thresholded at ``min_triangle_weight`` and its kept
  edge count;
- the triangle store with a per-user index, each triangle carrying its
  three weights, ``T`` (eq. 7) and — with the hypergraph on — ``w_xyz``
  and ``C`` (eq. 4).

It is built once from ledgers, or updated by ledger deltas
(:meth:`ScoredGraph.apply`): only edges whose weight changed can add,
remove or re-weight triangles (common-neighbour closure on the
thresholded adjacency), and only triangles touching a changed edge or
a *dirty user* (one whose ``P'`` or live page set changed) are
rescored.  Both paths score through
:func:`repro.kernels.normalized_score_scalar`, the batch pipeline's
scalar kernel, so every float is bit-identical to a batch run's.

Vertices are whatever key the owner uses — dense ids in the online
engine, author names in the sharded tier's page-mode aggregate.  A
vertex→name function gives every answer its name-keyed form and its
name-sorted tie-break.

The same module holds the ranking rules every top-k surface shares
(:data:`RANKS`, :func:`rank_key`) and the component walk
(:func:`component_from`, :func:`component_lists`) that the scored graph
and the fused multi-layer graph use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generic, Hashable, Iterable, Mapping, TypeVar

from repro.kernels import normalized_score_scalar

__all__ = [
    "RANKS",
    "ScoreUpdate",
    "ScoredGraph",
    "TriangleScore",
    "component_from",
    "component_lists",
    "rank_key",
]

#: Valid ``by=`` rankings of every top-k query.
RANKS = ("t", "c", "min_weight")

V = TypeVar("V", int, str)
H = TypeVar("H", bound=Hashable)

Row = dict[str, Any]


def rank_key(
    by: str, hypergraph: bool = True
) -> Callable[[Mapping[str, Any]], tuple[Any, ...]]:
    """Sort key of a top-k ranking: descending score, then author names.

    Raises :class:`ValueError` for an unknown ranking, and for ``"c"``
    when *hypergraph* is false (no ``C`` scores are computed then).
    """
    if by not in RANKS:
        raise ValueError(f"unknown ranking {by!r} (use t, c, min_weight)")
    if by == "c" and not hypergraph:
        raise ValueError("ranking by C requires compute_hypergraph=True")
    return lambda row: (-row[by], row["authors"])


def component_from(adj: Mapping[H, Iterable[H]], start: H) -> set[H]:
    """Every vertex reachable from *start* in *adj* (breadth-first)."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt: list[H] = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def component_lists(
    adj: Mapping[H, Iterable[H]], name_of: Callable[[H], str], min_size: int
) -> list[list[str]]:
    """Components of *adj* with at least *min_size* members.

    Each component is its sorted member names; the list sorts largest
    first, ties broken on the member names.
    """
    seen: set[H] = set()
    out: list[list[str]] = []
    for start in adj:
        if start in seen:
            continue
        comp = component_from(adj, start)
        seen |= comp
        if len(comp) >= min_size:
            out.append(sorted(name_of(v) for v in comp))
    out.sort(key=lambda names: (-len(names), names))
    return out


class TriangleScore:
    """One live triangle: its three ``w'`` weights and its scores.

    ``w_ab``, ``w_ac``, ``w_bc`` are the weights of the edges between the
    sorted vertex triple ``(a, b, c)`` that keys it.
    """

    __slots__ = ("w_ab", "w_ac", "w_bc", "t", "w_xyz", "p_sum", "c")

    def __init__(self, w_ab: int, w_ac: int, w_bc: int) -> None:
        self.w_ab = w_ab
        self.w_ac = w_ac
        self.w_bc = w_bc
        self.t = 0.0
        self.w_xyz = 0
        self.p_sum = 0
        self.c = 0.0


@dataclass(frozen=True)
class ScoreUpdate:
    """What one :meth:`ScoredGraph.apply` changed."""

    dirty_edges: int
    dirty_users: int
    triangles_added: int
    triangles_removed: int
    rescored_triangles: int


class ScoredGraph(Generic[V]):
    """Thresholded CI graph, its triangles and their T/C scores.

    Parameters
    ----------
    weights, pprime, incidence:
        The ``w'`` ledger ``{(u, v): w}`` with ``u < v``, the nonzero
        ``P'`` entries ``{u: count}`` and the live incidence
        ``{u: {page: live comment count}}``.  The graph takes ownership
        of these mappings and updates them in place.
    cutoff:
        ``min_triangle_weight``: edges with ``w' >= cutoff`` are kept.
    hypergraph:
        Whether ``w_xyz``/``C`` are computed (``compute_hypergraph``).
    min_component_size:
        Floor of :meth:`components`.
    name_of / vertex_of:
        Vertex → author name, and author name → vertex (``None`` when
        unknown).

    Examples
    --------
    >>> g = ScoredGraph(
    ...     {("a", "b"): 2, ("a", "c"): 2, ("b", "c"): 3},
    ...     {"a": 1, "b": 1, "c": 1},
    ...     {"a": {"p": 1}, "b": {"p": 1}, "c": {"p": 1}},
    ...     cutoff=2, hypergraph=True, min_component_size=2,
    ...     name_of=str, vertex_of=lambda name: name)
    >>> row = g.top_k_triplets(1)[0]
    >>> row["authors"], row["weights"], row["t"], row["c"]
    (('a', 'b', 'c'), (2, 2, 3), 2.0, 1.0)
    """

    def __init__(
        self,
        weights: dict[tuple[V, V], int],
        pprime: dict[V, int],
        incidence: dict[V, dict[Any, int]],
        *,
        cutoff: int,
        hypergraph: bool,
        min_component_size: int,
        name_of: Callable[[V], str],
        vertex_of: Callable[[str], V | None],
    ) -> None:
        self.weights = weights
        self.pprime = pprime
        self.incidence = incidence
        self.cutoff = cutoff
        self.hypergraph = hypergraph
        self.min_component_size = min_component_size
        self.name_of = name_of
        self.vertex_of = vertex_of
        self.adj: dict[V, dict[V, int]] = {}
        self.triangles: dict[tuple[V, V, V], TriangleScore] = {}
        self._tri_by_user: dict[V, set[tuple[V, V, V]]] = {}
        self._n_edges = 0
        for (u, v), w in weights.items():
            if w >= cutoff:
                self.adj.setdefault(u, {})[v] = w
                self.adj.setdefault(v, {})[u] = w
                self._n_edges += 1
        for u, nbrs in self.adj.items():
            for v in nbrs:
                if v <= u:
                    continue
                for x in nbrs.keys() & self.adj[v].keys():
                    if x <= v:
                        continue
                    key = (u, v, x)
                    self.triangles[key] = TriangleScore(
                        nbrs[v], nbrs[x], self.adj[v][x]
                    )
                    self._index(key)
        self._rescore(self.triangles.keys())

    # -- delta updates -------------------------------------------------------
    def apply(
        self,
        edge_delta: Mapping[tuple[V, V], int],
        pprime_delta: Mapping[V, int],
        incidence_delta: Iterable[tuple[V, Any, int]],
    ) -> ScoreUpdate:
        """Fold ledger deltas in and bring triangles and scores up to date.

        *edge_delta* maps ``(u, v)`` pairs (``u < v``) to ``w'`` changes,
        *pprime_delta* users to ``P'`` changes, and *incidence_delta*
        yields ``(user, page, change in live comment count)``.  Zero
        deltas are ignored.
        """
        dirty_users: set[V] = set()
        for u, delta in pprime_delta.items():
            if not delta:
                continue
            count = self.pprime.get(u, 0) + delta
            if count:
                self.pprime[u] = count
            else:
                self.pprime.pop(u, None)
            dirty_users.add(u)
        for u, page, delta in incidence_delta:
            pages = self.incidence.setdefault(u, {})
            old = pages.get(page, 0)
            new = old + delta
            if new:
                pages[page] = new
            else:
                pages.pop(page, None)
            if not pages:
                del self.incidence[u]
            if (old == 0) != (new == 0):
                # The user's distinct-page set changed: p_x and w_xyz move.
                dirty_users.add(u)

        dirty_edges = [pair for pair, delta in sorted(edge_delta.items()) if delta]
        added, removed, rescore = self._update_edges(dirty_edges, edge_delta)
        for u in dirty_users:
            tris = self._tri_by_user.get(u)
            if tris:
                rescore |= tris
        self._rescore(rescore)
        return ScoreUpdate(
            dirty_edges=len(dirty_edges),
            dirty_users=len(dirty_users),
            triangles_added=added,
            triangles_removed=removed,
            rescored_triangles=len(rescore),
        )

    def _update_edges(
        self,
        dirty_edges: list[tuple[V, V]],
        edge_delta: Mapping[tuple[V, V], int],
    ) -> tuple[int, int, set[tuple[V, V, V]]]:
        """Fold ``w'`` deltas into the ledger, the thresholded adjacency
        and the triangle store; returns (added, removed, keys to rescore).
        """
        adj = self.adj
        added = removed = 0
        rescore: set[tuple[V, V, V]] = set()
        for u, v in dirty_edges:
            new_w = self.weights.get((u, v), 0) + edge_delta[(u, v)]
            if new_w:
                self.weights[(u, v)] = new_w
            else:
                self.weights.pop((u, v), None)
            was_above = v in adj.get(u, ())
            if new_w >= self.cutoff:
                if was_above:
                    adj[u][v] = new_w
                    adj[v][u] = new_w
                    for key in self._tris_with_edge(u, v):
                        self._set_weight(key, u, v, new_w)
                        rescore.add(key)
                    continue
                nbrs_u = adj.setdefault(u, {})
                nbrs_v = adj.setdefault(v, {})
                common = nbrs_u.keys() & nbrs_v.keys()
                nbrs_u[v] = new_w
                nbrs_v[u] = new_w
                self._n_edges += 1
                for x in common:
                    key = _sorted_triple(u, v, x)
                    if key not in self.triangles:
                        self.triangles[key] = TriangleScore(0, 0, 0)
                        self._index(key)
                        self._set_weight(key, u, x, nbrs_u[x])
                        self._set_weight(key, v, x, nbrs_v[x])
                        added += 1
                    # else: another dirty edge of this new triangle
                    # already closed it in this update.
                    self._set_weight(key, u, v, new_w)
                    rescore.add(key)
            elif was_above:
                del adj[u][v]
                del adj[v][u]
                if not adj[u]:
                    del adj[u]
                if not adj[v]:
                    del adj[v]
                self._n_edges -= 1
                for key in self._tris_with_edge(u, v):
                    del self.triangles[key]
                    rescore.discard(key)
                    for vertex in key:
                        owners = self._tri_by_user[vertex]
                        owners.discard(key)
                        if not owners:
                            del self._tri_by_user[vertex]
                    removed += 1
        return added, removed, rescore

    def _index(self, key: tuple[V, V, V]) -> None:
        for vertex in key:
            self._tri_by_user.setdefault(vertex, set()).add(key)

    def _tris_with_edge(self, u: V, v: V) -> list[tuple[V, V, V]]:
        a = self._tri_by_user.get(u)
        b = self._tri_by_user.get(v)
        if not a or not b:
            return []
        return list(a & b)

    def _set_weight(self, key: tuple[V, V, V], u: V, v: V, w: int) -> None:
        tri = self.triangles[key]
        lo, hi = (u, v) if u < v else (v, u)
        a, b, _c = key
        if (lo, hi) == (a, b):
            tri.w_ab = w
        elif lo == a:
            tri.w_ac = w
        else:
            tri.w_bc = w

    def _rescore(self, keys: Iterable[tuple[V, V, V]]) -> None:
        pprime = self.pprime
        incidence = self.incidence
        for key in keys:
            tri = self.triangles.get(key)
            if tri is None:
                continue
            a, b, c = key
            min_w = min(tri.w_ab, tri.w_ac, tri.w_bc)
            denom = pprime.get(a, 0) + pprime.get(b, 0) + pprime.get(c, 0)
            tri.t = normalized_score_scalar(min_w, denom)
            if self.hypergraph:
                pa = incidence.get(a, {})
                pb = incidence.get(b, {})
                pc = incidence.get(c, {})
                sets = sorted((pa, pb, pc), key=len)
                small = sets[0].keys() & sets[1].keys()
                tri.w_xyz = len(small & sets[2].keys()) if small else 0
                tri.p_sum = len(pa) + len(pb) + len(pc)
                tri.c = normalized_score_scalar(tri.w_xyz, tri.p_sum)

    # -- sizes ---------------------------------------------------------------
    @property
    def n_triangles(self) -> int:
        """Triangles currently above the cutoff."""
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        """Edges currently above the cutoff (kept, not recounted)."""
        return self._n_edges

    # -- queries -------------------------------------------------------------
    def _rows(self) -> list[Row]:
        names = {v: self.name_of(v) for v in self._tri_by_user}
        rows = []
        for (a, b, c), tri in self.triangles.items():
            weights = (tri.w_ab, tri.w_ac, tri.w_bc)
            rows.append(
                {
                    "authors": tuple(sorted((names[a], names[b], names[c]))),
                    "min_weight": min(weights),
                    "weights": tuple(sorted(weights)),
                    "t": tri.t,
                    "w_xyz": tri.w_xyz,
                    "p_sum": tri.p_sum,
                    "c": tri.c,
                }
            )
        return rows

    def top_k_triplets(self, k: int, by: str = "t") -> list[Row]:
        """The *k* highest-ranked triangles as name-keyed rows.

        ``by`` is one of :data:`RANKS`; rows sort by descending score
        with the sorted author-name triple as the tie-break.
        """
        key = rank_key(by, self.hypergraph)
        rows = self._rows()
        rows.sort(key=key)
        return rows[: max(int(k), 0)]

    def owned_top_k(
        self, k: int, by: str, shard_id: int, n_shards: int
    ) -> list[Row]:
        """:meth:`top_k_triplets` restricted to one query shard's triangles.

        A triangle is owned by the shard of its lexicographically-first
        author under the user hash (:func:`repro.serve.ingest.shard_of`),
        so each is owned exactly once and a k-way merge of every shard's
        list (:func:`repro.serve.shard.merge_topk`) is the global top-k.
        """
        from repro.serve.ingest import shard_of

        key = rank_key(by, self.hypergraph)
        rows = [
            r for r in self._rows() if shard_of(r["authors"][0], n_shards) == shard_id
        ]
        rows.sort(key=key)
        return rows[: max(int(k), 0)]

    def user_score(self, author: str) -> Row:
        """Per-author summary: ``P'``, page count, degree, best scores.

        Authors with no live comment get ``present=False`` and zeros — a
        monitoring query must not throw on unknown names.
        """
        u = self.vertex_of(author)
        if u is None or u not in self.incidence:
            return {
                "author": author,
                "present": False,
                "p_prime": 0,
                "pages": 0,
                "degree": 0,
                "n_triplets": 0,
                "best_t": 0.0,
                "best_c": 0.0,
            }
        tris = [self.triangles[key] for key in self._tri_by_user.get(u, ())]
        return {
            "author": author,
            "present": True,
            "p_prime": self.pprime.get(u, 0),
            "pages": len(self.incidence[u]),
            "degree": len(self.adj.get(u, {})),
            "n_triplets": len(tris),
            "best_t": max((t.t for t in tris), default=0.0),
            "best_c": max((t.c for t in tris), default=0.0),
        }

    def component_of(self, author: str) -> list[str]:
        """Sorted member names of *author*'s thresholded-graph component.

        Empty when the author is absent or isolated at the cutoff; no
        ``min_component_size`` floor applies.
        """
        u = self.vertex_of(author)
        if u is None or u not in self.adj:
            return []
        return sorted(self.name_of(v) for v in component_from(self.adj, u))

    def components(self) -> list[list[str]]:
        """All components of at least ``min_component_size`` members,
        each a sorted name list, largest first."""
        return component_lists(self.adj, self.name_of, self.min_component_size)

    def owned_fragment(self, shard_id: int, n_shards: int) -> dict[str, list[Any]]:
        """One query shard's fragment of the thresholded graph, name-keyed.

        ``vertices`` are the owned users in the thresholded adjacency;
        ``edges`` every edge incident to one of them as a sorted name
        pair, boundary edges included.  Unioning every shard's fragment
        (:func:`repro.serve.shard.merge_components`) rebuilds the
        components exactly.
        """
        from repro.serve.ingest import shard_of

        name_of = self.name_of
        vertices: list[str] = []
        edges: set[tuple[str, str]] = set()
        for u, nbrs in self.adj.items():
            un = name_of(u)
            if shard_of(un, n_shards) != shard_id:
                continue
            vertices.append(un)
            for v in nbrs:
                vn = name_of(v)
                edges.add((un, vn) if un <= vn else (vn, un))
        return {"vertices": sorted(vertices), "edges": sorted(edges)}

    def ci_edges(self) -> dict[tuple[str, str], int]:
        """The ``w'`` ledger keyed by sorted author-name pairs."""
        name_of = self.name_of
        out: dict[tuple[str, str], int] = {}
        for (u, v), w in self.weights.items():
            a, b = name_of(u), name_of(v)
            out[(a, b) if a <= b else (b, a)] = w
        return out

    def page_counts(self) -> dict[str, int]:
        """Nonzero ``P'`` entries keyed by author name."""
        name_of = self.name_of
        return {name_of(u): c for u, c in self.pprime.items()}


def _sorted_triple(u: V, v: V, x: V) -> tuple[V, V, V]:
    a, b, c = sorted((u, v, x))
    return (a, b, c)
