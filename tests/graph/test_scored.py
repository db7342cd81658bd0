"""ScoredGraph: delta updates must equal a rebuild from the final ledgers."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.scored import ScoredGraph, component_lists, rank_key

N_VERTICES = 5
PAIRS = [(i, j) for i in range(N_VERTICES) for j in range(i + 1, N_VERTICES)]
PAGES = ("p0", "p1", "p2")
CUTOFF = 2

# A dense starting state (most examples hold several triangles) as one
# batch of ops, then small batches of ops on the ledgers:
# ("edge", u, v, delta) / ("pp", u, delta) / ("inc", u, page, delta).
# Deltas are clamped so no ledger goes negative; small batches keep the
# dirty-user set small, so a triangle a change should rescore is not
# rescored by accident through another dirty vertex.
vertex = st.integers(0, N_VERTICES - 1)
delta = st.integers(-3, 3)
initial = st.tuples(
    st.lists(st.integers(0, 4), min_size=len(PAIRS), max_size=len(PAIRS)),
    st.lists(st.integers(0, 3), min_size=N_VERTICES, max_size=N_VERTICES),
    st.lists(st.sets(st.sampled_from(PAGES)), min_size=N_VERTICES, max_size=N_VERTICES),
).map(
    lambda t: [("edge", i, j, w) for (i, j), w in zip(PAIRS, t[0])]
    + [("pp", u, c) for u, c in enumerate(t[1])]
    + [("inc", u, page, 1) for u, pages in enumerate(t[2]) for page in sorted(pages)]
)
op = st.one_of(
    st.tuples(st.just("edge"), vertex, vertex, delta),
    st.tuples(st.just("pp"), vertex, delta),
    st.tuples(st.just("inc"), vertex, st.sampled_from(PAGES), delta),
)
batches = st.lists(st.lists(op, min_size=1, max_size=3), max_size=12)

# Edge (0, 1) and the triangle 0-1-2 cross the cutoff up, then down.
CROSSING = [
    [("edge", 0, 1, 3), ("edge", 0, 2, 2), ("inc", 0, "p0", 1)],
    [("edge", 1, 2, 2), ("pp", 1, 2), ("inc", 1, "p0", 1)],
    [("edge", 0, 1, -2), ("pp", 1, -1), ("inc", 0, "p0", -1)],
]

# Int vertices are named in the reverse of their id order, so a rank
# tie-break that followed ids instead of names would show.
KEYINGS = {
    "int": (lambda i: i, lambda i: f"n{N_VERTICES - i}"),
    "str": (lambda i: f"v{i}", str),
}


def _keying(kind):
    """(test index → vertex, vertex → name, name → vertex) for *kind*."""
    to_vertex, name_of = KEYINGS[kind]
    names = {name_of(to_vertex(i)): to_vertex(i) for i in range(N_VERTICES)}
    return to_vertex, name_of, names.get


def _graph(weights, pprime, incidence, kind, hypergraph):
    _to_vertex, name_of, vertex_of = _keying(kind)
    return ScoredGraph(
        weights,
        pprime,
        incidence,
        cutoff=CUTOFF,
        hypergraph=hypergraph,
        min_component_size=2,
        name_of=name_of,
        vertex_of=vertex_of,
    )


def _to_deltas(batch, model, to_vertex):
    """One batch of ops → clamped ledger deltas, folded into *model*."""
    weights, pprime, incidence = model
    edge_delta, pp_delta, inc_delta = {}, {}, []
    for item in batch:
        if item[0] == "edge":
            _, i, j, d = item
            if i == j:
                continue
            u, v = sorted((to_vertex(i), to_vertex(j)))
            d = max(d, -weights.get((u, v), 0))
            weights[(u, v)] = weights.get((u, v), 0) + d
            edge_delta[(u, v)] = edge_delta.get((u, v), 0) + d
        elif item[0] == "pp":
            _, i, d = item
            u = to_vertex(i)
            d = max(d, -pprime.get(u, 0))
            pprime[u] = pprime.get(u, 0) + d
            pp_delta[u] = pp_delta.get(u, 0) + d
        else:
            _, i, page, d = item
            u = to_vertex(i)
            d = max(d, -incidence.get(u, {}).get(page, 0))
            pages = incidence.setdefault(u, {})
            pages[page] = pages.get(page, 0) + d
            inc_delta.append((u, page, d))
    return edge_delta, pp_delta, inc_delta


def _nonzero(model):
    weights, pprime, incidence = model
    return (
        {k: w for k, w in weights.items() if w},
        {k: c for k, c in pprime.items() if c},
        {
            u: {p: c for p, c in pages.items() if c}
            for u, pages in incidence.items()
            if any(pages.values())
        },
    )


def _answers(g, hypergraph):
    names = [g.name_of(v) for v in _keying_vertices(g)] + ["nobody"]
    ranks = ("t", "c", "min_weight") if hypergraph else ("t", "min_weight")
    return {
        "n_triangles": g.n_triangles,
        "n_edges": g.n_edges,
        "ledgers": (g.weights, g.pprime, g.incidence),
        "top": {by: g.top_k_triplets(10**6, by) for by in ranks},
        "top3": {by: g.top_k_triplets(3, by) for by in ranks},
        "owned": {
            (by, sid, n): g.owned_top_k(4, by, sid, n)
            for by in ranks
            for n in (1, 2, 3)
            for sid in range(n)
        },
        "users": {name: g.user_score(name) for name in names},
        "component_of": {name: g.component_of(name) for name in names},
        "components": g.components(),
        "fragments": {
            (sid, n): g.owned_fragment(sid, n) for n in (1, 2, 3) for sid in range(n)
        },
        "ci_edges": g.ci_edges(),
        "page_counts": g.page_counts(),
    }


def _keying_vertices(g):
    return sorted({v for pair in g.weights for v in pair} | set(g.incidence))


@pytest.mark.parametrize("kind", sorted(KEYINGS))
@pytest.mark.parametrize("hypergraph", [True, False])
@settings(max_examples=80, deadline=None)
@given(start=initial, batches=batches, built=st.booleans())
@example(start=[], batches=CROSSING, built=False)
@example(start=CROSSING[0], batches=CROSSING[1:], built=True)
def test_deltas_match_rebuild_from_final_ledgers(
    kind, hypergraph, start, batches, built
):
    to_vertex = _keying(kind)[0]
    model = ({}, {}, {})
    first = _to_deltas(start, model, to_vertex)
    if built:
        live = _graph(*_nonzero(model), kind, hypergraph)
    else:
        live = _graph({}, {}, {}, kind, hypergraph)
        live.apply(*first)
    for batch in batches:
        live.apply(*_to_deltas(batch, model, to_vertex))
    rebuilt = _graph(*_nonzero(model), kind, hypergraph)
    assert _answers(live, hypergraph) == _answers(rebuilt, hypergraph)


def test_crossing_example_adds_then_removes_a_triangle():
    g = _graph({}, {}, {}, "str", True)
    model = ({}, {}, {})
    counts = []
    for batch in CROSSING:
        g.apply(*_to_deltas(batch, model, lambda i: f"v{i}"))
        counts.append((g.n_edges, g.n_triangles))
    assert counts == [(2, 0), (3, 1), (2, 0)]


def test_rank_rules():
    assert rank_key("t")({"t": 0.5, "authors": ("a",)}) == (-0.5, ("a",))
    with pytest.raises(ValueError, match="unknown ranking"):
        rank_key("z")
    with pytest.raises(ValueError, match="requires compute_hypergraph"):
        rank_key("c", hypergraph=False)
    g = _graph({}, {}, {}, "str", False)
    with pytest.raises(ValueError, match="requires compute_hypergraph"):
        g.top_k_triplets(1, "c")


def test_component_lists_floor_and_order():
    adj = {"a": {"b"}, "b": {"a"}, "c": {"d", "e"}, "d": {"c"}, "e": {"c"}, "f": set()}
    assert component_lists(adj, str, 1) == [["c", "d", "e"], ["a", "b"], ["f"]]
    assert component_lists(adj, str, 3) == [["c", "d", "e"]]
