"""Matching primitives for the chart encoder (paper reference [12]).

Two matching problems appear in the encoding procedure of Figure 3:

* Step 5 needs a **maximum-weight b-matching** on the bipartite
  column-graph Gc(Vc, Uc, Ec): every partition vertex in Vc may take at
  most one edge, every Psc vertex in Uc at most ``#R`` edges.
* Step 7 needs a **maximum matching** on the benefit-weighted row-graph.

Both are solved exactly by reduction to NetworkX's blossom-based
``max_weight_matching`` (the b-matching by cloning each capacity-``b``
vertex into ``b`` unit-capacity copies).  A greedy fallback is provided
for environments without NetworkX and as a cross-check in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "WeightedEdge",
    "max_weight_matching",
    "max_weight_b_matching",
    "greedy_matching",
]

Vertex = Hashable


@dataclass(frozen=True)
class WeightedEdge:
    """An undirected weighted edge."""

    u: Vertex
    v: Vertex
    weight: float


def _networkx_matching(
    edges: Sequence[WeightedEdge], maxcardinality: bool
) -> Set[Tuple[Vertex, Vertex]]:
    import networkx as nx

    graph = nx.Graph()
    for e in edges:
        # Keep only the best parallel edge.
        if graph.has_edge(e.u, e.v):
            if graph[e.u][e.v]["weight"] >= e.weight:
                continue
        graph.add_edge(e.u, e.v, weight=e.weight)
    mate = nx.max_weight_matching(graph, maxcardinality=maxcardinality)
    return {tuple(sorted(pair, key=repr)) for pair in mate}


def max_weight_matching(
    edges: Sequence[WeightedEdge], maxcardinality: bool = False
) -> List[WeightedEdge]:
    """Exact maximum-weight matching; returns the matched edges."""
    if not edges:
        return []
    pairs = _networkx_matching(edges, maxcardinality)
    best: Dict[Tuple[Vertex, Vertex], WeightedEdge] = {}
    for e in edges:
        key = tuple(sorted((e.u, e.v), key=repr))
        if key not in best or best[key].weight < e.weight:
            best[key] = e
    # Sorted: ``pairs`` is a set of vertex tuples, and callers break
    # equal-weight ties by this order, so set order must not leak out.
    return [best[key] for key in sorted(pairs, key=repr) if key in best]


def greedy_matching(edges: Sequence[WeightedEdge]) -> List[WeightedEdge]:
    """Greedy 1/2-approximate matching (deterministic tie-break)."""
    chosen: List[WeightedEdge] = []
    used: Set[Vertex] = set()
    for e in sorted(edges, key=lambda e: (-e.weight, repr(e.u), repr(e.v))):
        if e.u in used or e.v in used or e.u == e.v:
            continue
        chosen.append(e)
        used.add(e.u)
        used.add(e.v)
    return chosen


def max_weight_b_matching(
    edges: Sequence[WeightedEdge],
    capacity: Dict[Vertex, int],
) -> List[WeightedEdge]:
    """Maximum-weight b-matching: vertex ``v`` takes at most ``capacity[v]``
    edges (default 1 when absent).

    Solved by cloning each vertex of capacity ``b`` into ``b`` unit
    copies, taking an exact max-weight matching over the cloned graph,
    and folding the copies back.  Each *original* edge appears at most
    once in the result: when both endpoints have capacity >= 2 the cloned
    graph contains vertex-disjoint copies of the same edge (e.g. a single
    u-v edge with capacities 2/2 yields the clones (u0,v0) and (u1,v1),
    both of which a matching may take), so folding back must deduplicate
    or the edge's weight is double-counted and b-matching edge semantics
    (each edge used at most once) are violated.  Deduplication keeps the
    heaviest fold-back per original endpoint pair; the result is exact
    whenever one side of every edge has unit capacity (the chart
    encoder's column graph: classes have capacity 1).
    """
    cloned: List[WeightedEdge] = []
    for e in edges:
        cu = capacity.get(e.u, 1)
        cv = capacity.get(e.v, 1)
        for iu in range(cu):
            for iv in range(cv):
                cloned.append(
                    WeightedEdge(("clone", e.u, iu), ("clone", e.v, iv), e.weight)
                )
    matched = max_weight_matching(cloned)
    best: Dict[Tuple[Vertex, Vertex], WeightedEdge] = {}
    for e in matched:
        (_, u, _iu) = e.u
        (_, v, _iv) = e.v
        key = tuple(sorted((u, v), key=repr))
        kept = best.get(key)
        if kept is None or kept.weight < e.weight:
            best[key] = WeightedEdge(u, v, e.weight)
    return [best[key] for key in sorted(best, key=repr)]
