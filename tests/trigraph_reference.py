"""Induced subgraphs and complements as they were built before they
read their adjacency sets straight off the graph.

Kept verbatim but for their names as the differential reference for
twinwidth.trigraph.Graph.induced and Graph.complement: both list their
edges in edges() order and push each one through the checked
constructor, one _add_edge call per edge.
"""

from typing import Iterable

from twinwidth.trigraph import Graph


def induced(g: Graph, keep: Iterable[int]) -> Graph:
    keep = set(keep)
    if not keep <= g.vertices:
        raise ValueError("induced set is not a subset of the vertices")
    # the edges within keep in g.edges() order, from keep's adjacency alone
    return Graph(keep, [(u, v) for u in sorted(keep)
                        for v in sorted(g.adj[u] & keep) if u < v])


def complement(g: Graph) -> Graph:
    vs = sorted(g.vertices)
    edges = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:] if v not in g.adj[u]]
    return Graph(vs, edges)
