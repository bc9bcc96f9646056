"""Induced subgraphs, complements and adjacency sets as they were
built before the library read them straight off the graph or filled
them through one shared builder.

Kept verbatim but for their names as the differential reference for
twinwidth.trigraph: induced and complement list their edges in edges()
order and push each one through the checked constructor, and
graph_adjacency and trigraph_tables are the constructors' own per-edge
insertion, one checked call per edge (Graph._add_edge and Trigraph._add
before the builder replaced both).

edge_list is the sorted edge list of one adjacency table, which the
tests compare trigraphs by (Trigraph.black_edges and red_edges before
the library dropped them for want of a caller).
"""

from typing import Dict, Iterable, List, Set, Tuple

from twinwidth.trigraph import Graph


def edge_list(table: Dict[int, Set[int]]) -> List[Tuple[int, int]]:
    """The edges of an adjacency table as sorted pairs (u, v), u < v."""
    return [(u, v) for u in sorted(table) for v in sorted(table[u]) if u < v]


def add_edge(table: Dict[int, Set[int]], u: int, v: int) -> None:
    if u == v:
        raise ValueError("loop edge %d-%d" % (u, v))
    if u not in table or v not in table:
        raise ValueError("edge %d-%d uses unknown vertex" % (u, v))
    table[u].add(v)
    table[v].add(u)


def graph_adjacency(vertices: Iterable[int], edges: Iterable[Tuple[int, int]]):
    """Graph's vertex set and adjacency sets, edge by edge."""
    vertices = set(vertices)
    adj: Dict[int, Set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        add_edge(adj, u, v)
    return vertices, adj


def trigraph_tables(vertices: Iterable[int], black_edges: Iterable[Tuple[int, int]] = (),
                    red_edges: Iterable[Tuple[int, int]] = ()):
    """Trigraph's vertex set, black sets and red sets, edge by edge."""
    vertices = set(vertices)
    black: Dict[int, Set[int]] = {v: set() for v in vertices}
    red: Dict[int, Set[int]] = {v: set() for v in vertices}
    for u, v in black_edges:
        add_edge(black, u, v)
    for u, v in red_edges:
        add_edge(red, u, v)
    for v in vertices:
        if black[v] & red[v]:
            raise ValueError("vertex %d has an edge that is both black and red" % v)
    return vertices, black, red


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
