"""Graphs, trigraphs and the contraction operation.

A trigraph carries two disjoint edge sets on the same vertices: black
(ordinary) edges and red (error) edges.  Contracting two vertices u, v
into a fresh vertex z recolours the boundary: common neighbours keep a
black edge only if both u and v saw them black, every other neighbour of
u or v becomes a red neighbour of z.  contract is the one checked
entry: a target must exceed every live id, so that no id is ever
reused, and contract scans the live ids for that before it contracts a
copy.  Only the library's own loops, a sequence's walk and the width-1
driver, merge in place (Trigraph._merge) after their first contract:
their ids are fresh by construction, so a step costs O(deg u + deg v).
Trigraph._view reads a graph as a trigraph without copying it.
Which original vertices a contracted vertex stands for is a property
of the contraction sequence (ContractionSequence.owners), not of the
trigraph.

Each object holds its adjacency tables and nothing else: adj for a
Graph, black and red, with equal keys, for a Trigraph.  The vertex set
is a read-only view of the keys of adj or black, so a merge updates
the tables alone.

No table has a defined iteration order.  An output that needs an order
sorts where it is made, as edges() and components() do, so equal
graphs give equal outputs however they were built.

A graph derived from another graph takes its rows from the source by
set operations: induced, complement and relabel_compact build each row
from a row of a valid table, the composed graph
(compose.or_cross_compose) shifts its inputs' rows and joins whole
cells, and the grid graphs (gadgets.snaking_grid and
augmented_snaking_grid) number the point rows of their grids.  None
of these can produce a loop or an unknown endpoint, and Graph._of
wraps the result unchecked.  The edge-list constructors, with their
per-edge checks, serve outside input, the families complete, path and
cycle, and the constructions that produce their own edge lists:
quotient_by (one edge per linked pair of classes), gadgets.reduce_3sat,
halfgraph_cycle and variable_wire, and compose.make_dummy.

A broken internal invariant raises InternalError, explicitly, so that
the check holds under python -O too.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterable, Iterator, KeysView, List, Optional, Set, Tuple, Union


class InternalError(AssertionError):
    """A broken internal invariant: a fault of the library, not of its
    input.  An AssertionError, so whatever catches that catches it."""


def _adjacency(vertices: Iterable[int], edges: Iterable[Tuple[int, int]]) -> Dict[int, Set[int]]:
    """Adjacency sets on vertices, filled one edge at a time in the
    given order; a loop or an unknown endpoint is refused."""
    adj: Dict[int, Set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        if u == v:
            raise ValueError("loop edge %d-%d" % (u, v))
        if u not in adj or v not in adj:
            raise ValueError("edge %d-%d uses unknown vertex" % (u, v))
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _reach(start: int, step: Callable[[int], Iterable[int]], seen: Set[int]) -> Set[int]:
    """Add to seen all that start reaches along step, skipping what seen
    holds; returns seen.  The library's one graph search."""
    seen.add(start)
    stack = [start]
    while stack:
        x = stack.pop()
        for y in step(x):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


class Graph:
    """Undirected simple graph with integer vertices.

    vertices views the keys of adj, the one table.  Instances are
    treated as immutable: every operation that changes the vertex or
    edge set returns a new Graph.
    """

    __slots__ = ("adj",)

    def __init__(self, vertices: Iterable[int], edges: Iterable[Tuple[int, int]] = ()):
        self.adj: Dict[int, Set[int]] = _adjacency(vertices, edges)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(range(1, n + 1), [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(range(1, n + 1), [(i, i + 1) for i in range(1, n)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)])

    @property
    def vertices(self) -> KeysView[int]:
        return self.adj.keys()

    @property
    def n(self) -> int:
        return len(self.adj)

    def edges(self) -> Iterator[Tuple[int, int]]:
        for u in sorted(self.adj):
            for v in sorted(self.adj[u]):
                if u < v:
                    yield (u, v)

    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj.values()) // 2

    @classmethod
    def _of(cls, adj: Dict[int, Set[int]]) -> "Graph":
        """A graph on ready-made adjacency sets, without any check."""
        g = cls.__new__(cls)
        g.adj = adj
        return g

    def induced(self, keep: Iterable[int]) -> "Graph":
        """The subgraph on keep, a subset of the vertices: each row is
        this graph's row cut down to keep."""
        keep = set(keep)
        adj = self.adj
        if not keep <= adj.keys():
            raise ValueError("induced set is not a subset of the vertices")
        return Graph._of({v: adj[v] & keep for v in keep})

    def without(self, drop: Iterable[int]) -> "Graph":
        return self.induced(self.adj.keys() - set(drop))

    def complement(self) -> "Graph":
        """The graph joining exactly the distinct non-adjacent pairs:
        each row is every vertex less the row and the vertex itself."""
        near = self.adj
        every = set(near)
        return Graph._of({v: every.difference(near[v], (v,)) for v in near})

    def components(self) -> List[Set[int]]:
        """The connected components, each listed by its least member."""
        seen: Set[int] = set()
        comps = []
        for start in sorted(self.adj):
            if start not in seen:
                comps.append(_reach(start, self.adj.__getitem__, set()))
                seen |= comps[-1]
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def relabel_compact(self) -> Tuple["Graph", Dict[int, int]]:
        """Relabel vertices to 1..n in sorted order; returns (graph, old->new map)."""
        mapping = {v: i + 1 for i, v in enumerate(sorted(self.adj))}
        adj = {mapping[v]: {mapping[w] for w in near} for v, near in self.adj.items()}
        return Graph._of(adj), mapping

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.adj == other.adj

    def __repr__(self) -> str:
        return "Graph(n=%d, m=%d)" % (self.n, self.edge_count())


class Trigraph:
    """Graph with disjoint black and red edge sets on the same vertices:
    black and red have equal keys, and vertices views black's."""

    __slots__ = ("black", "red")

    def __init__(
        self,
        vertices: Iterable[int],
        black_edges: Iterable[Tuple[int, int]] = (),
        red_edges: Iterable[Tuple[int, int]] = (),
    ):
        self.black: Dict[int, Set[int]] = _adjacency(vertices, black_edges)
        self.red: Dict[int, Set[int]] = _adjacency(self.black, red_edges)
        clash = [v for v in self.black if self.black[v] & self.red[v]]
        if clash:
            raise ValueError("vertex %d has an edge that is both black and red" % min(clash))

    @classmethod
    def _view(cls, g: Graph) -> "Trigraph":
        """g with every edge black, read-only: the black table is g's own
        and every red set is empty, so it costs O(n), and a caller that
        changes it must copy it first."""
        t = cls.__new__(cls)
        t.black, t.red = g.adj, dict.fromkeys(g.adj, frozenset())
        return t

    @classmethod
    def from_graph(cls, g: Graph) -> "Trigraph":
        """g with every edge black, as a copy, in O(n + m)."""
        return cls._view(g).copy()

    @property
    def vertices(self) -> KeysView[int]:
        return self.black.keys()

    @property
    def n(self) -> int:
        return len(self.black)

    def neighbors(self, v: int) -> Set[int]:
        return self.black[v] | self.red[v]

    def copy(self) -> "Trigraph":
        t = Trigraph.__new__(Trigraph)
        t.black = {v: set(s) for v, s in self.black.items()}
        t.red = {v: set(s) for v, s in self.red.items()}
        return t

    def _merge(self, u: int, v: int, z: int) -> "Trigraph":
        """contract in place, for a target z the caller knows to be fresh.

        Only edges at u, v and z change, so a step costs O(deg u + deg v).
        A dead, unknown or repeated vertex is refused before any change.
        Returns the trigraph itself.
        """
        black, red = self.black, self.red
        if u not in black or v not in black:
            raise ValueError("contract on dead or unknown vertex (%s, %s)" % (u, v))
        if u == v:
            raise ValueError("cannot contract a vertex with itself")
        bu, bv, ru, rv = black.pop(u), black.pop(v), red.pop(u), red.pop(v)
        black_z = bu & bv
        red_z = (bu | bv | ru | rv) - black_z
        red_z.discard(u)
        red_z.discard(v)
        for x in black_z:
            bx = black[x]
            bx.discard(u)
            bx.discard(v)
            bx.add(z)
        for x in red_z:
            bx, rx = black[x], red[x]
            bx.discard(u)
            bx.discard(v)
            rx.discard(u)
            rx.discard(v)
            rx.add(z)
        black[z] = black_z
        red[z] = red_z
        return self

    def __repr__(self) -> str:
        nb = sum(len(s) for s in self.black.values()) // 2
        nr = sum(len(s) for s in self.red.values()) // 2
        return "Trigraph(n=%d, black=%d, red=%d)" % (self.n, nb, nr)


def contract(t: Trigraph, u: int, v: int, z: Optional[int] = None) -> Trigraph:
    """Contract vertices u and v of t into the fresh vertex z.

    Neighbours seen by exactly one of u, v become red neighbours of z;
    common neighbours stay black only when both edges were black.  z
    must exceed every live id (default: the next one), so each target
    is the largest id so far and no id ever comes back; the check scans
    the live ids in O(n).  Returns a contracted copy and leaves t as it
    was, a rejected call included.
    """
    live = t.black
    if u in live and v in live and u != v:  # else _merge rejects them
        top = max(live)
        if z is None:
            z = top + 1
        if z <= top:
            raise ValueError("contraction target id %d is not fresh" % z)
    return t.copy()._merge(u, v, z)


def is_module(g: Graph, s: Iterable[int]) -> bool:
    """True when every outside vertex sees all of s or none of s."""
    s = set(s)
    if not s <= g.vertices:
        raise ValueError("module candidate is not a subset of the vertices")
    for w in g.vertices - s:
        inter = g.adj[w] & s
        if inter and inter != s:
            return False
    return True


def validate_partition(ground: Set[int], parts: List[Set[int]]) -> None:
    """Raise ValueError unless parts is a partition of ground into nonempty sets."""
    seen: Set[int] = set()
    for p in parts:
        if not p:
            raise ValueError("empty partition class")
        if seen & p:
            raise ValueError("partition classes overlap")
        seen |= set(p)
    if seen != ground:
        raise ValueError("partition does not cover the ground set")


def quotient(g: Graph, parts: List[Set[int]]) -> Trigraph:
    """quotient_by the classes of a partition; class i becomes vertex i+1."""
    sets = [set(p) for p in parts]
    validate_partition(g.vertices, sets)
    return quotient_by(g, {v: i + 1 for i, p in enumerate(sets) for v in p})


def quotient_by(g: Union[Graph, Trigraph], owner: Dict[int, int]) -> Trigraph:
    """Contract each class of a graph or trigraph g to a point; owner
    sends every vertex to its class's id.  Two classes are joined black
    when every pair between them is black, red when some pair is
    adjacent, not at all otherwise, whatever the contraction order.
    One pass over the edges counts the black links between each pair
    of classes, a red pair being a link that is never black.
    """
    black, red = (g.adj, {}) if isinstance(g, Graph) else (g.black, g.red)
    size = Counter(owner.values())
    links: Dict[Tuple[int, int], int] = {}
    for table, weight in ((black, 1), (red, 0)):
        for u, near in table.items():
            i = owner[u]
            for w in near:
                j = owner[w]
                if i < j:
                    links[i, j] = links.get((i, j), 0) + weight
    black_edges, red_edges = [], []
    for (i, j), cnt in links.items():
        (black_edges if cnt == size[i] * size[j] else red_edges).append((i, j))
    return Trigraph(size, black_edges, red_edges)
