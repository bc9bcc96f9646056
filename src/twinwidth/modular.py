"""Maximal modular partitions and trace classes.

A module of G is a vertex set whose members are indistinguishable from
outside: every other vertex sees all of it or none of it.  For a graph
with at least two vertices the maximal modular partition is

  * the connected components, when G is disconnected,
  * the co-components, when the complement is disconnected,
  * the maximal proper modules, when both are connected; in that case
    the quotient is prime (only trivial modules) and all-red edges play
    no role since distinct maximal modules see each other homogeneously.

series_parallel_split gives the first two cases alone, which is all a
cograph test needs.

When G and its complement are both connected, a module other than V lies
in exactly one maximal proper module, and these partition V (Gallai).
They are found in two steps, after Ehrenfeucht, Gabow, McConnell &
Sullivan, "An O(n^2) divide-and-conquer algorithm for the prime tree
decomposition of two-structures and modular decomposition of graphs"
(J. Algorithms, 1994); see also Habib & Paul, "A survey of the
algorithmic aspects of modular decomposition" (2010).

  1. M(G, v), the maximal modules that avoid the least vertex v, by
     partition refinement: start from N(v) and the rest of V - {v}; a
     pivot x splits every part without x by N(x), and the vertices of a
     part that splits are pivots again.  Every split is forced, since a
     module avoiding v never straddles N(x) for an x outside it, and
     the stable partition has only modules as parts.
  2. v's class from the forcing digraph on those parts: X -> Y when Y
     holds a vertex telling some x in X from v (a vertex of
     N(x) ^ N(v) - {x, v}), so any module with v and x holds Y too.
     Each maximal proper module other than v's is a part of M(G, v)
     that forces the whole graph, for a module meeting two classes is
     V; a part inside v's class only forces parts inside it.  So the
     parts that reach every part form the source strong component, each
     of them is a class, and v's class is v with all the other parts.

Parts are modules, so the relation of a part to the rest is that of its
least member, and whether X -> Y holds reads off the quotient: Y
separates X from v.  trigraph._reach searches it along arcs made on
demand, so both steps need O(n + m) memory.

Width composes over this partition: the width of G is the larger of the
quotient's width and the worst width among the parts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .trigraph import Graph, InternalError, _reach, is_module


@dataclass(frozen=True)
class ModularPartition:
    parts: Tuple[FrozenSet[int], ...]
    kind: str  # "components" | "cocomponents" | "maximal"

    @property
    def is_trivial(self) -> bool:
        """All classes are singletons (the graph is prime or too small)."""
        return all(len(p) == 1 for p in self.parts)


def _modules_avoiding(g: Graph, v: int) -> List[Set[int]]:
    """M(G, v): the maximal modules of g that avoid v, by refinement."""
    near = g.adj[v]
    parts = [p for p in (set(near), g.vertices - near - {v}) if p]
    owner = {x: i for i, p in enumerate(parts) for x in p}
    # the walk reads the list in order while appending to it: a queue
    queue = sorted(owner)
    queued = set(owner)
    for x in queue:
        queued.discard(x)
        home = owner[x]
        met: Dict[int, Set[int]] = {}
        for y in g.adj[x]:
            i = owner.get(y, home)  # v has no part
            if i != home:
                met.setdefault(i, set()).add(y)
        for i, inside in met.items():
            part = parts[i]
            if len(inside) == len(part):
                continue
            part -= inside
            for y in inside:
                owner[y] = len(parts)
            parts.append(inside)
            for y in itertools.chain(part, inside):
                if y not in queued:
                    queued.add(y)
                    queue.append(y)
    return parts


def _classes(g: Graph, v: int, parts: List[Set[int]]) -> List[Set[int]]:
    """The maximal proper modules, v's last, from the forcing digraph."""
    k = len(parts)
    owner = {x: i for i, p in enumerate(parts) for x in p}
    # part i is linked to part j when its least member sees j's
    link = [{owner[y] for y in g.adj[min(p)] if y != v} for p in parts]
    by_v = {owner[y] for y in g.adj[v]}

    def forced(i: int) -> Set[int]:
        # the parts that tell part i from v
        return (link[i] ^ by_v) - {i}

    def forcing(j: int) -> Set[int]:
        # the parts that part j tells from v; links are symmetric
        return (set(range(k)) - link[j] if j in by_v else link[j]) - {j}

    # a part that reaches every part is the last search root (part 0
    # when it does); the parts reaching that root are the source component
    seen: Set[int] = set()
    root = 0
    for i in range(k):
        if i not in seen:
            root = i
            _reach(i, forced, seen)
    if root and len(_reach(root, forced, set())) < k:
        raise InternalError("no part forces the whole graph")
    source = _reach(root, forcing, set())
    classes = [parts[i] for i in sorted(source)]
    classes.append({v}.union(*(parts[i] for i in range(k) if i not in source)))
    return classes


def series_parallel_split(g: Graph) -> Optional[ModularPartition]:
    """The components of g, else its co-components, else None.

    A parallel level splits into components and a series level into
    co-components; None means g and its complement are both connected,
    so the maximal modular partition is made of the maximal proper
    modules.  Cographs are exactly the graphs whose every induced
    subgraph on two or more vertices splits (Corneil, Perl & Stewart,
    "A linear recognition algorithm for cographs", SIAM J. Comput.
    1985).
    """
    if g.n <= 1:
        raise ValueError("modular partition needs at least two vertices")
    comps = g.components()
    if len(comps) > 1:
        return ModularPartition(tuple(map(frozenset, comps)), "components")
    cocomps = g.complement().components()
    if len(cocomps) > 1:
        return ModularPartition(tuple(map(frozenset, cocomps)), "cocomponents")
    return None


def maximal_modular_partition(g: Graph) -> ModularPartition:
    split = series_parallel_split(g)
    if split is not None:
        return split

    # both connected: refine the modules avoiding v, then find v's class
    v = min(g.vertices)
    covered: Set[int] = set()
    classes = _classes(g, v, _modules_avoiding(g, v))
    for m in classes:
        # a single vertex is always a module
        if len(m) > 1 and not is_module(g, m):
            raise InternalError("grown set is not a module")
        if m & covered:
            raise InternalError("maximal modules overlapped")
        covered |= m
    if covered != g.vertices:
        raise InternalError("maximal modules do not cover the graph")
    parts = tuple(frozenset(p) for p in sorted(classes, key=min))
    return ModularPartition(parts, "maximal")


def trace_classes(g: Graph, x: Set[int]) -> Dict[FrozenSet[int], List[int]]:
    """Group the vertices outside x by their neighbourhood inside x.

    Returned keys are trace sets (frozen subsets of x), values sorted
    vertex lists.  Vertices with empty trace are included under
    frozenset().
    """
    if not x <= g.vertices:
        raise ValueError("trace base is not a subset of the vertices")
    out: Dict[FrozenSet[int], List[int]] = {}
    for v in sorted(g.vertices - x):
        key = frozenset(g.adj[v] & x)
        out.setdefault(key, []).append(v)
    return out
