"""Kernelization for Connected k-Vertex Cover and Capacitated k-Vertex Cover.

All rules work relative to a 2-approximate vertex cover X (both
endpoints of a greedy maximal matching) computed once.  Vertices
outside X form an independent set, so grouping them by neighborhood in
X (their trace) yields classes of false twins, and each rule deletes
from oversized classes:

  rule 1: any class larger than k+1 loses vertices down to k+1.
  rule 2: capacitated variant; the deleted vertex is one of minimum
          capacity and its neighbors each lose one capacity unit
          (possibly going negative, which feasibility reads as zero).
  rule 3: with X split into high-degree X^b (more than k neighbors
          outside X) and the rest X^s, a class Y_i whose trace meets
          X^s in X_i != empty shrinks to |X_i| + 1.

The three rules are one pass over the classes (_prune): each class keeps
limit(trace) members and the surplus of all classes is deleted in one
batch.  That is exact because the vertices outside X are independent:
deleting one changes no other outside vertex's neighborhood, trace or
capacity (only X is charged), so every deletion order is fixed up front.

Budgets are never modified.  A graph whose cover must already exceed k
(|X| >= 2k+1), or a disconnected input to the improved kernel, is
replaced by a canonical constant-size no-instance: two disjoint edges,
which admit no connected cover and, with zero capacities, no
capacitated cover either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple, Union

from .trigraph import Graph, InternalError
from .modular import trace_classes
from .oracle import CapacitatedGraph


@dataclass(frozen=True)
class KernelInstance:
    graph: Union[Graph, CapacitatedGraph]
    k: int
    vc: FrozenSet[int]
    trace: Tuple[Tuple[int, int, FrozenSet[int]], ...]  # (rule, vertex, class trace)
    trivial_no: bool = False


def trivial_no_graph() -> Graph:
    return Graph([1, 2, 3, 4], [(1, 2), (3, 4)])


def two_approx_vc(g: Graph) -> Set[int]:
    """Endpoints of a greedy maximal matching: a cover within twice optimum."""
    matched: Set[int] = set()
    for u, v in g.edges():
        if u not in matched and v not in matched:
            matched |= {u, v}
    return matched


def _lex_classes(g: Graph, x: Set[int]):
    classes = trace_classes(g, x)
    return sorted(classes.items(), key=lambda kv: sorted(kv[0]))


def _prune(g: Graph, x: Set[int], rule: int, limit: Callable[[FrozenSet[int]], int],
           caps: Optional[Dict[int, int]] = None) -> Tuple[Graph, Tuple]:
    """Trim every trace class outside x to limit(trace) members.

    Rules 1 and 3 delete the largest ids first.  Rule 2 (caps given)
    deletes the smallest (capacity, -id) first and charges each deleted
    vertex's neighbors one unit in caps, which it updates in place.
    Returns the graph without the deleted vertices and the rule trace.
    """
    drop: List[int] = []
    trace: List[Tuple[int, int, FrozenSet[int]]] = []
    for key, members in _lex_classes(g, x):
        surplus = len(members) - limit(key)
        if surplus <= 0:
            continue
        if caps is None:
            doomed = sorted(members, reverse=True)[:surplus]
        else:
            doomed = sorted(members, key=lambda m: (caps[m], -m))[:surplus]
            for s in doomed:
                for nb in g.adj[s]:
                    caps[nb] -= 1
                del caps[s]
        drop += doomed
        trace += [(rule, v, key) for v in doomed]
    return (g.without(drop) if drop else g), tuple(trace)


def cvc_kernel_quadratic(g: Graph, k: int) -> KernelInstance:
    """Shrink every false-twin class outside X to at most k+1 vertices."""
    x = two_approx_vc(g)
    if len(x) >= 2 * k + 1:
        return KernelInstance(trivial_no_graph(), k, frozenset(), (), trivial_no=True)
    h, trace = _prune(g, x, 1, lambda key: k + 1)
    return KernelInstance(h, k, frozenset(x), trace)


def capvc_kernel(cg: CapacitatedGraph, k: int) -> KernelInstance:
    """Capacitated variant: delete cheapest twins, charge their neighbors."""
    g = cg.graph
    x = two_approx_vc(g)
    if len(x) >= 2 * k + 1:
        no = trivial_no_graph()
        return KernelInstance(CapacitatedGraph(no, {v: 0 for v in no.vertices}),
                              k, frozenset(), (), trivial_no=True)
    caps = dict(cg.cap)
    h, trace = _prune(g, x, 2, lambda key: k + 1, caps)
    return KernelInstance(CapacitatedGraph(h, caps), k, frozenset(x), trace)


def cvc_kernel_improved(g: Graph, k: int) -> KernelInstance:
    """Class sizes tied to the small-degree side of X instead of k.

    Isolated vertices are stripped first; a disconnected remainder has
    no connected cover at all and collapses to the canonical
    no-instance.
    """
    isolated = {v for v in g.vertices if not g.adj[v]}
    h = g.without(isolated)
    if h.n == 0:
        return KernelInstance(h, k, frozenset(), ())
    if not h.is_connected():
        return KernelInstance(trivial_no_graph(), k, frozenset(), (), trivial_no=True)
    x = two_approx_vc(h)
    if len(x) >= 2 * k + 1:
        return KernelInstance(trivial_no_graph(), k, frozenset(), (), trivial_no=True)
    xb = {v for v in x if len(h.adj[v] - x) >= k + 1}
    xs = x - xb
    # classes whose trace misses X^s are never trimmed: no class exceeds h.n
    out, trace = _prune(h, x, 3, lambda key: len(key & xs) + 1 if key & xs else h.n)
    _check_size_accounting(out, x, xs, k)
    return KernelInstance(out, k, frozenset(x), trace)


def _check_size_accounting(out: Graph, x: Set[int], xs: Set[int], k: int) -> None:
    # post-fixpoint classes touching X^s satisfy |Y_i| <= |X_i| + 1,
    # which bounds their total size quadratically:
    #   q * sum |Y_i||X_i|  >=  (sum |Y_i| - q)^2
    sizes = []
    for key, members in trace_classes(out, x).items():
        x_i = key & xs
        if x_i:
            if len(members) > len(x_i) + 1:
                raise InternalError("rule 3 fixpoint violated")
            sizes.append((len(members), len(x_i)))
    q = len(sizes)
    if q:
        total = sum(y for y, _ in sizes)
        if q * sum(y * xi for y, xi in sizes) < (total - q) ** 2:
            raise InternalError("quadratic size bound violated")