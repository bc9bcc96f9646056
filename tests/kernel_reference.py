"""The three kernels as they were before the one-pass class pruning.

Kept verbatim as the differential reference for twinwidth.kernel: each
kernel walks the trace classes itself and rebuilds the graph with
Graph.without once per deleted vertex.  The class order and the size
accounting are copied here too, so the reference shares none of the
kernel's private helpers.
"""

from typing import FrozenSet, List, Set, Tuple

from twinwidth.kernel import KernelInstance, trivial_no_graph, two_approx_vc
from twinwidth.modular import trace_classes
from twinwidth.oracle import CapacitatedGraph
from twinwidth.trigraph import Graph


def _lex_classes(g: Graph, x: Set[int]):
    classes = trace_classes(g, x)
    return sorted(classes.items(), key=lambda kv: sorted(kv[0]))


def _check_size_accounting(out: Graph, x: Set[int], xs: Set[int], k: int) -> None:
    # post-fixpoint classes touching X^s satisfy |Y_i| <= |X_i| + 1,
    # which bounds their total size quadratically:
    #   q * sum |Y_i||X_i|  >=  (sum |Y_i| - q)^2
    sizes = []
    for key, members in trace_classes(out, x).items():
        x_i = key & xs
        if x_i:
            if len(members) > len(x_i) + 1:
                raise AssertionError("rule 3 fixpoint violated")
            sizes.append((len(members), len(x_i)))
    q = len(sizes)
    if q:
        total = sum(y for y, _ in sizes)
        if q * sum(y * xi for y, xi in sizes) < (total - q) ** 2:
            raise AssertionError("quadratic size bound violated")


def cvc_kernel_quadratic(g: Graph, k: int) -> KernelInstance:
    """Shrink every false-twin class outside X to at most k+1 vertices."""
    x = two_approx_vc(g)
    if len(x) >= 2 * k + 1:
        return KernelInstance(trivial_no_graph(), k, frozenset(), (), trivial_no=True)
    h = g
    trace: List[Tuple[int, int, FrozenSet[int]]] = []
    for key, members in _lex_classes(g, x):
        members = sorted(members)
        while len(members) > k + 1:
            v = members.pop()
            h = h.without({v})
            trace.append((1, v, key))
    return KernelInstance(h, k, frozenset(x), tuple(trace))


def capvc_kernel(cg: CapacitatedGraph, k: int) -> KernelInstance:
    """Capacitated variant: delete cheapest twins, charge their neighbors."""
    g = cg.graph
    x = two_approx_vc(g)
    if len(x) >= 2 * k + 1:
        no = trivial_no_graph()
        return KernelInstance(CapacitatedGraph(no, {v: 0 for v in no.vertices}),
                              k, frozenset(), (), trivial_no=True)
    caps = dict(cg.cap)
    h = g
    trace: List[Tuple[int, int, FrozenSet[int]]] = []
    for key, members in _lex_classes(g, x):
        members = set(members)
        while len(members) > k + 1:
            # minimum current capacity, ties to the largest id
            s = min(members, key=lambda m: (caps[m], -m))
            for nb in h.adj[s]:
                caps[nb] -= 1
            h = h.without({s})
            del caps[s]
            members.remove(s)
            trace.append((2, s, key))
    return KernelInstance(CapacitatedGraph(h, caps), k, frozenset(x), tuple(trace))


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
    out = h
    trace: List[Tuple[int, int, FrozenSet[int]]] = []
    for key, members in _lex_classes(h, x):
        x_i = key & xs
        if not x_i:
            continue
        members = sorted(members)
        while len(members) >= len(x_i) + 2:
            v = members.pop()
            out = out.without({v})
            trace.append((3, v, key))
    _check_size_accounting(out, x, xs, k)
    return KernelInstance(out, k, frozenset(x), tuple(trace))
