"""The vertex-cover oracles as they were before the bitmask rewrite.

Kept verbatim as the differential reference for twinwidth.oracle:
size-ordered subset enumeration over sets, with the cover test and the
augmenting assignment re-run on Graph.edges() for every candidate.
Only the size check changed with the oracle's: TWW_SIZE_CAP is the
one override, so neither function takes a per-call cap.
"""

import itertools
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from twinwidth.oracle import SEARCH_CAP, CapacitatedGraph, _check_size
from twinwidth.trigraph import Graph


def is_vertex_cover(g: Graph, s) -> bool:
    s = set(s)
    return all(u in s or v in s for u, v in g.edges())


def min_connected_vertex_cover(g: Graph) -> Optional[Tuple[int, FrozenSet[int]]]:
    """Optimum connected vertex cover, or None when none exists.

    Infeasible exactly when at least two components contain edges: a
    connected cover cannot straddle components.  Isolated vertices are
    ignored.  Size-ordered subset enumeration; fine at desk scale.
    """
    _check_size(g, SEARCH_CAP, "search")
    edgeful = [c for c in g.components() if any(g.adj[v] & c for v in c)]
    if len(edgeful) > 1:
        return None
    if not edgeful:
        return 0, frozenset()
    comp = sorted(edgeful[0])
    sub = g.induced(comp)

    def connected(s: Set[int]) -> bool:
        start = next(iter(s))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in sub.adj[x] & s:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen == s

    for k in range(1, len(comp) + 1):
        for combo in itertools.combinations(comp, k):
            s = set(combo)
            if is_vertex_cover(sub, s) and connected(s):
                return k, frozenset(s)
    raise AssertionError("unreachable: the whole component is a connected cover")


def capacitated_vc_feasible(cg: CapacitatedGraph, x) -> bool:
    """Can every edge be assigned to a covering endpoint within capacity?

    Kuhn-style augmenting assignment; negative capacities (legal
    bookkeeping in the kernel rules) count as zero.
    """
    x = set(x)
    g = cg.graph
    edges = list(g.edges())
    for u, v in edges:
        if u not in x and v not in x:
            return False
    cap = {v: max(0, cg.cap[v]) for v in x}
    load: Dict[int, List[Tuple[int, int]]] = {v: [] for v in x}

    def augment(e: Tuple[int, int], visited: Set[int]) -> bool:
        for w in sorted(set(e) & x):
            if w in visited:
                continue
            visited.add(w)
            if len(load[w]) < cap[w]:
                load[w].append(e)
                return True
            for i, e2 in enumerate(load[w]):
                if augment(e2, visited):
                    load[w][i] = e
                    return True
        return False

    for e in edges:
        if not augment(e, set()):
            return False
    return True


def min_capacitated_vc(cg: CapacitatedGraph, k: Optional[int] = None) -> Optional[FrozenSet[int]]:
    """Smallest capacitated vertex cover of size at most k, or None.

    k = None searches all sizes, so the result (if any) is a true
    minimum.
    """
    g = cg.graph
    _check_size(g, SEARCH_CAP, "search")
    hi = g.n if k is None else min(k, g.n)
    order = sorted(g.vertices)
    for size in range(0, hi + 1):
        for combo in itertools.combinations(order, size):
            if capacitated_vc_feasible(cg, combo):
                return frozenset(combo)
    return None
