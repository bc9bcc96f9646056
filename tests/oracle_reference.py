"""Oracles as they were before their fast rewrites.

Kept verbatim as the differential reference for twinwidth.oracle:

- the vertex-cover oracles before the bitmask rewrite: size-ordered
  subset enumeration over sets with itertools.combinations, with the
  cover test and the recursive depth-first augmenting assignment
  re-run on Graph.edges() for every candidate.  The oracles now search
  only covers, include before exclude, skip covers and sizes whose
  rooms min(max(0, cap), deg) sum below |E|, and assign by
  breadth-first augmenting paths, whose verdict any augmenting-path
  search shares; they must still return these functions' values and
  witness sets, the first hit in combinations order.  Only the size
  check changed with the oracle's: TWW_SIZE_CAP is the one override,
  so neither function takes a per-call cap.
- twinwidth_at_most before the per-state red and full masks: every
  child state is built and then rescanned pair by pair for its red
  degrees.
- twinwidth_at_most_masks, the search with those masks before a child
  state derived them from its parent's: every state rebuilds its red
  and full masks pair by pair from each part's (mask, union of member
  adjacencies, intersection of them), and the search walks on to a
  single part although a state of k parts with k - 1 <= d can no
  longer fail.  The search now must return its witnesses and test as
  many states.

dominating_transversals is no old code but the plain definition that
dominating_transversal searches: every pick of one vertex per part,
kept when it dominates.

The bit tables are copied here from the oracle.  Only the input checks
_check_size and _check_tww_input are shared: TWW_SIZE_CAP is the one
override of every cap, so a reference must accept and refuse exactly
the inputs its oracle does.
"""

import itertools
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from twinwidth.oracle import (SEARCH_CAP, CapacitatedGraph, _check_size,
                              _check_tww_input, is_dominating_set)
from twinwidth.sequence import ContractionSequence
from twinwidth.trigraph import Graph


def _part_tables(order: List[int], g: Graph) -> Dict[int, int]:
    bit = {v: 1 << i for i, v in enumerate(order)}
    return {v: sum(map(bit.__getitem__, g.adj[v])) for v in order}


def twinwidth_at_most(g: Graph, d: int) -> Optional[ContractionSequence]:
    """A witness d-sequence for g, or None when tww(g) > d.

    Search over vertex-partition states (tuples of bitmasks over the
    original vertices) with a failed-state memo.  Candidate merges are
    tried in order of smallest contained vertex, so the returned
    witness is deterministic.
    """
    n = g.n
    _check_tww_input(g)
    if n == 1:
        return ContractionSequence(1, [])

    order = list(range(1, n + 1))
    adjbit = _part_tables(order, g)
    # a part is (mask, union of member adjacencies, intersection of them)
    parts0 = tuple(sorted((1 << i, adjbit[i + 1], adjbit[i + 1]) for i in range(n)))

    def homogeneous(a, b) -> bool:
        return (b[0] & a[1]) == 0 or (b[0] & ~a[2]) == 0

    def red_degree_ok(parts) -> bool:
        k = len(parts)
        deg = [0] * k
        for i in range(k):
            for j in range(i + 1, k):
                if not homogeneous(parts[i], parts[j]):
                    deg[i] += 1
                    deg[j] += 1
                    if deg[i] > d or deg[j] > d:
                        return False
        return True

    failed: Set[Tuple[int, ...]] = set()

    def search(parts) -> Optional[List[Tuple[int, int]]]:
        if len(parts) == 1:
            return []
        key = tuple(p[0] for p in parts)
        if key in failed:
            return None
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                a, b = parts[i], parts[j]
                merged = (a[0] | b[0], a[1] | b[1], a[2] & b[2])
                rest = tuple(p for t, p in enumerate(parts) if t != i and t != j)
                nxt = tuple(sorted(rest + (merged,)))
                if red_degree_ok(nxt):
                    tail = search(nxt)
                    if tail is not None:
                        return [(a[0], b[0])] + tail
        failed.add(key)
        return None

    merges = search(parts0)
    if merges is None:
        return None
    # translate part-mask merges into (z, u, v) steps
    ids = {1 << i: i + 1 for i in range(n)}
    steps = []
    nxt = n + 1
    for ma, mb in merges:
        steps.append((nxt, ids.pop(ma), ids.pop(mb)))
        ids[ma | mb] = nxt
        nxt += 1
    return ContractionSequence(n, steps)


def twinwidth_at_most_masks(g: Graph, d: int) -> Optional[ContractionSequence]:
    """A witness d-sequence for g, or None when tww(g) > d.

    Search over vertex-partition states (tuples of bitmasks over the
    original vertices) with a failed-state memo.  Candidate merges are
    tried in order of smallest contained vertex, so the returned
    witness is deterministic.

    Each state builds, once, two masks over its part indices per part:
    red[i], the parts part i is red to, and full[i], the parts it is
    fully joined to.  Every state on the search path has red degree at
    most d, so a merge of parts i and j is tested from those masks
    alone ("Twin-width I", Bonnet, Kim, Thomassé & Watrigant, FOCS
    2020): the merged part is red to x exactly when x was red to i or
    to j, or x is fully joined to one of them and not adjacent to the
    other.  A part red to i or j loses a red edge and gains at most one,
    so only the newly red parts can rise, and they must not already sit
    at degree d.  That is O(k^2) work per state of k parts and O(1) per
    candidate merge; only the merges that pass build their child state.

    search recurses once per merge, so its depth is below n <= TWW_CAP.
    """
    if d < 0:
        raise ValueError("width bound must be non-negative, got %d" % d)
    n = g.n
    _check_tww_input(g)
    order = list(range(1, n + 1))
    adjbit = _part_tables(order, g)
    # a part is (mask, union of member adjacencies, intersection of them)
    parts0 = tuple(sorted((1 << i, adjbit[i + 1], adjbit[i + 1]) for i in range(n)))

    failed: Set[Tuple[int, ...]] = set()

    def search(parts) -> Optional[List[Tuple[int, int]]]:
        k = len(parts)
        if k == 1:
            return []
        key = tuple(p[0] for p in parts)
        if key in failed:
            return None
        red = [0] * k
        full = [0] * k
        for i, (_, union, inter) in enumerate(parts):
            for j, p in enumerate(parts):
                if p[0] & ~inter == 0:
                    full[i] |= 1 << j
                elif p[0] & union and j != i:
                    red[i] |= 1 << j
        at_cap = sum(1 << i for i in range(k) if red[i].bit_count() == d)
        for i in range(k):
            for j in range(i + 1, k):
                lose = 1 << i | 1 << j
                was = red[i] | red[j]
                gain = (full[i] ^ full[j]) & ~was & ~lose
                if gain & at_cap or ((was | gain) & ~lose).bit_count() > d:
                    continue
                a, b = parts[i], parts[j]
                merged = (a[0] | b[0], a[1] | b[1], a[2] & b[2])
                rest = tuple(p for t, p in enumerate(parts) if t != i and t != j)
                tail = search(tuple(sorted(rest + (merged,))))
                if tail is not None:
                    return [(a[0], b[0])] + tail
        failed.add(key)
        return None

    merges = search(parts0)
    if merges is None:
        return None
    # translate part-mask merges into (z, u, v) steps
    ids = {1 << i: i + 1 for i in range(n)}
    steps = []
    nxt = n + 1
    for ma, mb in merges:
        steps.append((nxt, ids.pop(ma), ids.pop(mb)))
        ids[ma | mb] = nxt
        nxt += 1
    return ContractionSequence(n, steps)


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

    Kuhn-style augmenting assignment, recursive and depth first: the
    oracle's breadth-first one must give the same verdict.  Negative
    capacities (legal bookkeeping in the kernel rules) count as zero.
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


def dominating_transversals(g: Graph, parts) -> List[FrozenSet[int]]:
    """Every dominating set with exactly one vertex in every part."""
    return [frozenset(pick) for pick in itertools.product(*(sorted(p) for p in parts))
            if is_dominating_set(g, pick)]
