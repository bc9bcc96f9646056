"""The recognition walk as it was before width 0 asked only for the
series/parallel splits.

Kept verbatim but for its names as the differential reference for
twinwidth.recognize: every level, width 0 included, computes the full
maximal modular partition, and width 0 fails at the first level whose
partition is made of maximal proper modules, once its prime callback
returns None.  Width 1 plans prime graphs with _plan_prime and _drive
as they were before the driver read its red edge from the vertex each
step creates: every step finds the lone red edge by scanning every red
set with lone_red_edge, the method Trigraph had then, and asks this
file's safe_contractions for the safe pairs.

safe_contractions is the scan as it was before it built each partner's
black set and reach once per call: it tests every pair (w, partner)
with _contraction_is_deletion, two set differences per test.
"""

import itertools
from typing import Callable, List, Optional, Tuple

from twinwidth.modular import maximal_modular_partition
from twinwidth.recognize import Plan, RecognitionResult
from twinwidth.sequence import ContractionSequence, replay
from twinwidth.trigraph import Graph, Trigraph, contract

from trigraph_reference import edge_list


def plan(g: Graph, prime: Callable[[Graph], Optional[Plan]]) -> Optional[Plan]:
    """Merge pairs for g along its maximal modular partitions, or None."""
    if g.n == 1:
        return []
    saved = []
    todo = [g.vertices]
    while todo:
        part = todo.pop()
        h = g if part is g.vertices else g.induced(part)
        mp = maximal_modular_partition(h)
        reps = [min(p) for p in mp.parts]
        if mp.kind == "maximal" and mp.is_trivial:
            top = prime(h)
        elif mp.kind == "maximal":
            # adjacency between modules is uniform, so any representatives carry it
            edges = [(a, b) for a, b in itertools.combinations(reps, 2) if b in g.adj[a]]
            top = prime(Graph(reps, edges))
        else:
            # reps come sorted; the accumulating bag keeps the smallest label
            top = [(reps[0], r) for r in reps[1:]]
        if top is None:
            return None
        saved.append(top)
        todo += [p for p in mp.parts if len(p) > 1]
    return [pair for top in reversed(saved) for pair in top]


def recognize_tww0(g: Graph) -> RecognitionResult:
    if g.n == 0:
        raise ValueError("recognition needs at least one vertex")
    if g.vertices != set(range(1, g.n + 1)):
        raise ValueError("recognition needs vertices 1..n; relabel first")
    pairs = plan(g, lambda h: None)
    if pairs is None:
        return RecognitionResult("above0")
    return RecognitionResult("tww0", ContractionSequence.from_merges(g.n, pairs))


def recognize_tww1(g: Graph) -> RecognitionResult:
    zero = recognize_tww0(g)
    if zero.verdict == "tww0":
        return zero
    pairs = plan(g, _plan_prime)
    if pairs is None:
        return RecognitionResult("above1")
    seq = ContractionSequence.from_merges(g.n, pairs)
    for t in replay(g, seq):
        if len(edge_list(t.red)) > 1:
            raise AssertionError("recognition produced a bad witness")
    return RecognitionResult("tww1", seq)


def _drive(t0: Trigraph, u: int, v: int) -> Optional[Plan]:
    """Extend the guessed first contraction of a prime graph to the end."""
    pairs = [(u, v)]
    # t0 serves every guess, so the first step copies it; the rest
    # merge that copy in place, each into the next fresh id
    z = max(t0.vertices) + 1
    t = contract(t0, u, v, z)
    label = {z: min(u, v)}  # merged bags only: a vertex is its own label
    while len(t.vertices) > 1:
        edge = lone_red_edge(t)
        if edge is None:
            return None
        safe = safe_contractions(t)
        w, partner = safe[0] if safe else edge
        z += 1
        t._merge(w, partner, z)
        pairs.append((label.get(w, w), label.get(partner, partner)))
        label[z] = min(pairs[-1])
    return pairs


def _plan_prime(h: Graph) -> Optional[Plan]:
    """1-sequence plan for a prime graph (at least four vertices), or None."""
    verts = sorted(h.vertices)
    t0 = Trigraph._view(h)  # read-only: each guess's first contract copies it
    for u, v in itertools.combinations(verts, 2):
        # u and v sit in each other's neighbourhoods exactly when adjacent
        if len(h.adj[u] ^ h.adj[v]) - (2 if v in h.adj[u] else 0) != 1:
            continue
        pairs = _drive(t0, u, v)
        if pairs is not None:
            return pairs
    return None


def lone_red_edge(t: Trigraph) -> Optional[Tuple[int, int]]:
    """The only red edge, smaller endpoint first, or None when there
    is none or there are several; no set is sorted, and the scan
    stops at the second red edge it meets."""
    edge = None
    for u, near in t.red.items():
        if not near:
            continue
        if len(near) > 1:
            return None
        (v,) = near
        found = (u, v) if u < v else (v, u)
        if edge is None:
            edge = found
        elif found != edge:
            return None
    return edge


def safe_contractions(t: Trigraph) -> List[Tuple[int, int]]:
    """Pairs (w, red endpoint) whose contraction just deletes w.

    t must have exactly one red edge.  A contraction is safe when the
    result coincides with the induced subtrigraph on V minus w, the
    merged vertex playing the endpoint's role.
    """
    edge = lone_red_edge(t)
    if edge is None:
        raise ValueError("safe contractions are defined for exactly one red edge")
    a, b = edge
    out = []
    for w in sorted(t.vertices - {a, b}):
        for partner in (a, b):
            if _contraction_is_deletion(t, w, partner):
                out.append((w, partner))
    return out


def _contraction_is_deletion(t: Trigraph, w: int, partner: int) -> bool:
    # the merged vertex keeps the partner's edges and colours exactly
    # when w sees every black neighbour of the partner black and brings
    # no neighbour of its own
    return (t.black[partner] - {w} <= t.black[w]
            and t.neighbors(w) - {partner} <= t.neighbors(partner))
