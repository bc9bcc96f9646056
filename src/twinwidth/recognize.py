"""Recognition of twin-width 0 and twin-width at most 1.

Width 0 is the cograph case: walk down the series and parallel splits
(co-components and components) and fail as soon as a level has both
the graph and its complement connected, before any maximal proper
module is built (Corneil, Perl & Stewart, 1985).  Width 1 walks the
maximal modular partitions (width composes over modules with the
quotient) and handles the prime quotients with a deterministic
driver: guess the first contraction among pairs creating exactly one
red edge, then repeatedly either perform a safe contraction (one that
results in the trigraph minus a vertex) or contract the unique red
edge.  A prime graph of width 1 keeps exactly one red edge in every
intermediate trigraph, so the driver never needs to branch after the
initial guess.  Every red edge ends at z, the vertex the last step
created: the guess makes red edges only at its z, and each later step
merges an endpoint of the lone red edge, which leaves every edge away
from the new vertex black.  So the driver reads the red edge from z's
red set alone, and hands it to safe_contractions.

Plans are built as (label, label) merge pairs, where a bag is labelled
by its smallest original vertex, and ContractionSequence.from_merges
numbers their fresh ids at the end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Tuple

from .trigraph import Graph, InternalError, Trigraph, contract
from .sequence import ContractionSequence, replay
from .modular import maximal_modular_partition, series_parallel_split


@dataclass(frozen=True)
class RecognitionResult:
    verdict: str  # "tww0" | "above0" | "tww1" | "above1"
    witness: Optional[ContractionSequence] = None


Plan = List[Tuple[int, int]]


def _plan(g: Graph, prime: Optional[Callable[[Graph], Optional[Plan]]]) -> Optional[Plan]:
    """Merge pairs for g along its maximal modular partitions, or None.

    Series and parallel levels chain their modules; prime(h) plans each
    prime quotient h or returns None.  A quotient is the subgraph
    induced on the modules' least members, as adjacency between modules
    is uniform.  prime=None plans width 0: each level asks only for its
    series/parallel split, and a level without one fails at once.  The
    modules wait on one stack, each induced from g when its turn comes,
    and the last child goes first: read back in reverse, the saved plans
    put every module's pairs before its parent's quotient.  A level's
    quotient is planned before its modules, so a level that fails stops
    the walk there.
    """
    if g.n == 1:
        return []
    saved = []
    todo: List[Optional[FrozenSet[int]]] = [None]  # None: g itself, not induced
    while todo:
        part = todo.pop()
        h = g if part is None else g.induced(part)
        mp = series_parallel_split(h) if prime is None else maximal_modular_partition(h)
        if mp is None:
            return None
        reps = [min(p) for p in mp.parts]
        if mp.kind == "maximal":
            top = prime(h if mp.is_trivial else h.induced(reps))
        else:
            # reps come sorted; the accumulating bag keeps the smallest label
            top = [(reps[0], r) for r in reps[1:]]
        if top is None:
            return None
        saved.append(top)
        todo += [p for p in mp.parts if len(p) > 1]
    return [pair for top in reversed(saved) for pair in top]


def recognize_tww0(g: Graph) -> RecognitionResult:
    """Cograph test with a 0-sequence witness; g must be on 1..n.  A
    prime graph (four or more vertices) has width at least 1."""
    if g.n == 0:
        raise ValueError("recognition needs at least one vertex")
    if g.vertices != set(range(1, g.n + 1)):
        raise ValueError("recognition needs vertices 1..n; relabel first")
    pairs = _plan(g, None)
    if pairs is None:
        return RecognitionResult("above0")
    return RecognitionResult("tww0", ContractionSequence.from_merges(g.n, pairs))


def safe_contractions(t: Trigraph, edge: Tuple[int, int]) -> List[Tuple[int, int]]:
    """Pairs (w, red endpoint) whose contraction just deletes w.

    edge is t's one red edge, its ends in either order; an O(1) guard
    raises ValueError unless the ends are each other's only red
    neighbour.  A contraction is safe when the result coincides with the
    induced subtrigraph on V minus w, the merged vertex playing the
    endpoint's role.
    """
    x, z = edge
    if t.red.get(x) != {z} or t.red.get(z) != {x}:
        raise ValueError("safe contractions are defined for exactly one red edge")
    # a partner p's black set and reach N(p) | {p}, once per call
    tables = [(p, t.black[p], t.neighbors(p) | {p}) for p in sorted(edge)]
    out = []
    for w in sorted(t.black.keys() - {x, z}):
        # the merged vertex keeps the partner's edges and colours exactly
        # when w sees every black neighbour of the partner but w black,
        # and brings no neighbour of its own; w has no red edge
        bw = t.black[w]
        for p, bp, reach in tables:
            if len(bp - bw) <= (w in bp) and bw <= reach:
                out.append((w, p))
    return out


def _drive(t0: Trigraph, u: int, v: int) -> Optional[Plan]:
    """Extend the guessed first contraction of a prime graph to the end."""
    pairs = [(u, v)]
    # t0 serves every guess, so the first step copies it; the rest
    # merge that copy in place, each into the next fresh id
    z = max(t0.black) + 1
    t = contract(t0, u, v, z)
    label = {z: min(u, v)}  # merged bags only: a vertex is its own label
    while len(t.black) > 1:
        reds = t.red[z]  # every red edge ends at z (module docstring)
        if len(reds) != 1:
            return None
        safe = safe_contractions(t, (*reds, z))
        w, partner = safe[0] if safe else (*reds, z)
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


def recognize_tww1(g: Graph) -> RecognitionResult:
    """Width-at-most-1 test on 1..n; reports tww0 for a cograph.

    The width-0 walk runs first and builds no maximal proper module, so
    the width-1 walk that follows a failed one repeats only the cheap
    split tests of the levels above the first prime one.
    """
    zero = recognize_tww0(g)
    if zero.verdict == "tww0":
        return zero
    pairs = _plan(g, _plan_prime)
    if pairs is None:
        return RecognitionResult("above1")
    seq = ContractionSequence.from_merges(g.n, pairs)
    for t in replay(g, seq):
        if sum(len(s) for s in t.red.values()) > 2:
            raise InternalError("recognition produced a bad witness")
    return RecognitionResult("tww1", seq)