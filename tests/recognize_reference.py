"""The recognition walk as it was before width 0 asked only for the
series/parallel splits.

Kept verbatim but for its names as the differential reference for
twinwidth.recognize: every level, width 0 included, computes the full
maximal modular partition, and width 0 fails at the first level whose
partition is made of maximal proper modules, once its prime callback
returns None.  Width 1 reuses the package's prime-graph planner, which
this change left as it was.
"""

import itertools
from typing import Callable, Optional

from twinwidth.modular import maximal_modular_partition
from twinwidth.recognize import Plan, RecognitionResult, _plan_prime
from twinwidth.sequence import ContractionSequence, replay
from twinwidth.trigraph import Graph


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
            edges = [(a, b) for a, b in itertools.combinations(reps, 2) if g.has_edge(a, b)]
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
        if len(t.red_edges()) > 1:
            raise AssertionError("recognition produced a bad witness")
    return RecognitionResult("tww1", seq)
