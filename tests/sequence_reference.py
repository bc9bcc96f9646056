"""The replay as it was before walk skipped the freshness scan.

Kept as the differential reference for twinwidth.trigraph and
twinwidth.sequence: the start trigraph is built from the sorted edge
list, every step goes through the checked in-place contraction
contract_inplace below (which scans the live ids for freshness, as
trigraph.contract does before it copies), the width is a from-scratch
maximum over every replayed state, and the final trigraph is the last
state of a walk rather than a quotient by the bags.

final_bags is the forward union ContractionSequence had before owners
read a sequence's end backwards: each step's bag is the union of its
two parts' bags, so a growing bag costs O(n^2) over the sequence.
"""

from typing import Dict, FrozenSet, Iterator, List, Optional, Union

from twinwidth.sequence import ContractionSequence, WidthReport
from twinwidth.trigraph import Graph, Trigraph


def final_bags(seq: ContractionSequence) -> Dict[int, FrozenSet[int]]:
    """Original vertices behind each vertex left after the steps."""
    bags = {v: frozenset([v]) for v in range(1, seq.n + 1)}
    for z, u, v in seq.steps:
        bags[z] = bags.pop(u) | bags.pop(v)
    return bags


def from_graph(g: Graph) -> Trigraph:
    """g as a trigraph, every edge pushed through the checked constructor."""
    return Trigraph(g.vertices, g.edges())


def contract_inplace(t: Trigraph, u: int, v: int, z: Optional[int] = None) -> Trigraph:
    """Contract u and v of t into the fresh vertex z, in place, after
    checking that z exceeds every live id; returns t."""
    vertices = t.vertices
    if u in vertices and v in vertices and u != v:  # else _merge rejects them
        top = max(vertices)
        if z is None:
            z = top + 1
        if z <= top:
            raise ValueError("contraction target id %d is not fresh" % z)
    return t._merge(u, v, z)


def walk(g: Union[Graph, Trigraph], seq: ContractionSequence) -> Iterator[Trigraph]:
    """The start, then the state after each step, every step checked."""
    t = g if isinstance(g, Trigraph) else from_graph(g)
    yield t
    t = t.copy()
    for z, u, v in seq.steps:
        yield contract_inplace(t, u, v, z)


def verify(g: Union[Graph, Trigraph], seq: ContractionSequence,
           bound: Optional[int] = None) -> WidthReport:
    """Width, first step attaining it and first violation, read off
    copies of all states by scanning every vertex in sorted order."""
    states: List[Trigraph] = [t.copy() for t in walk(g, seq)]
    width, argmax, violation = 0, -1, None
    for step, t in enumerate(states, start=-1):
        for x in sorted(t.vertices):
            d = len(t.red[x])
            if d > width:
                width, argmax = d, step
            if bound is not None and d > bound and violation is None:
                violation = (step, x, d)
    return WidthReport(width, argmax, violation)


def final_trigraph(g: Union[Graph, Trigraph], seq: ContractionSequence) -> Trigraph:
    """The last state of the walk, copied when it is the start itself."""
    for t in walk(g, seq):
        pass
    return t.copy() if t is g else t
