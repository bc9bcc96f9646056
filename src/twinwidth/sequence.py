"""Contraction sequences and their verification.

A sequence for an n-vertex graph lists steps (z, u, v): contract the
live vertices u and v into the fresh vertex z.  Every sequence starts
from the original graph on 1..n and fresh ids continue the numbering,
so step i (0-based) creates z = n + i + 1, larger than every id before
it.  A full sequence has n - 1 steps and ends in a single vertex;
shorter sequences are partial and are the currency of the composition
machinery, which reads where each original vertex ends off the steps
(owners) instead of replaying them.

Builders do not number fresh ids themselves: they list merges of bags
named by labels, and from_merges numbers the steps.  A label is a
vertex a bag started from; a merged bag keeps the smaller of its two
labels, and a label never merged is its own vertex.  A bag's label is
therefore its smallest original vertex.  merges() is the inverse, so
this module numbers the fresh ids of every witness the package builds.
The exact oracle alone numbers its own, to stay independent of the code
it checks.

walk() is the single replay loop: replay, verify and the dynamic
programming read their states from it.  It copies the start once, at
the first step (a Graph start is a view of the graph, not a copy), and
contracts that private copy in place from then on, so a walk costs one
copy and each step costs O(deg u + deg v), with no scan of the live
ids for freshness.  A state it yields is valid until the next one is
requested; replay keeps a copy of each.

final_trigraph() does not walk: contracting the bags of a partition P,
in any order, yields the quotient by P, where two bags are joined black
when every pair between them is, red when some pair is adjacent, and
not at all otherwise ("Twin-width I", Bonnet, Kim, Thomassé and
Watrigant, FOCS 2020; by induction, for a trigraph start too).

verify() reports the maximum red degree seen in any intermediate
trigraph (the width of the sequence), together with the first step
attaining it and, when a bound is given, the first violating (step,
vertex, degree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from .trigraph import Graph, Trigraph, contract, quotient_by


@dataclass(frozen=True)
class ContractionSequence:
    """Steps (z, u, v) over a graph whose original vertices are 1..n.

    Step i creates z = n + i + 1 from two ids below z that no earlier
    step retired: since the start is 1..n, that is exactly the live
    set, so a validated sequence never names a dead or unknown id.
    """

    n: int
    steps: Tuple[Tuple[int, int, int], ...]

    def __init__(self, n: int, steps):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "steps", tuple((z, u, v) for z, u, v in steps))
        self._validate()

    def _validate(self) -> None:
        if self.n < 1:
            raise ValueError("sequence needs at least one vertex")
        if len(self.steps) > self.n - 1:
            raise ValueError("more steps than a full sequence allows")
        retired = set()
        for i, (z, u, v) in enumerate(self.steps):
            expect = self.n + i + 1
            if z != expect:
                raise ValueError("step %d creates %d, expected fresh id %d" % (i, z, expect))
            if u == v or u in retired or v in retired or not 1 <= u < z or not 1 <= v < z:
                raise ValueError("step %d contracts (%d, %d) which are not two live vertices" % (i, u, v))
            retired |= {u, v}

    @classmethod
    def from_merges(cls, n: int, pairs) -> "ContractionSequence":
        """Number the merges (a, b) of bags labelled a and b as steps.

        A dead or repeated label yields a retired id, which the step
        validation rejects.
        """
        cur: Dict[int, int] = {}  # label of a merged bag -> its vertex
        steps = []
        for z, (a, b) in enumerate(pairs, start=n + 1):
            steps.append((z, cur.pop(a, a), cur.pop(b, b)))
            cur[min(a, b)] = z
        return cls(n, steps)

    def merges(self) -> List[Tuple[int, int]]:
        """The steps as label merges, the inverse of from_merges.

        A label is the smallest original vertex of its bag.
        """
        label: Dict[int, int] = {}  # vertex of a merged bag -> its label
        pairs = []
        for z, u, v in self.steps:
            a, b = label.pop(u, u), label.pop(v, v)
            pairs.append((a, b))
            label[z] = min(a, b)
        return pairs

    @property
    def is_full(self) -> bool:
        return len(self.steps) == self.n - 1

    def owners(self) -> Dict[int, int]:
        """Each original vertex mapped to its bag's id after the steps, in O(n)."""
        owner = {v: v for v in range(1, self.n + 1)}
        for z, u, v in reversed(self.steps):
            owner[u] = owner[v] = owner.pop(z, z)
        return owner

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class WidthReport:
    """Outcome of verifying a sequence.

    width is the maximum red degree over all intermediate trigraphs,
    argmax_step the first step index after which it is attained; the
    starting trigraph itself is step -1.  When a bound was requested
    and exceeded, violation holds the first offending (step, vertex,
    degree).
    """

    width: int
    argmax_step: int
    violation: Optional[Tuple[int, int, int]] = None

    @property
    def ok(self) -> bool:
        return self.violation is None


def _check_start(vertices: Set[int], seq: ContractionSequence) -> None:
    """Raise ValueError unless vertices are 1..n, where seq starts."""
    if vertices != set(range(1, seq.n + 1)):
        raise ValueError("graph vertices must be exactly 1..%d" % seq.n)


def walk(g: Union[Graph, Trigraph], seq: ContractionSequence) -> Iterator[Trigraph]:
    """The starting trigraph, then the trigraph after each step of seq.

    The start is g itself when g is a Trigraph and a view of g when g
    is a Graph, and it is never modified: the first step contracts a
    copy (the walk's only one), and every later step contracts that
    copy in place.  So each state yielded is valid only until the
    next one is requested, and a consumer that keeps states must copy
    them.  Each z is fresh: the sequence fixes z = n + i + 1 and the
    start is 1..n, so the in-place steps skip the freshness scan.
    """
    _check_start(g.vertices, seq)
    t = g if isinstance(g, Trigraph) else Trigraph._view(g)
    yield t
    for i, (z, u, v) in enumerate(seq.steps):
        t = t._merge(u, v, z) if i else contract(t, u, v, z)
        yield t


def replay(g: Union[Graph, Trigraph], seq: ContractionSequence) -> List[Trigraph]:
    """Copies of all intermediate trigraphs, initial state included
    (len(steps)+1 entries)."""
    return [t.copy() for t in walk(g, seq)]


def verify(
    g: Union[Graph, Trigraph],
    seq: ContractionSequence,
    bound: Optional[int] = None,
) -> WidthReport:
    """Replay seq on g and measure its width.

    Red degrees are tracked incrementally: after contracting u, v into
    the fresh vertex z = n + step + 1, only z and its red neighbours
    change red degree (a black neighbour saw u and v black), so each
    state after the start is scanned there alone, in any order, with no
    set built.  The violating vertex is the smallest one above the
    bound in its state; the touched set is built only to find it.
    """
    width, argmax = 0, -1
    violation: Optional[Tuple[int, int, int]] = None
    for step, t in enumerate(walk(g, seq), start=-1):
        red = t.red
        z = seq.n + step + 1
        if step < 0:
            d = max([len(red[x]) for x in t.vertices], default=0)
        else:
            d = len(red[z])
            for x in red[z]:
                if len(red[x]) > d:
                    d = len(red[x])
        if d > width:
            width, argmax = d, step
        if bound is not None and d > bound and violation is None:
            touched = t.vertices if step < 0 else red[z] | {z}
            x = min(x for x in touched if len(red[x]) > bound)
            violation = (step, x, len(red[x]))
    return WidthReport(width, argmax, violation)


def final_trigraph(g: Union[Graph, Trigraph], seq: ContractionSequence) -> Trigraph:
    """The trigraph after the last step, never g itself: the quotient
    of g by seq.owners(), in O(n + m)."""
    _check_start(g.vertices, seq)
    return quotient_by(g, seq.owners())
