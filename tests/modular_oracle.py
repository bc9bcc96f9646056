"""Exact twin-width by modules, and graphs built by module substitution.

For a module M of G, tww(G) = max(tww(G[M]), tww(G/M)): contracting
inside M first leaves red edges only inside M, and both G[M] and the
quotient are induced subgraphs, on which twin-width never rises (Bonnet,
Kim, Thomassé & Watrigant, "Twin-width I", FOCS 2020).  So tww(G) is
the largest width among the quotients at the prime nodes of the modular
decomposition; series and parallel nodes have width 0.

width_by_modules takes the decomposition from modular_reference and
runs the exact oracle on each prime quotient only, so it shares nothing
with twinwidth.recognize but the graph type and the oracle, and it
reaches graphs far past the oracle's own size cap as long as every
prime quotient stays within it.
"""

import random
from typing import List, Tuple

from gen_tww1 import random_tww1
from modular_reference import pairwise_maximal_modular_partition
from twinwidth.oracle import exact_twinwidth
from twinwidth.trigraph import Graph


def width_by_modules(g: Graph) -> int:
    """tww(g): the largest exact width among its prime quotients."""
    width = 0
    todo = [g]
    while todo:
        h = todo.pop()
        if h.n == 1:
            continue
        mp = pairwise_maximal_modular_partition(h)
        if mp.kind == "maximal":
            # adjacency between modules is uniform, so any representatives carry it
            quotient = h.induced([min(p) for p in mp.parts]).relabel_compact()[0]
            width = max(width, exact_twinwidth(quotient)[0])
        todo += [h.induced(p) for p in mp.parts if len(p) > 1]
    return width


# the shapes of a graph's quotients: cographs only, width at most 1, or
# any width; drawn once per graph, so that each verdict is common
PALETTES = [("edgeless", "complete"), ("edgeless", "complete", "path", "tww1", "far"),
            ("edgeless", "complete", "path", "tww1", "cycle", "random")]

# prime graphs of width 1 whose every first contraction leaving one red
# edge joins two non-adjacent vertices: a C4 0-1-2-3 with pendants 5 at
# 0 and 4 at 1, and the same with a second C4 1-4-6-2 on the edge 1-2
FAR_GUESS = {6: [(0, 1), (1, 2), (2, 3), (0, 3), (0, 5), (1, 4)],
             7: [(0, 1), (1, 2), (2, 3), (0, 3), (0, 5), (1, 4), (2, 6), (4, 6)]}


def _quotient(rng: random.Random, k: int, shape: str) -> List[Tuple[int, int]]:
    """Edges of a random graph on 0..k-1 of a shape: edgeless, complete,
    a path (prime from four vertices on, width 1), a random graph of
    width at most 1 or its complement, a FAR_GUESS graph (k is 6 or 7),
    a cycle (prime from five vertices on, width 2) or G(k, p), which has
    width 2 or more mostly on seven vertices.  Paths, cycles and
    FAR_GUESS graphs are relabelled at random."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    if shape == "edgeless":
        return []
    if shape == "complete":
        return pairs
    if shape == "tww1":
        # half of them complemented, which keeps the width
        h = random_tww1(k, rng)[0]
        return [(a - 1, b - 1) for a, b in (h.complement() if rng.random() < 0.5 else h).edges()]
    if shape in ("path", "cycle", "far"):
        order = rng.sample(range(k), k)
        if shape == "far":
            return [(order[a], order[b]) for a, b in FAR_GUESS[k]]
        ends = k if shape == "cycle" and k > 2 else k - 1
        return [(order[i], order[(i + 1) % k]) for i in range(ends)]
    p = rng.choice([0.3, 0.5, 0.7])
    return [e for e in pairs if rng.random() < p]


def _substitute(rng: random.Random, depth: int, shapes) -> Tuple[int, List[Tuple[int, int]]]:
    """(n, edges on 0..n-1): a quotient on 2..7 vertices of a shape
    drawn from shapes, each vertex replaced by a graph built one level
    shallower or by one vertex."""
    if depth == 0 or rng.random() < 0.3:
        return 1, []
    shape = rng.choice(shapes)
    k = rng.randint(6, 7) if shape == "far" else rng.randint(2, 7)
    blocks, edges, n = [], [], 0
    for _ in range(k):
        size, inner = _substitute(rng, depth - 1, shapes)
        blocks.append(range(n, n + size))
        edges += [(n + a, n + b) for a, b in inner]
        n += size
    for i, j in _quotient(rng, k, shape):
        edges += [(a, b) for a in blocks[i] for b in blocks[j]]
    return n, edges


def substitution_graph(rng: random.Random, low: int, high: int, depth: int = 3) -> Graph:
    """A graph on 1..n with low <= n <= high, built by module
    substitution to the given depth from one palette of quotient shapes
    and relabelled at random, so that its modules are not runs of
    consecutive ids."""
    shapes = rng.choice(PALETTES)
    while True:
        n, edges = _substitute(rng, depth, shapes)
        if low <= n <= high:
            break
    name = rng.sample(range(1, n + 1), n)
    return Graph(range(1, n + 1), [(name[a], name[b]) for a, b in edges])
