"""Seeded input generators for the benchmark.

Every generator takes a random.Random and returns plain data (edge
lists, formulas, witness steps), so the same seed always yields the
same inputs.  The library only ever sees what these functions build.

Why each family is here:

* layout formulas: the only input of ``tww pipeline``, the paper's
  main construction (Planar-3-SAT to Dominating Set, then the
  OR-cross-composition).  Clauses are drawn as consecutive triples of
  still-live variables, which is exactly the shape the removal-rank
  rule accepts, so every generated formula is valid by construction.
* splitting graphs: random graphs of twin-width at most 1 built
  backwards from one bag, so each comes with a width-1 witness.  They
  feed the DP (``tww solve``) and the tww<=1 share of recognition.
* paths: the simplest prime graphs of twin-width exactly 1; they force
  the prime-graph driver with its first-contraction guesses.
* cycles: prime graphs of twin-width 2, so the driver has to exhaust
  every guess before answering above1.
* dense G(n, 1/2) with a planted induced C5: twin-width is hereditary
  and C5 has width 2, so the verdict above1 is known by construction;
  the modular decomposition of a dense prime graph is its own cost.
* threshold graphs and random cotrees: cographs (twin-width 0) whose
  cotree recursion copies induced() and complement() at every level,
  which is what drives peak memory in recognition.
* small random graphs and capacitated graphs: the acceptance gate's
  shape (recognition against the exact oracle, kernels against the
  oracles) at desk scale, thousands of tiny calls.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

Edge = Tuple[int, int]
Step = Tuple[int, int, int]
Clause = Tuple[str, int, Tuple[int, int, int]]


# ---------------------------------------------------------------------------
# layout formulas

def layout_formula(n: int, plus: int, minus: int, rng: random.Random) -> Tuple[int, List[Clause]]:
    """A formula on n variables with the given clause count per family.

    Each family retires the middle of a window of three consecutive
    live variables, so no later clause of that family reaches inside
    an earlier one: the removal ranks are valid as drawn.
    """
    clauses: List[Clause] = []
    for sign, count in (("+", plus), ("-", minus)):
        if count > n - 2:
            raise ValueError("a family on %d variables holds at most %d clauses" % (n, n - 2))
        live = list(range(1, n + 1))
        for rank in range(1, count + 1):
            i = rng.randrange(len(live) - 2)
            window = live[i:i + 3]
            del live[i + 1]
            lits = tuple(v if rng.random() < 0.5 else -v for v in window)
            clauses.append((sign, rank, lits))
    return n, clauses


def formula_text(n: int, clauses: List[Clause]) -> str:
    lines = ["formula %d" % n]
    lines += ["clause %s %d %d %d %d" % ((sign, rank) + lits) for sign, rank, lits in clauses]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graphs of twin-width at most one, with a witness

def splitting_graph(n: int, rng: random.Random,
                    max_link: int = 0) -> Tuple[List[Edge], List[Step]]:
    """Random graph on 1..n with a contraction sequence of width <= 1.

    Start from one bag holding every vertex and split bags in two.  A
    black link to the split bag passes to both halves; a red link
    passes to one half only (staying red while an endpoint can still
    split, else settling black); the new pair may start a red link only
    when none is alive.  Reversing the splits gives the contraction
    sequence, and at most one red edge exists at every point of it.

    With max_link > 0 the two halves of a split are linked only when
    the product of their sizes is at most max_link, so no single early
    decision adds a quarter of all vertex pairs as edges: the edge count
    then sums many small links and varies little from seed to seed.
    """
    bags: Dict[int, Tuple[int, ...]] = {0: tuple(range(1, n + 1))}
    link: Dict[Tuple[int, int], bool] = {}  # node pair -> is red
    splits: List[Tuple[int, int, int]] = []
    fresh = 1

    def key(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a < b else (b, a)

    while True:
        splittable = sorted(x for x, bag in bags.items() if len(bag) > 1)
        if not splittable:
            break
        x = rng.choice(splittable)
        members = list(bags.pop(x))
        rng.shuffle(members)
        cut = rng.randint(1, len(members) - 1)
        a, b = fresh, fresh + 1
        fresh += 2
        bags[a] = tuple(sorted(members[:cut]))
        bags[b] = tuple(sorted(members[cut:]))
        for w in sorted(bags):
            if w in (a, b):
                continue
            red = link.pop(key(x, w), None)
            if red is None:
                continue
            if not red:
                link[key(a, w)] = False
                link[key(b, w)] = False
                continue
            carrier = a if rng.random() < 0.5 else b
            can_split = len(bags[carrier]) > 1 or len(bags[w]) > 1
            link[key(carrier, w)] = can_split and rng.random() < 0.35
        red_alive = any(link.values())
        if not max_link or len(bags[a]) * len(bags[b]) <= max_link:
            if len(bags[a]) == 1 and len(bags[b]) == 1:
                if rng.random() < 0.5:
                    link[key(a, b)] = False
            elif not red_alive and rng.random() < 0.4:
                link[key(a, b)] = True
            elif rng.random() < 0.45:
                link[key(a, b)] = False
        splits.append((x, a, b))

    ids = {x: bag[0] for x, bag in bags.items()}
    steps: List[Step] = []
    z = n
    for parent, a, b in reversed(splits):
        z += 1
        ids[parent] = z
        steps.append((z, ids[a], ids[b]))
    edges = sorted(key(ids[p], ids[q]) for (p, q), red in link.items())
    return edges, steps


# ---------------------------------------------------------------------------
# recognition families

def path_edges(n: int) -> List[Edge]:
    return [(i, i + 1) for i in range(1, n)]


def cycle_edges(n: int) -> List[Edge]:
    return path_edges(n) + [(1, n)]


def dense_with_c5(n: int, rng: random.Random) -> List[Edge]:
    """G(n, 1/2) whose first five vertices induce exactly a C5."""
    c5 = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if v <= 5:
                if (u, v) in c5:
                    edges.append((u, v))
            elif rng.random() < 0.5:
                edges.append((u, v))
    return edges


def threshold_edges(n: int, rng: random.Random) -> List[Edge]:
    """Add vertices one by one, each isolated or dominating so far.

    Of vertices 2i and 2i+1 exactly one dominates, chosen by the seed,
    so the edge count (and the recursion's memory) barely moves with
    the seed while the cotree still changes.
    """
    edges = []
    for first in range(2, n + 1, 2):
        pick = first + (rng.random() < 0.5)
        if pick <= n:
            edges += [(u, pick) for u in range(1, pick)]
    return edges


def cotree_edges(n: int, rng: random.Random) -> List[Edge]:
    """Random cograph: split 1..n recursively, joining or not each split."""
    edges: List[Edge] = []
    stack = [list(range(1, n + 1))]
    while stack:
        block = stack.pop()
        if len(block) < 2:
            continue
        cut = rng.randint(1, len(block) - 1)
        left, right = block[:cut], block[cut:]
        if rng.random() < 0.5:
            edges += [(u, v) for u in left for v in right]
        stack += [left, right]
    return edges


# ---------------------------------------------------------------------------
# crosscheck families

def random_graph(n: int, p: float, rng: random.Random) -> List[Edge]:
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]


def connected_capacitated(n: int, rng: random.Random) -> Tuple[List[Edge], Dict[int, int]]:
    """Connected G(n, 0.35) redrawn until connected, capacities 0..3."""
    while True:
        edges = random_graph(n, 0.35, rng)
        if _connected(n, edges):
            break
    caps = {v: rng.randint(0, 3) for v in range(1, n + 1)}
    return edges, caps


def _connected(n: int, edges: List[Edge]) -> bool:
    adj: Dict[int, List[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n
