"""Exhaustive ground-truth solvers at desk scale.

Everything here is deliberately small and exact: iterative deepening
for exact twin-width from the best first contraction's red degree,
over partition states with a failed-state memo.  Each state keeps
per-part masks of the parts it is red to and fully joined to; a
candidate merge is tested from those masks alone by the merged-part
rule of "Twin-width I" (Bonnet, Kim, Thomassé & Watrigant, FOCS 2020),
and a merge that passes derives its child's masks from its parent's,
so a state of k parts costs O(k) per child, plus the O(k^2) candidate
tests of a state that fails.  Minimum Dominating Set is branch-and-bound;
dominating_transversal asks the reduction's question, a dominating set
with exactly one vertex per part, by a depth-first search over parts on
an explicit stack.  Minimum Connected and Capacitated Vertex Cover go
size by size through _covers_of_size, a depth-first include/exclude
search over per-vertex adjacency masks on an explicit stack: excluding
a vertex forces its neighbours in, and a branch dies once its chosen
and forced vertices exceed the size.  It visits only covers and yields
them in itertools.combinations order, so each oracle's first hit is
the plain subset enumeration's.  The connected search starts at the
size of a greedy maximal matching, below which no cover exists, and
tests connectivity by a bit frontier.  A capacitated cover reaches
the augmenting-path assignment only when its rooms min(max(0, cap),
deg) sum to |E| or more, and the assignment places each edge by a
breadth-first augmenting path.
Sizes are capped; exceeding a cap is an error rather than silent
slowness.  TWW_SIZE_CAP in the environment overrides every cap at once;
it is the only way to change them.
"""

from __future__ import annotations

import bisect
import itertools
import os
import sys
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .trigraph import Graph, InternalError, validate_partition
from .sequence import ContractionSequence

TWW_CAP = 12
SEARCH_CAP = 24
# dominating_transversal backtracks over parts with unit propagation,
# so it reaches composed instances: a four-row composition of 3-variable
# reductions has 484 vertices, and compositions of 420-680 vertices,
# positive or negative, each took under 0.25 s on a 2-core VM.  Larger
# inputs, such as the 1,228-vertex reduction of a 6-variable formula
# (under 1 s either way), need TWW_SIZE_CAP raised.
FORCED_CAP = 512


def _check_size(g: Graph, default: int, what: str) -> None:
    env = os.environ.get("TWW_SIZE_CAP")
    if env and not (env.isascii() and env.isdigit()):
        raise ValueError("TWW_SIZE_CAP must be a non-negative integer, got %r" % env)
    limit = int(env) if env else default
    if g.n > limit:
        raise ValueError("graph has %d vertices, %s cap is %d" % (g.n, what, limit))


def _check_depth(g: Graph, what: str) -> None:
    # twinwidth_at_most's search and min_dominating_set's bb recurse once
    # per merge or pick, up to n deep, whatever TWW_SIZE_CAP admits; half
    # the recursion limit leaves the other half to their callers
    limit = sys.getrecursionlimit() // 2
    if g.n > limit:
        raise ValueError("graph has %d vertices, %s depth limit is %d" % (g.n, what, limit))


@dataclass(frozen=True)
class CapacitatedGraph:
    graph: Graph
    cap: Dict[int, int]

    def __post_init__(self):
        # negative capacities are allowed (reduction rules decrement
        # freely); feasibility treats them as zero
        if set(self.cap) != self.graph.vertices:
            raise ValueError("capacity function must cover exactly the vertices")


# ---------------------------------------------------------------------------
# exact twin-width

def _part_tables(order: List[int], g: Graph) -> Dict[int, int]:
    bit = {v: 1 << i for i, v in enumerate(order)}
    return {v: sum(map(bit.__getitem__, g.adj[v])) for v in order}


def _check_tww_input(g: Graph) -> None:
    if g.n == 0:
        raise ValueError("twin-width needs at least one vertex")
    _check_size(g, TWW_CAP, "twin-width")
    _check_depth(g, "twin-width")
    if g.vertices != set(range(1, g.n + 1)):
        raise ValueError("twinwidth_at_most needs vertices 1..n; relabel first")


def _first_merges(masks: List[int]) -> List[Tuple[int, int]]:
    """Merge the two smallest of the sorted masks until one is left,
    each merged mask taking its place in order; masks is consumed."""
    out = []
    while len(masks) > 1:
        a, b = masks.pop(0), masks.pop(0)
        out.append((a, b))
        bisect.insort(masks, a | b)
    return out


def twinwidth_at_most(g: Graph, d: int) -> Optional[ContractionSequence]:
    """A witness d-sequence for g, or None when tww(g) > d.

    Search over vertex-partition states (lists of bitmasks over the
    original vertices, in increasing order) with a failed-state memo.
    Candidate merges are tried in that order of the parts, so the
    returned witness is deterministic.

    Each part is labelled by the bit of its lowest vertex, and a state
    keeps two label masks per part: red[i], the parts part i is red to,
    and full[i], the parts it is fully joined to.  Every state on the
    search path has red degree at most d, so a merge of parts i and j is
    tested from those masks alone ("Twin-width I", Bonnet, Kim, Thomassé
    & Watrigant, FOCS 2020): the merged part z is red to x exactly when
    x was red to i or to j, or x is fully joined to one of them and not
    to the other.  A part red to i or j loses a red edge and gains at
    most one, so only the newly red parts can rise, and they must not
    already sit at degree d.  A merge that passes builds its child from
    the parent in O(k): z is fully joined to what both were, and every
    other part trades the labels of i and j for z's, in red or black as
    z sees it.  A state of k parts thus costs O(k) to build, and the
    O(k^2) candidate tests all run only when the state fails.  Once
    k - 1 <= d no red degree can exceed d, so every candidate passes and
    the search would merge the first two parts each time: those merges
    are emitted directly.

    search recurses once per merge, so its depth is below n, and
    _check_tww_input refuses an n above half the recursion limit (500
    at Python's default) even where TWW_SIZE_CAP admits it.
    """
    if d < 0:
        raise ValueError("width bound must be non-negative, got %d" % d)
    n = g.n
    _check_tww_input(g)
    adjbit = _part_tables(list(range(1, n + 1)), g)

    failed: Set[Tuple[Tuple[int, int, int, int], ...]] = set()

    # a state lists its parts as rows (mask, label, red, full) in mask order
    def search(rows) -> Optional[List[Tuple[int, int]]]:
        if len(rows) - 1 <= d:
            return _first_merges([row[0] for row in rows])
        key = tuple(rows)
        if key in failed:
            return None
        at_cap = 0
        for _, label, red, _ in rows:
            if red.bit_count() == d:
                at_cap |= label
        for i, (mi, li, ri, fi) in enumerate(rows):
            for mj, lj, rj, fj in rows[i + 1:]:
                lose = li | lj
                was = ri | rj
                rz = (was | fi ^ fj) & ~lose
                if rz.bit_count() > d or rz & ~was & at_cap:
                    continue
                # the child: every other part trades the two labels for z's
                lz = lose & -lose
                fz = fi & fj
                child = [(m, x, r & ~lose | (lz if x & rz else 0),
                          f & ~lose | (lz if x & fz else 0))
                         for m, x, r, f in rows if not x & lose]
                bisect.insort(child, (mi | mj, lz, rz, fz))
                tail = search(child)
                if tail is not None:
                    return [(mi, mj)] + tail
        failed.add(key)
        return None

    merges = search([(1 << i, 1 << i, 0, adjbit[i + 1]) for i in range(n)])
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


def exact_twinwidth(g: Graph) -> Tuple[int, ContractionSequence]:
    """Exact twin-width with one optimal witness sequence.

    Deepening starts at min over u != v of |N(u) xor N(v) - {u, v}|, the
    red degree of the best first contraction: no smaller d succeeds.
    """
    _check_tww_input(g)
    adj = _part_tables(list(range(1, g.n + 1)), g)
    lower = min((((adj[u] ^ adj[v]) & ~((1 << u - 1) | (1 << v - 1))).bit_count()
                 for u, v in itertools.combinations(adj, 2)), default=0)
    for d in range(lower, g.n):
        seq = twinwidth_at_most(g, d)
        if seq is not None:
            return d, seq
    raise InternalError("unreachable: every graph has an (n-1)-sequence")


# ---------------------------------------------------------------------------
# dominating set

def is_dominating_set(g: Graph, s) -> bool:
    s = set(s)
    covered = set(s)
    for v in s:
        covered |= g.adj[v]
    return covered == g.vertices


def min_dominating_set(g: Graph) -> Tuple[int, FrozenSet[int]]:
    """Optimum dominating set size and one witness.

    Branch-and-bound over the undominated vertex with the fewest
    dominators.  bb recurses once per chosen vertex and never chooses
    more than n, so an n above half the recursion limit (500 at
    Python's default) is refused even where TWW_SIZE_CAP admits it.
    """
    _check_size(g, SEARCH_CAP, "search")
    _check_depth(g, "search")
    if g.n == 0:
        return 0, frozenset()

    order = sorted(g.vertices)
    closed = [near | 1 << i for i, near in enumerate(_part_tables(order, g).values())]
    full = (1 << g.n) - 1

    best_set: List[int] = list(range(g.n))  # V always dominates
    best = [g.n]

    def packing_bound(undominated: int) -> int:
        # vertices with pairwise disjoint closed neighborhoods need
        # pairwise distinct dominators
        taken = 0
        count = 0
        m = undominated
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            if closed[i] & taken == 0:
                taken |= closed[i]
                count += 1
        return count

    def bb(dominated: int, chosen: List[int]) -> None:
        if dominated == full:
            if len(chosen) < best[0]:
                best[0] = len(chosen)
                best_set[:] = chosen
            return
        if len(chosen) + packing_bound(full & ~dominated) >= best[0]:
            return
        # branch on the undominated vertex with the fewest dominators
        pick = -1
        pick_opts = None
        m = full & ~dominated
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            opts = closed[i].bit_count()
            if pick < 0 or opts < pick_opts:
                pick, pick_opts = i, opts
        cands = closed[pick]
        while cands:
            i = (cands & -cands).bit_length() - 1
            cands &= cands - 1
            chosen.append(i)
            bb(dominated | closed[i], chosen)
            chosen.pop()

    bb(0, [])
    return best[0], frozenset(order[i] for i in best_set)


def all_min_dominating_sets(g: Graph) -> List[FrozenSet[int]]:
    """Every minimum dominating set, enumerated exhaustively."""
    size, _ = min_dominating_set(g)
    out = []
    for combo in itertools.combinations(sorted(g.vertices), size):
        if is_dominating_set(g, combo):
            out.append(frozenset(combo))
    return out


def dominating_transversal(g: Graph, parts: Sequence[Set[int]]) -> Optional[FrozenSet[int]]:
    """A dominating set with exactly one vertex in every part, or None.

    This is the "yes" question of the reduction and the composition: a
    dominating set of part-count size exists iff the formula (or one
    composed instance) is satisfiable.  Deciding it by transversals is
    exact only under the paper's lemma that every dominating set within
    the budget meets every part; the search does not check that.

    Depth-first over parts with an explicit stack, so no recursion grows
    with the input.  Each node first propagates to a fixpoint: a part's
    candidates shrink to the closed neighbourhood of any undominated
    vertex whose remaining dominators all lie in that part, and a node
    where some undominated vertex has no dominator left fails.  The
    root starts from whole parts, so its propagation also shrinks each
    part to the closed neighbourhood of every vertex confined to it:
    such a vertex's dominators all lie in its own part.  A node then
    branches on the undecided part with the fewest candidates (ties to
    the lower index), trying its members in increasing order; the first
    complete dominating transversal found is returned.
    """
    _check_size(g, FORCED_CAP, "forced search")
    sets = [set(p) for p in parts]
    validate_partition(g.vertices, sets)
    order = sorted(g.vertices)
    idx = {v: i for i, v in enumerate(order)}
    closed = [near | 1 << i for i, near in enumerate(_part_tables(order, g).values())]
    full = (1 << len(order)) - 1
    part_mask = [sum(1 << idx[v] for v in p) for p in sets]
    part_of = [0] * len(order)
    for j, p in enumerate(sets):
        for v in p:
            part_of[idx[v]] = j

    def propagate(cand, dominated, undecided):
        # every dominator left for an undominated vertex lies in an
        # undecided part; when they all lie in one part, that part's
        # pick must dominate the vertex
        cand = list(cand)
        changed = True
        while changed:
            changed = False
            avail = 0
            for j in undecided:
                avail |= cand[j]
            need = full & ~dominated
            while need:
                low = need & -need
                need ^= low
                c = closed[low.bit_length() - 1]
                reach = c & avail
                if reach == 0:
                    return None
                j = part_of[(reach & -reach).bit_length() - 1]
                if reach & ~part_mask[j] == 0 and cand[j] & ~c:
                    cand[j] &= c
                    changed = True
        return cand

    # a node is (candidates, dominated mask, undecided parts, picks in order)
    stack = [(part_mask, 0, list(range(len(sets))), ())]
    while stack:
        cand, dominated, undecided, picked = stack.pop()
        if not undecided:
            # propagation left the last part only candidates that
            # dominate every vertex still undominated
            return frozenset(reversed(picked))
        cand = propagate(cand, dominated, undecided)
        if cand is None:
            continue
        j = min(undecided, key=lambda j: (cand[j].bit_count(), j))
        rest = [x for x in undecided if x != j]
        # pushed from the highest, the members pop in increasing order
        m = cand[j]
        while m:
            i = m.bit_length() - 1
            m ^= 1 << i
            stack.append((cand, dominated | closed[i], rest, picked + (order[i],)))
    return None


# ---------------------------------------------------------------------------
# connected and capacitated vertex cover (nbr[i]: the i-th vertex's neighbour mask)

def is_vertex_cover(g: Graph, s) -> bool:
    s = set(s)
    return all(u in s or v in s for u, v in g.edges())


def _covers_of_size(nbr: List[int], n: int, k: int) -> Iterator[int]:
    """Every vertex cover of exactly k of the vertices 0..n-1, as a
    mask, in itertools.combinations order; nbr[i] is i's neighbour mask.

    Depth first over the indices on an explicit stack, include before
    exclude, so the covers come in lexicographic order of their index
    tuples.  Excluding a vertex forces its neighbours in.  A branch dies
    when its chosen vertices plus the forced ones still undecided exceed
    k, or when too few vertices remain to reach k.  With k chosen, the
    undecided rest is excluded, which covers exactly when none of it is
    forced and no edge lies inside it (no edge's lower end is >= i); the
    prunes only save work, this test alone decides what is yielded.
    """
    last = max((i for i in range(n) if nbr[i] >> i + 1), default=-1)
    stack = [(0, 0, 0, 0)]  # next index, chosen mask and count, forced mask
    while stack:
        i, s, c, forced = stack.pop()
        if c + (forced & ~s).bit_count() > k or c + n - i < k:
            continue
        if c == k:
            if i > last and not forced & ~s:
                yield s
            continue
        bit = 1 << i
        if not forced & bit:
            stack.append((i + 1, s, c, forced | nbr[i]))
        stack.append((i + 1, s | bit, c + 1, forced))


def _connected(nbr: List[int], s: int) -> bool:
    seen = frontier = s & -s
    while frontier:
        low = frontier & -frontier
        new = nbr[low.bit_length() - 1] & s & ~seen
        seen |= new
        frontier ^= low | new
    return seen == s


def min_connected_vertex_cover(g: Graph) -> Optional[Tuple[int, FrozenSet[int]]]:
    """Optimum connected vertex cover, or None when none exists.

    Infeasible exactly when at least two components contain edges: a
    connected cover cannot straddle components.  Isolated vertices are
    ignored.  Size by size, from the size of a greedy maximal matching
    of the edgeful component, _covers_of_size lists its covers in
    combinations order and the first connected one (a bit frontier over
    the masks) is returned.
    """
    _check_size(g, SEARCH_CAP, "search")
    edgeful = [c for c in g.components() if any(g.adj[v] & c for v in c)]
    if len(edgeful) > 1:
        return None
    if not edgeful:
        return 0, frozenset()
    comp = sorted(edgeful[0])
    nbr = list(_part_tables(comp, g).values())
    # a cover holds an end of every edge of a matching, so none is
    # smaller than a greedy maximal one
    free = (1 << len(comp)) - 1
    matched = 0
    for i, near in enumerate(nbr):
        if free >> i & 1 and near & free:
            free &= ~(1 << i | near & free & -(near & free))
            matched += 1
    for k in range(matched, len(comp) + 1):
        for s in _covers_of_size(nbr, len(comp), k):
            if _connected(nbr, s):
                return k, frozenset(v for i, v in enumerate(comp) if s >> i & 1)
    raise InternalError("unreachable: the whole component is a connected cover")


def _assign(cg: CapacitatedGraph, edges: List[Tuple[int, int]], x: Set[int]) -> bool:
    """Can the edges be assigned to endpoints in the cover x within capacity?

    Negative capacities (legal bookkeeping in the kernel rules) count
    as zero.  Each edge in turn is placed by a breadth-first augmenting
    path search (Kuhn, "The Hungarian method for the assignment
    problem", 1955) from its endpoints in x: a vertex without room
    leads on to the other end of each edge it carries, and the first
    vertex with room takes one, each carried edge on the path moving
    one step.  When no vertex with room is reached, the edges so far
    admit no assignment in any order (Berge), so the verdict is False.
    """
    room = {v: max(0, cg.cap[v]) for v in x}
    carried: Dict[int, Set[Tuple[int, int]]] = {v: set() for v in x}
    for e in edges:
        came: Dict[int, Optional[Tuple[int, Tuple[int, int]]]] = {w: None for w in e if w in x}
        queue = list(came)
        for w in queue:
            if room[w]:
                break
            for f in carried[w]:
                u = f[0] if f[1] == w else f[1]
                if u in x and u not in came:
                    came[u] = (w, f)
                    queue.append(u)
        else:
            return False
        room[w] -= 1
        while came[w] is not None:
            v, f = came[w]
            carried[v].remove(f)
            carried[w].add(f)
            w = v
        carried[w].add(e)
    return True


def capacitated_vc_feasible(cg: CapacitatedGraph, x) -> bool:
    """Can every edge be assigned to a covering endpoint within capacity?

    No size cap applies here; the assignment searches breadth first
    without recursion, so no input size bounds it by the recursion limit.
    """
    x = set(x)
    return is_vertex_cover(cg.graph, x) and _assign(cg, list(cg.graph.edges()), x)


def min_capacitated_vc(cg: CapacitatedGraph, k: Optional[int] = None) -> Optional[FrozenSet[int]]:
    """Smallest capacitated vertex cover of size at most k, or None.

    k = None searches all sizes, so the result (if any) is a true
    minimum.  A vertex carries at most room(v) = min(max(0, cap v),
    deg v) edges, so a cover whose rooms sum below |E| cannot be
    assigned, and a size whose largest rooms sum below |E| is skipped
    whole.  Only the covers of _covers_of_size that pass this bound,
    in combinations order, reach the assignment.  Before the second
    assignment, one assignment on all of V asks whether any cover can
    be assigned, for a cover that can stays assignable when it grows;
    when none can, the search stops there with None.
    """
    g = cg.graph
    _check_size(g, SEARCH_CAP, "search")
    hi = g.n if k is None else min(k, g.n)
    order = sorted(g.vertices)
    nbr = list(_part_tables(order, g).values())
    room = [min(max(0, cg.cap[v]), len(g.adj[v])) for v in order]
    best = sorted(room, reverse=True)
    edges = list(g.edges())
    attempts = 0
    for size in range(0, hi + 1):
        if sum(best[:size]) < len(edges):
            continue
        for s in _covers_of_size(nbr, g.n, size):
            if sum(r for i, r in enumerate(room) if s >> i & 1) < len(edges):
                continue
            x = {v for i, v in enumerate(order) if s >> i & 1}
            if attempts == 1 and not _assign(cg, edges, g.vertices):
                return None
            attempts += 1
            if _assign(cg, edges, x):
                return frozenset(x)
    return None
