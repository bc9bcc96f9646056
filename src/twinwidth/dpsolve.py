"""Exact Min Vertex Cover and Min Dominating Set along a contraction
sequence whose red components stay small.

A partial solution is traced per red component: every component vertex
records whether its bag lies fully inside the solution (FULL = 0),
meets it partially (PARTIAL = 1) or misses it entirely (NONE = 2).  A
table maps (statuses, dominated) to the smallest solution size, both
tuples aligned to the component's sorted vertex ids; dominated says
whether all of each bag is dominated yet and stays empty for Vertex
Cover.  Black edges are homogeneous, so any obligation they carry is
decidable from the statuses alone; each one is discharged at the
contraction that internalizes it, while red edges keep their
obligations inside the component tables.  Tables have at most 3^c (or
6^c) entries, so the run time is linear in the sequence for fixed
component bound c; c above MAX_COMPONENT_BOUND is refused up front.

Each step is compiled once, before its tables are combined: the
positions of the joined components' vertices in their concatenated
keys, z's slot after them, the index list that takes the merged key,
and the black edges and domination links as index pairs and lists.
A combination then concatenates the component keys, tests those
indices and takes its key by indexing, with no dict per combination.

check_component_bound searches every red component of the start once
and, after each step, z's component alone: a contraction only merges
red components, so no other component of a state is new.  That is at
most n + c(n - 1) red sets for the bound c it returns, O(n c + m)
with the walk.  Both searches are trigraph._reach, the library's one
graph search: the start's through Graph.components on the red table.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Callable, Dict, List, Sequence, Tuple, Union

from .trigraph import Graph, Trigraph, _reach
from .sequence import ContractionSequence, walk

FULL, PARTIAL, NONE = 0, 1, 2

Key = Tuple[Tuple[int, ...], Tuple[bool, ...]]

# a component table holds at most 6^c entries (3^c for Vertex Cover):
# 6^6 = 46656 keys of two 6-tuples take about 10 MB, and width-1
# witnesses need c <= 2
MAX_COMPONENT_BOUND = 6


def check_component_bound(g: Union[Graph, Trigraph], s: ContractionSequence) -> int:
    """Largest red component over all states of the replay.

    A contraction of a and b into z only merges red components: every
    red edge at a or b moves to z, and every red edge it creates ends
    at z, while the edges among the other vertices stay as they were.
    So each component of a state either was a component of the state
    before, untouched, or is z's, which absorbs those of a, b and of
    z's new red neighbours.  One full search of the start (a Trigraph
    start may already carry red edges) followed by a search of z's
    component after each step therefore sees the largest component of
    every state: at most n + c(n - 1) red sets for the bound c it
    returns, O(n c + m) with the walk, against O(n^2) for a full
    search of every state.
    """
    states = walk(g, s)
    best = max(map(len, Graph._of(next(states).red).components()), default=0)
    for (z, _, _), t in zip(s.steps, states):
        best = max(best, len(_reach(z, t.red.__getitem__, set())))
    return best


def min_vc_dp(g: Graph, s: ContractionSequence, c: int) -> int:
    """Minimum vertex cover size, exact whenever the bound holds."""
    return _solve(g, s, c, dominating=False)


def min_ds_dp(g: Graph, s: ContractionSequence, c: int) -> int:
    """Minimum dominating set size, exact whenever the bound holds."""
    return _solve(g, s, c, dominating=True)


def _solve(g: Graph, s: ContractionSequence, c: int, dominating: bool) -> int:
    if c < 1:
        raise ValueError("component bound must be at least 1")
    if c > MAX_COMPONENT_BOUND:
        raise ValueError("component bound %d is above the cap %d (tables of up to 6^%d entries)"
                         % (c, MAX_COMPONENT_BOUND, MAX_COMPONENT_BOUND))
    if s.n != g.n:
        raise ValueError("sequence must start from the original graph")
    if not s.is_full:
        raise ValueError("dynamic programming needs a full sequence")

    states = walk(g, s)
    t = next(states)
    worst = g.n + 1  # above every solution size
    comp: Dict[int, int] = {v: v for v in t.vertices}
    members: Dict[int, Tuple[int, ...]] = {v: (v,) for v in t.vertices}
    # a picked singleton dominates itself; partial never applies
    picked, unpicked = ((True,), (False,)) if dominating else ((), ())
    tables: Dict[int, Dict[Key, int]] = {
        v: {((FULL,), picked): 1, ((NONE,), unpicked): 0} for v in t.vertices}

    for z, a, b in s.steps:
        # the walk contracts in place: keep the black neighbourhoods of
        # a and b, the only before-state edges the step drops
        black_a = set(t.black[a])
        before = ((a, black_a), (b, set(t.black[b])))
        t = next(states)
        new_red = t.red[z]
        cids = sorted({comp[a], comp[b]} | {comp[w] for w in new_red})
        olds = [u for cid in cids for u in members[cid]]
        merged = tuple(sorted(({z} | set(olds)) - {a, b}))
        if len(merged) > c:
            # steps count from 0, as in verify
            raise ValueError(
                "red component of %d vertices at step %d exceeds the bound %d"
                % (len(merged), z - g.n - 1, c))
        # the step compiled once: a combination of the components' keys,
        # concatenated in cids order, puts u at pos[u], and z's entry
        # goes after them
        pos = {u: i for i, u in enumerate(olds)}
        pos[z] = len(olds)
        ia, ib = pos[a], pos[b]
        take = _picker([pos[v] for v in merged])
        # a black edge becoming internal (contracted away or turned red)
        # needs one side fully picked, now
        internal = [(a, b)] if b in black_a else []
        internal += [(x, w) for x, bx in before for w in bx & new_red]
        internal = [(pos[x], pos[w]) for x, w in internal]
        # any picked black neighbour inside the joined components
        # dominates the whole bag; a member other than a and b had its
        # present black edges there plus those to a and b
        inside = set(olds)
        links = [(x, bx & inside) for x, bx in before]
        links += [(u, t.black[u] & inside | {x for x, bx in before if u in bx})
                  for u in olds if u != a and u != b]
        links = [(pos[u], [pos[w] for w in ws]) for u, ws in links if ws]

        joint: Dict[Key, int] = {}
        for combo in itertools.product(*(tables[cid].items() for cid in cids)):
            st, dm, size = (), (), 0
            for (sts, doms), val in combo:
                st += sts
                dm += doms
                size += val
            if dominating:
                dm = list(dm)
                for u, ws in links:
                    if not dm[u]:
                        dm[u] = any(st[w] != NONE for w in ws)
                dm.append(dm[ia] and dm[ib])
                dm = take(dm)
            elif any(st[x] != FULL and st[w] != FULL for x, w in internal):
                continue
            key = (take(st + ((st[ia] if st[ia] == st[ib] else PARTIAL),)), dm)
            if size < joint.get(key, worst):
                joint[key] = size

        for cid in cids:
            del tables[cid], members[cid]
        tables[z] = joint
        members[z] = merged
        for v in merged:
            comp[v] = z

    (table,) = tables.values()
    return min(v for (_, doms), v in table.items() if all(doms))


def _picker(idx: List[int]) -> Callable[[Sequence], tuple]:
    """The function taking the tuple of a sequence's entries at idx."""
    if len(idx) == 1:
        (i,) = idx
        return lambda seq: (seq[i],)
    return itemgetter(*idx)
