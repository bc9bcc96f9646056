"""The DP step and the component bound as they were before each step
was compiled to index lists and the bound searched only z's component.

Kept verbatim but for their names as the differential reference for
twinwidth.dpsolve: every combination of component tables fills a
status and a domination dict by vertex id and reads the merged key
back from them, and the component bound searches every red component
of every state of the walk.
"""

import itertools
from typing import Dict, Tuple

from twinwidth.dpsolve import FULL, MAX_COMPONENT_BOUND, NONE, PARTIAL, Key
from twinwidth.sequence import ContractionSequence, walk
from twinwidth.trigraph import Graph


def check_component_bound(g: Graph, s: ContractionSequence) -> int:
    """Largest red component over all states of the replay."""
    best = 0
    for t in walk(g, s):
        seen = set()
        for v in t.vertices:
            if v in seen:
                continue
            comp = {v}
            stack = [v]
            while stack:
                for y in t.red[stack.pop()]:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            best = max(best, len(comp))
    return best


def min_vc_dp(g: Graph, s: ContractionSequence, c: int) -> int:
    return solve(g, s, c, dominating=False)


def min_ds_dp(g: Graph, s: ContractionSequence, c: int) -> int:
    return solve(g, s, c, dominating=True)


def solve(g: Graph, s: ContractionSequence, c: int, dominating: bool) -> int:
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
        # a black edge becoming internal (contracted away or turned red)
        # needs one side fully picked, now
        internal = [(a, b)] if b in black_a else []
        internal += [(x, w) for x, bx in before for w in bx & new_red]
        # any picked black neighbour inside the joined components
        # dominates the whole bag; a member other than a and b had its
        # present black edges there plus those to a and b
        inside = set(olds)
        links = [(x, bx & inside) for x, bx in before]
        links += [(u, t.black[u] & inside | {x for x, bx in before if u in bx})
                  for u in olds if u != a and u != b]

        joint: Dict[Key, int] = {}
        for combo in itertools.product(*(tables[cid].items() for cid in cids)):
            status: Dict[int, int] = {}
            dom: Dict[int, bool] = {}
            size = 0
            for ((sts, doms), val), cid in zip(combo, cids):
                size += val
                status.update(zip(members[cid], sts))
                dom.update(zip(members[cid], doms))

            if dominating:
                for u, ws in links:
                    if not dom[u]:
                        dom[u] = any(status[w] != NONE for w in ws)
                dom[z] = dom[a] and dom[b]
            elif any(FULL not in (status[x], status[w]) for x, w in internal):
                continue
            status[z] = status[a] if status[a] == status[b] else PARTIAL
            key = (tuple(status[v] for v in merged),
                   tuple(dom[v] for v in merged) if dominating else ())
            if size < joint.get(key, g.n + 1):
                joint[key] = size

        for cid in cids:
            del tables[cid], members[cid]
        tables[z] = joint
        members[z] = merged
        for v in merged:
            comp[v] = z

    (table,) = tables.values()
    return min(v for (_, doms), v in table.items() if all(doms))
