"""The maximal modular partition as it was before partition refinement.

Two differential references for
twinwidth.modular.maximal_modular_partition, each kept verbatim but
for its names:

  * maximal_modular_partition, the greedy rule: each class is grown
    from its least vertex, and the closure restarts its scan after every
    vertex it absorbs;
  * pairwise_maximal_modular_partition, the pairwise rule that replaced
    it: u joins the class of v when the smallest module holding both is
    not V, each closure absorbing all splitters of a round at once.
"""

from typing import List, Set

from twinwidth.modular import ModularPartition
from twinwidth.trigraph import Graph, is_module, validate_partition


def _closure(g: Graph, seed: Set[int]) -> Set[int]:
    """Smallest module containing seed: repeatedly absorb splitters."""
    mod = set(seed)
    changed = True
    while changed:
        changed = False
        for w in g.vertices - mod:
            inter = g.adj[w] & mod
            if inter and inter != mod:
                mod.add(w)
                changed = True
                break
    return mod


def _maximal_proper_module(g: Graph, v: int) -> Set[int]:
    """Largest module containing v that is not all of V (may be {v})."""
    best = {v}
    for u in sorted(g.vertices - {v}):
        cand = _closure(g, best | {u})
        if cand != g.vertices:
            best = cand
    return best


def maximal_modular_partition(g: Graph) -> ModularPartition:
    if g.n <= 1:
        raise ValueError("modular partition needs at least two vertices")
    comps = g.components()
    if len(comps) > 1:
        parts = tuple(frozenset(c) for c in sorted(comps, key=min))
        return ModularPartition(parts, "components")
    cocomps = g.complement().components()
    if len(cocomps) > 1:
        parts = tuple(frozenset(c) for c in sorted(cocomps, key=min))
        return ModularPartition(parts, "cocomponents")

    # both connected: grow a maximal proper module from each uncovered vertex
    parts_list: List[Set[int]] = []
    covered: Set[int] = set()
    for v in sorted(g.vertices):
        if v in covered:
            continue
        m = _maximal_proper_module(g, v)
        if not is_module(g, m):
            raise AssertionError("grown set is not a module")
        if m & covered:
            raise AssertionError("maximal modules overlapped")
        parts_list.append(m)
        covered |= m
    if covered != g.vertices:
        raise AssertionError("maximal modules do not cover the graph")
    parts = tuple(frozenset(p) for p in sorted(parts_list, key=min))
    validate_partition(g.vertices, [set(p) for p in parts])
    return ModularPartition(parts, "maximal")


def _pairwise_closure(g: Graph, seed: Set[int]) -> Set[int]:
    """Smallest module containing seed.

    Each round absorbs every splitter at once (a vertex seeing some but
    not all of the set): any module holding the set must hold them too.
    """
    mod = set(seed)
    while True:
        size = len(mod)
        splitters = {w for w in g.vertices - mod if 0 < len(g.adj[w] & mod) < size}
        if not splitters:
            return mod
        mod |= splitters


def pairwise_maximal_modular_partition(g: Graph) -> ModularPartition:
    if g.n <= 1:
        raise ValueError("modular partition needs at least two vertices")
    comps = g.components()
    if len(comps) > 1:
        parts = tuple(frozenset(c) for c in sorted(comps, key=min))
        return ModularPartition(parts, "components")
    cocomps = g.complement().components()
    if len(cocomps) > 1:
        parts = tuple(frozenset(c) for c in sorted(cocomps, key=min))
        return ModularPartition(parts, "cocomponents")

    # both connected: the class of v holds every u whose closure with v is proper
    parts_list: List[Set[int]] = []
    covered: Set[int] = set()
    rest = set(g.vertices)
    while rest:
        v = min(rest)
        m = {v} | {u for u in rest - {v} if _pairwise_closure(g, {u, v}) != g.vertices}
        if not is_module(g, m):
            raise AssertionError("grown set is not a module")
        if m & covered:
            raise AssertionError("maximal modules overlapped")
        parts_list.append(m)
        covered |= m
        rest -= m
    if covered != g.vertices:
        raise AssertionError("maximal modules do not cover the graph")
    parts = tuple(frozenset(p) for p in sorted(parts_list, key=min))
    validate_partition(g.vertices, [set(p) for p in parts])
    return ModularPartition(parts, "maximal")
