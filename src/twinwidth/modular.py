"""Maximal modular partitions and trace classes.

A module of G is a vertex set whose members are indistinguishable from
outside: every other vertex sees all of it or none of it.  For a graph
with at least two vertices the maximal modular partition is

  * the connected components, when G is disconnected,
  * the co-components, when the complement is disconnected,
  * the maximal proper modules, when both are connected; in that case
    the quotient is prime (only trivial modules) and all-red edges play
    no role since distinct maximal modules see each other homogeneously.

In the last case the maximal proper modules are read off pairwise.  When
G and its complement are both connected, a module that is not V lies in
exactly one maximal proper module, and these partition V (Gallai).  So u
and v share a class exactly when the smallest module holding both is not
V: with v the least vertex not yet placed, its class is v together with
every unplaced u whose closure with v stops short of V.

Width composes over this partition: the width of G is the larger of the
quotient's width and the worst width among the parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from .trigraph import Graph, is_module, validate_partition


@dataclass(frozen=True)
class ModularPartition:
    parts: Tuple[FrozenSet[int], ...]
    kind: str  # "components" | "cocomponents" | "maximal"

    @property
    def is_trivial(self) -> bool:
        """All classes are singletons (the graph is prime or too small)."""
        return all(len(p) == 1 for p in self.parts)


def _closure(g: Graph, seed: Set[int]) -> Set[int]:
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

    # both connected: the class of v holds every u whose closure with v is proper
    parts_list: List[Set[int]] = []
    covered: Set[int] = set()
    rest = set(g.vertices)
    while rest:
        v = min(rest)
        m = {v} | {u for u in rest - {v} if _closure(g, {u, v}) != g.vertices}
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


def trace_classes(g: Graph, x: Set[int]) -> Dict[FrozenSet[int], List[int]]:
    """Group the vertices outside x by their neighbourhood inside x.

    Returned keys are trace sets (frozen subsets of x), values sorted
    vertex lists.  Vertices with empty trace are included under
    frozenset().
    """
    if not x <= g.vertices:
        raise ValueError("trace base is not a subset of the vertices")
    out: Dict[FrozenSet[int], List[int]] = {}
    for v in sorted(g.vertices - x):
        key = frozenset(g.adj[v] & x)
        out.setdefault(key, []).append(v)
    return out
