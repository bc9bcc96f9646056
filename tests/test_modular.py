"""Modular decomposition and quotients."""

import random

import pytest

from twinwidth.trigraph import Graph, is_module, quotient
from twinwidth.modular import (
    ModularPartition,
    maximal_modular_partition,
    trace_classes,
)


def test_disconnected_graph_splits_into_components():
    g = Graph([1, 2, 3, 4], [(1, 2), (3, 4)])
    mp = maximal_modular_partition(g)
    assert mp.kind == "components"
    assert mp.parts == (frozenset([1, 2]), frozenset([3, 4]))
    assert not mp.is_trivial


def test_join_splits_into_cocomponents():
    g = Graph.cycle(4)  # complement of 2K2
    mp = maximal_modular_partition(g)
    assert mp.kind == "cocomponents"
    assert mp.parts == (frozenset([1, 3]), frozenset([2, 4]))


def test_prime_path():
    mp = maximal_modular_partition(Graph.path(4))
    assert mp.kind == "maximal"
    assert mp.is_trivial
    mp = maximal_modular_partition(Graph.cycle(6))
    assert mp.kind == "maximal"
    assert mp.is_trivial


def test_small_graphs_not_prime():
    # below four vertices the graph or its complement is disconnected
    for g in (Graph.complete(3), Graph([1, 2], [(1, 2)]), Graph.path(3)):
        assert maximal_modular_partition(g).kind != "maximal"


def test_maximal_modules_found():
    # C5 with 6 duplicating 1 (same open neighborhood): {1, 6} is the
    # only nontrivial maximal proper module
    g = Graph(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (6, 2), (6, 5)])
    mp = maximal_modular_partition(g)
    assert mp.kind == "maximal"
    assert frozenset([1, 6]) in mp.parts
    assert len(mp.parts) == 5
    for p in mp.parts:
        assert is_module(g, set(p))
    q = quotient(g, mp.parts)
    assert q.red_edges() == []
    assert q.total_graph().edge_count() == 5  # quotient is again a 5-cycle


def test_single_vertex_rejected():
    with pytest.raises(ValueError):
        maximal_modular_partition(Graph([1]))


def test_partition_quotient_requires_modules():
    # the no-red-edge checks below catch a partition into non-modules
    g = Graph.path(4)
    fake = ModularPartition((frozenset([1, 2]), frozenset([3, 4])), "maximal")
    assert quotient(g, fake.parts).red_edges() == [(1, 2)]


def test_trace_classes():
    g = Graph.path(4)
    tc = trace_classes(g, {2, 3})
    assert tc == {frozenset([2]): [1], frozenset([3]): [4]}
    star = Graph(range(1, 5), [(1, 2), (1, 3), (1, 4)])
    tc = trace_classes(star, {1})
    assert tc == {frozenset([1]): [2, 3, 4]}
    with pytest.raises(ValueError):
        trace_classes(g, {9})


def test_trace_classes_with_nonneighbors():
    g = Graph(range(1, 6), [(1, 2), (2, 3), (3, 4)])
    tc = trace_classes(g, {2, 3})
    assert tc[frozenset()] == [5]
    assert tc[frozenset([2])] == [1]
    assert tc[frozenset([3])] == [4]


def test_parts_are_modules_on_random_graphs():
    rng = random.Random(7311)
    for _ in range(40):
        n = rng.randint(2, 10)
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < rng.choice([0.2, 0.5, 0.8])]
        g = Graph(range(1, n + 1), edges)
        mp = maximal_modular_partition(g)
        seen = set()
        for p in mp.parts:
            assert is_module(g, set(p))
            assert not (seen & p)
            seen |= p
        assert seen == g.vertices
        if mp.kind == "maximal" and not mp.is_trivial:
            assert quotient(g, mp.parts).red_edges() == []
