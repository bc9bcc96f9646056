"""Modular decomposition and quotients."""

import itertools
import random

import pytest

import modular_reference as reference
from trigraph_reference import edge_list
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
    assert edge_list(q.red) == []
    assert len(edge_list(q.black)) == 5  # quotient is again a 5-cycle


def test_single_vertex_rejected():
    with pytest.raises(ValueError):
        maximal_modular_partition(Graph([1]))


def test_partition_quotient_requires_modules():
    # the no-red-edge checks below catch a partition into non-modules
    g = Graph.path(4)
    fake = ModularPartition((frozenset([1, 2]), frozenset([3, 4])), "maximal")
    assert edge_list(quotient(g, fake.parts).red) == [(1, 2)]


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
            assert edge_list(quotient(g, mp.parts).red) == []


def _all_graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(range(1, n + 1), [e for i, e in enumerate(pairs) if mask >> i & 1])


def _same_partition(g):
    if g.n <= 1:
        with pytest.raises(ValueError):
            maximal_modular_partition(g)
        with pytest.raises(ValueError):
            reference.maximal_modular_partition(g)
        return
    assert maximal_modular_partition(g) == reference.maximal_modular_partition(g), \
        sorted(g.edges())


def test_partition_matches_reference_on_small_and_random_graphs():
    count = 0
    for n in range(1, 6):
        for g in _all_graphs(n):
            _same_partition(g)
            count += 1
    assert count == 1 + 2 + 8 + 64 + 1024
    rng = random.Random(7707)
    for _ in range(400):
        n = rng.randint(6, 12)
        density = rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < density]
        _same_partition(Graph(range(1, n + 1), edges))


# prime skeletons: every class of a graph substituted into one is a
# maximal proper module, so the prime branch gets classes of any size
SKELETONS = {
    "P4": (4, [(1, 2), (2, 3), (3, 4)]),
    "C5": (5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]),
    "bull": (5, [(1, 2), (2, 3), (1, 3), (1, 4), (2, 5)]),
}


def _substituted(rng, size, skeleton_edges, largest=4):
    """Random graphs of 1..largest vertices put in place of the
    skeleton's vertices, under a random labelling; returns the graph and
    its blocks."""
    sizes = [rng.randint(1, largest) for _ in range(size)]
    labels = list(range(1, sum(sizes) + 1))
    rng.shuffle(labels)
    blocks, at = [], 0
    for s in sizes:
        blocks.append(labels[at:at + s])
        at += s
    edges = []
    for block in blocks:
        edges += [e for e in itertools.combinations(block, 2) if rng.random() < 0.5]
    for a, b in skeleton_edges:
        edges += [(u, v) for u in blocks[a - 1] for v in blocks[b - 1]]
    return Graph(labels, edges), {frozenset(b) for b in blocks}


def test_partition_matches_reference_on_substituted_prime_graphs():
    rng = random.Random(5150)
    big = 0
    for name, (size, skeleton_edges) in sorted(SKELETONS.items()):
        for _ in range(100):
            g, blocks = _substituted(rng, size, skeleton_edges)
            mp = maximal_modular_partition(g)
            assert mp.kind == "maximal", name
            assert set(mp.parts) == blocks, name
            assert mp == reference.maximal_modular_partition(g)
            big += not mp.is_trivial
    assert big >= 250  # the prime branch really saw classes above one vertex


def _pairwise_agrees(g):
    mp = maximal_modular_partition(g)
    assert mp == reference.pairwise_maximal_modular_partition(g), sorted(g.edges())
    return mp


def test_partition_matches_pairwise_reference_on_all_graphs_up_to_six():
    count = 0
    for n in range(2, 7):
        for g in _all_graphs(n):
            _pairwise_agrees(g)
            count += 1
    assert count == 2 + 8 + 64 + 1024 + 32768


def _nested(rng):
    """A prime skeleton whose first block, and some others, are
    substituted prime graphs themselves, the rest small random graphs;
    the least label lies in the first block.  Returns the graph and its
    top-level blocks."""
    size, skeleton_edges = SKELETONS[rng.choice(sorted(SKELETONS))]
    blocks = []
    for i in range(size):
        if i == 0 or rng.random() < 0.4:
            inner_size, inner_edges = SKELETONS[rng.choice(sorted(SKELETONS))]
            blocks.append(_substituted(rng, inner_size, inner_edges, largest=2)[0])
        else:
            blocks.append(_substituted(rng, 1, [], largest=3)[0])
    labels = list(range(2, sum(b.n for b in blocks) + 1))
    rng.shuffle(labels)
    labels.insert(rng.randrange(blocks[0].n), 1)
    at, edges, named = 0, [], []
    for b in blocks:
        name = dict(zip(sorted(b.vertices), labels[at:at + b.n]))
        at += b.n
        named.append(list(name.values()))
        edges += [(name[u], name[v]) for u, v in b.edges()]
    for a, b in skeleton_edges:
        edges += [(u, v) for u in named[a - 1] for v in named[b - 1]]
    return Graph(labels, edges), {frozenset(p) for p in named}


def test_partition_matches_pairwise_reference_on_nested_substitutions():
    rng = random.Random(1515)
    for _ in range(300):
        g, blocks = _nested(rng)
        mp = _pairwise_agrees(g)
        assert mp.kind == "maximal"
        assert set(mp.parts) == blocks
        assert len(mp.parts[0]) >= 4  # the least vertex's class is a prime graph


def test_partition_matches_pairwise_reference_on_random_graphs():
    rng = random.Random(1516)
    kinds = set()
    for _ in range(40):
        n = rng.randint(10, 60)
        p = rng.choice([0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9])
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < p]
        kinds.add(_pairwise_agrees(Graph(range(1, n + 1), edges)).kind)
    assert kinds == {"components", "cocomponents", "maximal"}


def test_paths_and_cycles_up_to_sixty():
    # each P_n (n >= 4) and C_n (n >= 5) is prime; the reference, cubic
    # in n and more, is run on every n up to 30 and then every tenth
    for n in range(4, 61):
        for g in (Graph.path(n), Graph.cycle(n)):
            mp = (_pairwise_agrees(g) if n <= 30 or n % 10 == 0
                  else maximal_modular_partition(g))
            if g.n == 4 and g.edge_count() == 4:
                assert mp.kind == "cocomponents"
            else:
                assert mp.kind == "maximal" and mp.is_trivial


def test_module_check_survives_optimize_flag(run_optimized):
    # on the prime P4 a class {1, 3} is split by 4; the check must fire
    # when asserts are stripped
    proc = run_optimized(
        "from twinwidth import modular\n"
        "from twinwidth.trigraph import Graph\n"
        "modular._classes = lambda g, v, parts: [{2}, {4}, {1, 3}]\n"
        "modular.maximal_modular_partition(Graph.path(4))\n")
    assert proc.returncode == 1
    assert "InternalError: grown set is not a module" in proc.stderr


def test_forcing_check_survives_optimize_flag(run_optimized):
    # parts {2, 3} and {4} of P4 are not modules: neither tells the other
    # from 1, so no part forces the whole graph
    proc = run_optimized(
        "from twinwidth import modular\n"
        "from twinwidth.trigraph import Graph\n"
        "modular._modules_avoiding = lambda g, v: [{2, 3}, {4}]\n"
        "modular.maximal_modular_partition(Graph.path(4))\n")
    assert proc.returncode == 1
    assert "InternalError: no part forces the whole graph" in proc.stderr
