"""Graph/trigraph basics and the contraction rule."""

import copy
import itertools
import pickle
import random

import pytest

import trigraph_reference as reference
from gen_tww1 import random_tww1
from twinwidth import trigraph
from twinwidth.sequence import walk
from twinwidth.trigraph import (
    Graph,
    Trigraph,
    contract,
    is_module,
    quotient,
    validate_partition,
)


def test_graph_construction_and_accessors():
    g = Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
    assert g.n == 4
    assert g.adj[2] == {1, 3}
    assert len(g.adj[1]) == 1
    assert 2 in g.adj[3]
    assert 4 not in g.adj[1]
    assert list(g.edges()) == [(1, 2), (2, 3), (3, 4)]
    assert g.edge_count() == 3


def test_graph_rejects_loops_and_unknown_endpoints():
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 1)])
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 3)])


def test_graph_families():
    assert Graph.complete(4).edge_count() == 6
    assert Graph.path(5).edge_count() == 4
    assert Graph.cycle(5).edge_count() == 5
    with pytest.raises(ValueError):
        Graph.cycle(2)


def test_induced_without_complement():
    g = Graph.cycle(5)
    h = g.induced([1, 2, 3])
    assert h.vertices == {1, 2, 3}
    assert list(h.edges()) == [(1, 2), (2, 3)]
    assert g.without([4]).vertices == {1, 2, 3, 5}
    c = Graph.path(4).complement()
    assert list(c.edges()) == [(1, 3), (1, 4), (2, 4)]


def test_induced_matches_edge_filter_reference():
    # the reference filters every edge of g; induced reads only the kept
    # vertices' adjacency
    rng = random.Random(1717)
    for _ in range(200):
        n = rng.randint(1, 12)
        g = Graph(range(1, n + 1), [e for e in itertools.combinations(range(1, n + 1), 2)
                                    if rng.random() < 0.4])
        keep = set(rng.sample(sorted(g.vertices), rng.randint(1, n)))
        ref = Graph(keep, [(u, v) for u, v in g.edges() if u in keep and v in keep])
        h = g.induced(keep)
        assert h == ref


def _seeded_graphs(seed, count):
    # ids drawn from 1..120, so that sets of ints collide and their
    # iteration order depends on how they were filled
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 40)
        ids = rng.sample(range(1, 121), n)
        p = rng.choice([0.1, 0.3, 0.5, 0.8])
        yield rng, Graph(ids, [e for e in itertools.combinations(ids, 2) if rng.random() < p])


def _graph_tables(vertices, edges):
    g = Graph(vertices, edges)
    return g.vertices, g.adj


def _trigraph_tables(vertices, black_edges=(), red_edges=()):
    t = Trigraph(vertices, black_edges, red_edges)
    return t.vertices, t.black, t.red


def _built(build, *args):
    """What build(*args) gives, as a vertex set and its tables, or its
    error text."""
    try:
        vertices, *tables = build(*args)
    except ValueError as exc:
        return str(exc)
    return [set(vertices)] + [dict(t) for t in tables]


CLASH = "vertex %d has an edge that is both black and red"


def _least_clash(vertices, black_edges=(), red_edges=()):
    """The clash error naming the least vertex on an edge given both
    black and red."""
    black = set(map(frozenset, black_edges))
    return CLASH % min(v for e in red_edges if frozenset(e) in black for v in e)


def test_constructors_match_per_edge_reference():
    # seeded edge lists on scattered ids, in random order and direction,
    # some repeating an edge reversed and some carrying a loop or an
    # unknown endpoint at a random position
    rng = random.Random(5353)
    errors = 0
    for trial in range(600):
        n = rng.randint(0, 30)
        ids = rng.sample(range(1, 121), n)
        edges = [(u, v) if rng.random() < 0.5 else (v, u)
                 for u, v in itertools.combinations(ids, 2) if rng.random() < 0.3]
        rng.shuffle(edges)
        if edges and trial % 4 == 1:
            edges.append(edges[rng.randrange(len(edges))][::-1])
        if trial % 4 == 2:
            x = rng.choice(ids) if ids else 1
            bad = (x, x) if rng.random() < 0.5 else (x, 121 + rng.randrange(10))
            edges.insert(rng.randint(0, len(edges)), bad[::rng.choice((1, -1))])
        half = rng.randint(0, len(edges))
        for fast, slow, args in (
                (_graph_tables, reference.graph_adjacency, (ids, edges)),
                (_trigraph_tables, reference.trigraph_tables, (ids, edges)),
                (_trigraph_tables, reference.trigraph_tables, (ids, (), edges)),
                (_trigraph_tables, reference.trigraph_tables, (ids, edges[:half], edges[half:]))):
            got, want = _built(fast, *args), _built(slow, *args)
            if isinstance(want, str) and want.endswith("both black and red"):
                # the reference names the first clashing vertex in its
                # set's order, which is no contract; the constructor
                # names the least
                want = _least_clash(*args)
            assert got == want
            errors += isinstance(got, str)
    assert errors > 300


def test_induced_and_complement_match_edge_by_edge_reference():
    for rng, g in _seeded_graphs(4040, 600):
        keep = rng.sample(sorted(g.vertices), rng.randint(0, g.n))
        for h, ref in ((g.induced(keep), reference.induced(g, keep)),
                       (g.complement(), reference.complement(g))):
            assert h == ref
    with pytest.raises(ValueError, match="not a subset"):
        Graph.path(3).induced([1, 4])


def test_induced_and_complement_add_no_edge_one_at_a_time(monkeypatch):
    # counted guard: the copies fill their adjacency sets directly,
    # never through the checked per-edge builder
    added = [0]
    build = trigraph._adjacency

    def counted(vertices, edges):
        added[0] += 1
        return build(vertices, edges)

    monkeypatch.setattr(trigraph, "_adjacency", counted)
    graphs = [g for _, g in _seeded_graphs(4141, 40)]
    assert added[0] == 40
    added[0] = 0
    for g in graphs:
        g.induced(sorted(g.vertices)[::2])
        g.without(sorted(g.vertices)[:1])
        g.complement()
    assert added[0] == 0


def test_induced_and_complement_share_no_set_with_the_parent():
    for _, g in _seeded_graphs(4242, 40):
        if g.n < 2:
            continue
        before = {v: set(s) for v, s in g.adj.items()}
        vertices = set(g.vertices)
        for h in (g.induced(g.vertices), g.complement()):
            for v in h.adj:
                h.adj[v].add(-v)
            h.adj[0] = set()
            assert g.adj == before and g.vertices == vertices


def test_components_and_relabel():
    g = Graph([1, 2, 5, 7, 9], [(5, 7), (9, 7)])
    assert g.components() == [{1}, {2}, {5, 7, 9}]
    assert not g.is_connected()
    h, names = g.relabel_compact()
    assert h.vertices == {1, 2, 3, 4, 5}
    assert names == {1: 1, 2: 2, 5: 3, 7: 4, 9: 5}
    assert 4 in h.adj[3] and 5 in h.adj[4]


def test_trigraph_validation():
    t = Trigraph([1, 2, 3], black_edges=[(1, 2)], red_edges=[(2, 3)])
    assert len(t.red[2]) == 1
    assert max(len(t.red[v]) for v in t.vertices) == 1
    with pytest.raises(ValueError):
        Trigraph([1, 2], black_edges=[(1, 2)], red_edges=[(1, 2)])
    with pytest.raises(ValueError):
        Trigraph([1, 2], red_edges=[(1, 3)])
    with pytest.raises(ValueError):
        Trigraph([1, 2], black_edges=[(2, 2)])


def test_from_graph_round_trip():
    g = Graph.cycle(4)
    t = Trigraph.from_graph(g)
    assert reference.edge_list(t.red) == []
    assert t.black == g.adj
    assert t.vertices == {1, 2, 3, 4}
    assert reference.edge_list(t.black) == list(g.edges())


def test_graphs_and_trigraphs_survive_pickle_and_deepcopy():
    # a graph, a trigraph part way through a walk and a read-only view
    # of the graph each come back equal, with the vertices in the same
    # order, sharing no table with the original (a rebuilt set may
    # iterate its members in another order)
    rng = random.Random(6464)
    for _ in range(30):
        g, seq = random_tww1(rng.randint(2, 14), rng)
        states = walk(g, seq)
        for _ in range(rng.randint(1, len(seq)) + 1):
            t = next(states)
        for x in (g, t, Trigraph._view(g)):
            copies = [pickle.loads(pickle.dumps(x, protocol))
                      for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
            theirs = (x.adj,) if isinstance(x, Graph) else (x.black, x.red)
            for back in copies + [copy.deepcopy(x)]:
                assert type(back) is type(x)
                own = (back.adj,) if isinstance(back, Graph) else (back.black, back.red)
                assert own == theirs and list(back.vertices) == list(x.vertices)
                assert not {id(d) for d in own} & {id(d) for d in theirs}


def test_contract_merges_neighborhoods():
    # one shared black neighbor, one private each
    g = Graph([1, 2, 3, 4, 5], [(1, 3), (2, 3), (1, 4), (2, 5)])
    t = contract(Trigraph.from_graph(g), 1, 2)
    z = 6
    assert t.vertices == {3, 4, 5, z}
    assert t.black[z] == {3}
    assert t.red[z] == {4, 5}
    # 1 and 2 are gone and no id up to z comes back
    for stale in (1, 2):
        with pytest.raises(ValueError, match="not fresh"):
            contract(t, 3, 4, z=stale)
    assert contract(t, 3, 4).vertices == {5, 6, 7}


def test_contract_shared_neighbor_goes_red_unless_black_on_both_sides():
    # x is black to u but red to v, so the merged edge must be red
    t = Trigraph([1, 2, 3], black_edges=[(1, 3)], red_edges=[(2, 3)])
    t2 = contract(t, 1, 2)
    assert t2.red[4] == {3}
    assert t2.black[4] == set()


def test_contract_drops_edge_between_contracted_pair():
    t = Trigraph.from_graph(Graph([1, 2], [(1, 2)]))
    t2 = contract(t, 1, 2)
    assert t2.vertices == {3}
    assert len(t2.red[3]) == 0


def test_contract_rejects_dead_or_reused_ids():
    t = Trigraph.from_graph(Graph.path(3))
    t2 = contract(t, 1, 2)
    with pytest.raises(ValueError):
        contract(t2, 4, 3, z=1)  # 1 was used before
    with pytest.raises(ValueError):
        contract(t2, 1, 3)  # 1 is gone
    with pytest.raises(ValueError):
        contract(t2, 3, 3)


def test_contract_mixed_neighborhood_example():
    # u: black to 4,7,8,10,12,13 and red to 3,9,11
    # v: black to 7,8,9,12,13,5 and red to 10,11,6
    black = [(1, 4), (1, 7), (1, 8), (1, 10), (1, 12), (1, 13),
             (2, 7), (2, 8), (2, 9), (2, 12), (2, 13), (2, 5)]
    red = [(1, 3), (1, 9), (1, 11), (2, 10), (2, 11), (2, 6)]
    t = Trigraph(range(1, 14), black_edges=black, red_edges=red)
    t2 = contract(t, 1, 2)
    z = 14
    assert t2.black[z] == {7, 8, 12, 13}
    assert t2.red[z] == {3, 4, 5, 6, 9, 10, 11}
    assert len(t2.red[z]) == 7


def test_contract_against_naive_recomputation():
    rng = random.Random(4821)
    for _ in range(40):
        n = rng.randint(4, 9)
        verts = list(range(1, n + 1))
        black, red = [], []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                r = rng.random()
                if r < 0.3:
                    black.append((i, j))
                elif r < 0.45:
                    red.append((i, j))
        t = Trigraph(verts, black_edges=black, red_edges=red)
        u, v = rng.sample(verts, 2)
        t2 = contract(t, u, v)
        z = n + 1
        expect_black = set()
        expect_red = set()
        for x in (t.neighbors(u) | t.neighbors(v)) - {u, v}:
            if x in t.black[u] and x in t.black[v]:
                expect_black.add(x)
            else:
                expect_red.add(x)
        assert t2.black[z] == expect_black
        assert t2.red[z] == expect_red
        # untouched vertices keep their relations
        for x in verts:
            if x in (u, v):
                continue
            assert t2.black[x] - {z} == t.black[x] - {u, v}
            assert t2.red[x] - {z} == t.red[x] - {u, v}


def test_is_module():
    g = Graph([1, 2, 3, 4], [(1, 2), (1, 3), (2, 3), (3, 4)])
    assert is_module(g, {1, 2})
    assert not is_module(g, {2, 3})
    with pytest.raises(ValueError):
        is_module(g, {1, 5})


def test_validate_partition():
    validate_partition({1, 2, 3}, [{1}, {2, 3}])
    with pytest.raises(ValueError):
        validate_partition({1, 2, 3}, [{1}, {2}])
    with pytest.raises(ValueError):
        validate_partition({1, 2}, [{1}, {1, 2}])
    with pytest.raises(ValueError):
        validate_partition({1, 2}, [{1}, {2}, set()])


def test_quotient_colors():
    g = Graph.cycle(6)
    q = quotient(g, [{1, 4}, {2, 5}, {3, 6}])
    assert q.vertices == {1, 2, 3}
    assert reference.edge_list(q.black) == []
    assert sorted(reference.edge_list(q.red)) == [(1, 2), (1, 3), (2, 3)]
    # class i becomes vertex i + 1
    p = quotient(Graph.path(4), [{4}, {1, 2}, {3}])
    assert reference.edge_list(p.black) == [(1, 3)]
    assert reference.edge_list(p.red) == [(2, 3)]


def test_quotient_of_modules_has_no_red():
    g = Graph([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4)])
    q = quotient(g, [{1}, {2, 3, 4}])
    assert reference.edge_list(q.red) == []
    assert reference.edge_list(q.black) == [(1, 2)]


def test_quotient_order_independent():
    g = Graph.path(6)
    a = quotient(g, [{1, 2}, {3, 4}, {5, 6}])
    b = quotient(g, [{5, 6}, {1, 2}, {3, 4}])
    # classes are numbered by position (class i is vertex i + 1), so
    # compare the colored relations between the classes themselves
    def canon(t, parts):
        bag = {i + 1: frozenset(p) for i, p in enumerate(parts)}
        rel = {}
        for x in t.vertices:
            for y in t.black[x]:
                rel[frozenset([bag[x], bag[y]])] = "black"
            for y in t.red[x]:
                rel[frozenset([bag[x], bag[y]])] = "red"
        return rel
    assert canon(a, [{1, 2}, {3, 4}, {5, 6}]) == canon(b, [{5, 6}, {1, 2}, {3, 4}])


def _pairwise_quotient(g, parts):
    """Reference: intersect every pair of classes."""
    sets = [set(p) for p in parts]
    black, red = [], []
    for i, j in itertools.combinations(range(len(sets)), 2):
        cnt = sum(len(g.adj[x] & sets[j]) for x in sets[i])
        if cnt == len(sets[i]) * len(sets[j]):
            black.append((i + 1, j + 1))
        elif cnt:
            red.append((i + 1, j + 1))
    return Trigraph(range(1, len(sets) + 1), black, red)


def test_quotient_matches_pairwise_scan():
    rng = random.Random(3131)
    for _ in range(300):
        n = rng.randint(1, 14)
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < rng.choice([0.1, 0.5, 0.9])]
        g = Graph(range(1, n + 1), edges)
        order = list(g.vertices)
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        parts = [set(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
        q, ref = quotient(g, parts), _pairwise_quotient(g, parts)
        assert q.vertices == ref.vertices
        assert reference.edge_list(q.black) == reference.edge_list(ref.black)
        assert reference.edge_list(q.red) == reference.edge_list(ref.red)
