"""Sequence validation, label merges, replay, and width measurement."""

import itertools
import random

import pytest

from twinwidth import sequence
from twinwidth.trigraph import Graph, Trigraph, contract, quotient
from twinwidth.sequence import (
    ContractionSequence,
    final_trigraph,
    replay,
    verify,
    walk,
)
from twinwidth.recognize import recognize_tww1
from twinwidth.gadgets import LayoutClause, LayoutFormula, halfgraph_cycle, reduce_3sat
from twinwidth.compose import or_cross_compose
from twinwidth.oracle import exact_twinwidth
from twinwidth.dpsolve import check_component_bound, min_ds_dp, min_vc_dp

from gen_tww1 import random_tww1
import sequence_reference as reference
from trigraph_reference import edge_list


def test_fresh_id_discipline():
    ContractionSequence(4, [(5, 1, 2), (6, 5, 3), (7, 6, 4)])
    with pytest.raises(ValueError):
        ContractionSequence(4, [(6, 1, 2)])
    with pytest.raises(ValueError):
        ContractionSequence(4, [(5, 1, 1)])
    with pytest.raises(ValueError):
        ContractionSequence(4, [(5, 1, 2), (6, 1, 3)])  # 1 already gone
    with pytest.raises(ValueError):
        ContractionSequence(0, [])


def test_more_steps_than_a_full_sequence_is_rejected():
    with pytest.raises(ValueError, match="more steps than a full sequence allows"):
        ContractionSequence(2, [(3, 1, 2), (4, 3, 1)])


def test_from_merges_numbers_label_merges():
    # the merged bag keeps the smaller label; an unmerged label is its vertex
    seq = ContractionSequence.from_merges(4, [(3, 4), (1, 2), (1, 3)])
    assert seq == ContractionSequence(4, [(5, 3, 4), (6, 1, 2), (7, 6, 5)])
    assert seq.merges() == [(3, 4), (1, 2), (1, 3)]
    assert ContractionSequence.from_merges(4, [(4, 3)]).steps == ((5, 4, 3),)


@pytest.mark.parametrize("pairs", [[(1, 2), (2, 3)],  # 2 was merged away
                                   [(1, 1)],
                                   [(1, 2), (1, 2)]])
def test_from_merges_rejects_dead_labels(pairs):
    with pytest.raises(ValueError, match="not two live vertices"):
        ContractionSequence.from_merges(4, pairs)


def test_is_full_and_prefix():
    seq = ContractionSequence(3, [(4, 1, 2), (5, 4, 3)])
    assert seq.is_full
    assert len(seq) == 2
    p = ContractionSequence(3, seq.steps[:1])
    assert not p.is_full
    assert p.steps == ((4, 1, 2),)


def test_cycle5_width_two():
    seq = ContractionSequence(5, [(6, 1, 2), (7, 6, 3), (8, 7, 4), (9, 8, 5)])
    rep = verify(Graph.cycle(5), seq)
    assert rep.width == 2
    assert rep.argmax_step == 0
    assert rep.ok
    assert verify(Graph.cycle(5), seq, bound=2).ok
    bad = verify(Graph.cycle(5), seq, bound=1)
    assert not bad.ok
    assert bad.violation[0] == 0


def test_path4_width_one():
    # contract the two ends of each anti-edge pair, then the rest
    seq = ContractionSequence(4, [(5, 1, 3), (6, 2, 4), (7, 5, 6)])
    rep = verify(Graph.path(4), seq)
    assert rep.width == 1
    assert rep.ok


def test_complete_graph_width_zero():
    g = Graph.complete(5)
    seq = ContractionSequence(5, [(6, 1, 2), (7, 3, 4), (8, 6, 7), (9, 8, 5)])
    rep = verify(g, seq)
    assert rep.width == 0
    assert rep.argmax_step == -1


def test_initial_trigraph_counts_toward_width():
    t = Trigraph([1, 2, 3], red_edges=[(1, 2), (1, 3)])
    seq = ContractionSequence(3, [(4, 2, 3)])
    rep = verify(t, seq, bound=1)
    assert rep.width == 2
    assert rep.violation == (-1, 1, 2)


def test_replay_and_final_trigraph():
    g = Graph.cycle(5)
    seq = ContractionSequence(5, [(6, 1, 2), (7, 6, 3), (8, 7, 4), (9, 8, 5)])
    states = replay(g, seq)
    assert len(states) == 5
    assert states[0].vertices == {1, 2, 3, 4, 5}
    last = final_trigraph(g, seq)
    assert last.vertices == {9}
    assert edge_list(last.red) == [] and edge_list(last.black) == []
    assert seq.owners() == dict.fromkeys([1, 2, 3, 4, 5], 9)


def test_verify_needs_matching_vertex_set():
    seq = ContractionSequence(3, [(4, 1, 2)])
    with pytest.raises(ValueError):
        verify(Graph([2, 3, 4], [(2, 3)]), seq)


def _random_full_sequence(rng, n):
    live = list(range(1, n + 1))
    steps = []
    z = n + 1
    while len(live) > 1:
        u, v = rng.sample(live, 2)
        steps.append((z, u, v))
        live.remove(u)
        live.remove(v)
        live.append(z)
        z += 1
    return ContractionSequence(n, steps)


def test_incremental_width_matches_full_recompute():
    rng = random.Random(12345)
    for _ in range(30):
        n = rng.randint(3, 9)
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.4]
        g = Graph(range(1, n + 1), edges)
        seq = _random_full_sequence(rng, n)
        rep = verify(g, seq)
        # from-scratch maximum over every replayed state
        widths = [max((len(t.red[v]) for v in t.vertices), default=0)
                  for t in replay(g, seq)]
        assert rep.width == max(widths)
        assert rep.argmax_step == widths.index(rep.width) - 1


def test_final_bags_match_replayed_bags():
    # owners() sends each vertex to the bag that the forward union of
    # the reference puts it in, and a trigraph reached by contractions
    # is the quotient of the partition into its bags, whatever the
    # contraction order
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(1, 10)
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.4]
        g = Graph(range(1, n + 1), edges)
        full = _random_full_sequence(rng, n)
        for k in sorted({0, rng.randint(0, len(full)), len(full)}):
            seq = ContractionSequence(n, full.steps[:k])
            bags = reference.final_bags(seq)
            assert seq.owners() == {v: z for z, bag in bags.items() for v in bag}
            ids = sorted(bags)
            q = quotient(g, [bags[v] for v in ids])
            t = final_trigraph(g, seq)
            assert t.vertices == set(ids)
            relabel = [(ids[a - 1], ids[b - 1]) for a, b in edge_list(q.black)]
            assert sorted(relabel) == edge_list(t.black)
            relabel = [(ids[a - 1], ids[b - 1]) for a, b in edge_list(q.red)]
            assert sorted(relabel) == edge_list(t.red)


def test_width_monotone_under_prefix():
    rng = random.Random(999)
    for _ in range(10):
        n = 8
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.5]
        g = Graph(range(1, n + 1), edges)
        seq = _random_full_sequence(rng, n)
        widths = [verify(g, ContractionSequence(n, seq.steps[:k])).width
                  for k in range(len(seq) + 1)]
        assert widths == sorted(widths)


def _state(t):
    return (set(t.vertices), {v: set(s) for v, s in t.black.items()},
            {v: set(s) for v, s in t.red.items()})


def _reference_contract(t, u, v, z):
    """The contraction rebuilt from edge lists, independent of the library."""
    black = [e for e in edge_list(t.black) if u not in e and v not in e]
    red = [e for e in edge_list(t.red) if u not in e and v not in e]
    for x in sorted((t.neighbors(u) | t.neighbors(v)) - {u, v}):
        (black if x in t.black[u] and x in t.black[v] else red).append((x, z))
    return Trigraph((t.vertices - {u, v}) | {z}, black, red)


def _random_trigraph(rng, n):
    black, red = [], []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            r = rng.random()
            if r < 0.35:
                black.append((i, j))
            elif r < 0.5:
                red.append((i, j))
    return Trigraph(range(1, n + 1), black, red)


def test_walk_states_equal_chain_of_pure_contractions():
    # the walk contracts in place; each state it yields, copied on the
    # spot, must equal the chain of copying contractions kept here
    rng = random.Random(7031)
    for _ in range(60):
        n = rng.randint(1, 12)
        start = _random_trigraph(rng, n)
        full = _random_full_sequence(rng, n)
        chain = [start]
        for z, u, v in full.steps:
            chain.append(contract(chain[-1], u, v, z))
            assert _state(chain[-1]) == _state(_reference_contract(chain[-2], u, v, z))
        before = _state(start)
        for k in sorted({0, rng.randint(0, len(full)), len(full)}):
            seq = ContractionSequence(n, full.steps[:k])
            expect = [_state(t) for t in chain[:k + 1]]
            assert [_state(t) for t in walk(start, seq)] == expect
            assert [_state(t) for t in replay(start, seq)] == expect
            assert _state(final_trigraph(start, seq)) == expect[-1]
            assert final_trigraph(start, seq) is not start
            verify(start, seq, bound=1)
            assert _state(start) == before


def _random_graph(rng, n):
    density = rng.choice((0.0, 0.2, 0.5, 0.9))
    return Graph(range(1, n + 1), [(i, j) for i in range(1, n + 1)
                                   for j in range(i + 1, n + 1) if rng.random() < density])


def test_walk_and_verify_match_reference():
    # the fast start trigraph, the unchecked in-place steps, the
    # incremental width scan and the quotient final trigraph against
    # the edge-list start, the checked steps, a from-scratch maximum
    # over every replayed state and the last state of a walk
    rng = random.Random(4410)
    for trial in range(80):
        n = rng.randint(1, 12)
        g = _random_graph(rng, n) if trial % 2 else _random_trigraph(rng, n)
        if isinstance(g, Graph):
            t = Trigraph.from_graph(g)
            assert _state(t) == _state(reference.from_graph(g))
            kept = {v: set(s) for v, s in g.adj.items()}
            for s in t.black.values():
                s.clear()
            assert g.adj == kept  # the black sets are copies
        full = _random_full_sequence(rng, n)
        for k in sorted({0, rng.randint(0, len(full)), len(full)}):
            seq = ContractionSequence(n, full.steps[:k])
            assert ([_state(t) for t in walk(g, seq)]
                    == [_state(t) for t in reference.walk(g, seq)])
            for bound in (None, 0, 1, 2, 3, 5):
                assert verify(g, seq, bound) == reference.verify(g, seq, bound)
            last = final_trigraph(g, seq)
            assert last is not g
            assert _state(last) == _state(reference.final_trigraph(g, seq))


def _starts_lacking_ids():
    """Starts for a 4-vertex sequence whose vertices are not 1..4."""
    return [Graph([1, 2, 3], [(1, 2)]), Trigraph([1, 2, 3, 5], [(1, 5)]),
            Graph(range(1, 6))]


def test_walk_rejects_ids_the_start_lacks():
    # every sequence starts from 1..n; a start with other ids is
    # rejected before any step, and left as it was
    seq = ContractionSequence(4, [(5, 1, 2), (6, 5, 3)])
    for start in _starts_lacking_ids():
        kept = set(start.vertices)
        for run in (lambda: list(walk(start, seq)), lambda: verify(start, seq),
                    lambda: final_trigraph(start, seq), lambda: replay(start, seq)):
            with pytest.raises(ValueError) as err:
                run()
            assert str(err.value) == "graph vertices must be exactly 1..4"
        assert start.vertices == kept


def test_walk_rejections_survive_optimize_flag(run_optimized):
    script = (
        "from test_sequence import _starts_lacking_ids\n"
        "from twinwidth.sequence import ContractionSequence, final_trigraph, verify\n"
        "from twinwidth.trigraph import Trigraph, contract\n"
        "seq = ContractionSequence(4, [(5, 1, 2)])\n"
        "for run in (verify, final_trigraph):\n"
        "    for start in _starts_lacking_ids():\n"
        "        try:\n"
        "            run(start, seq)\n"
        "        except ValueError as exc:\n"
        "            print(exc)\n"
        "t = contract(Trigraph([1, 2, 3], [(1, 2)]), 1, 2, 4)\n"
        "for u, v, z in ((3, 4, 2), (3, 4, 4), (1, 3, 5), (3, 7, 5)):\n"
        "    try:\n"
        "        contract(t, u, v, z)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["graph vertices must be exactly 1..4"] * 6 + [
        "contraction target id 2 is not fresh",
        "contraction target id 4 is not fresh",
        "contract on dead or unknown vertex (1, 3)",
        "contract on dead or unknown vertex (3, 7)",
    ]


def test_walk_copies_once(monkeypatch):
    # one checked, copying contract per walk; every later step is in
    # place and skips contract's freshness scan, and final_trigraph, a
    # quotient by the bags, contracts nothing
    calls = []

    def counted(t, u, v, z=None):
        calls.append(z)
        return contract(t, u, v, z)

    monkeypatch.setattr(sequence, "contract", counted)
    n = 30
    g = Graph.path(n)
    seq = ContractionSequence(n, [(n + 1, 1, 2)] + [(z, z - 1, z - n + 1)
                                                    for z in range(n + 2, 2 * n)])
    assert verify(g, seq).width == 1
    assert calls == [n + 1]
    assert len(final_trigraph(g, seq).vertices) == 1
    assert calls == [n + 1]
    verify(g, ContractionSequence(n, []))
    assert calls == [n + 1]


def test_start_graph_is_never_written():
    # a Graph start is walked as a view that shares its vertex set and
    # adjacency sets, so no consumer of a walk may write to it
    rng = random.Random(5150)
    for _ in range(40):
        g, seq = random_tww1(rng.randint(1, 12), rng)
        prefix = ContractionSequence(seq.n, seq.steps[:rng.randint(0, len(seq))])
        vertices, adj = set(g.vertices), {v: set(s) for v, s in g.adj.items()}
        # a width-1 witness keeps every red component within two vertices
        for run in (lambda: list(walk(g, seq)), lambda: verify(g, seq, bound=1),
                    lambda: replay(g, prefix), lambda: final_trigraph(g, prefix),
                    lambda: check_component_bound(g, seq),
                    lambda: min_ds_dp(g, seq, 2), lambda: min_vc_dp(g, seq, 2)):
            run()
            assert g.vertices == vertices and g.adj == adj


def assert_merges_round_trip(seq):
    """from_merges inverts merges(); the labels that no merge retires
    are the smallest vertices of the final bags."""
    assert ContractionSequence.from_merges(seq.n, seq.merges()) == seq
    retired = {max(pair) for pair in seq.merges()}
    assert (set(range(1, seq.n + 1)) - retired
            == {min(bag) for bag in reference.final_bags(seq).values()})


def test_merges_round_trip_random_sequences():
    rng = random.Random(88)
    for _ in range(60):
        n = rng.randint(1, 12)
        full = _random_full_sequence(rng, n)
        k = rng.randint(0, len(full))
        assert_merges_round_trip(full)
        assert_merges_round_trip(ContractionSequence(n, full.steps[:k]))
    for _ in range(40):
        assert_merges_round_trip(random_tww1(rng.randint(1, 12), rng)[1])


def test_merges_round_trip_recognition_witnesses():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(range(1, n + 1), [e for i, e in enumerate(pairs) if mask >> i & 1])
            result = recognize_tww1(g)
            if result.witness is not None:
                assert_merges_round_trip(result.witness)


def test_merges_round_trip_builder_witnesses():
    for layers, height in ((3, 1), (4, 3), (5, 4)):
        assert_merges_round_trip(halfgraph_cycle(layers, height)[1])
    f1 = LayoutFormula(3, [LayoutClause("+", 1, (1, 2, -3))])
    f2 = LayoutFormula(3, [LayoutClause("-", 1, (1, 2, -3))])
    instances = [reduce_3sat(f).instance for f in (f1, f2)]
    for inst in instances:
        assert_merges_round_trip(inst.witness)
    assert_merges_round_trip(or_cross_compose(instances).witness)
    for g in (Graph.path(5), Graph.cycle(6), halfgraph_cycle(3, 2)[0]):
        assert_merges_round_trip(exact_twinwidth(g)[1])
