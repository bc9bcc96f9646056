"""Width-0/1 recognition and the safe-contraction helper."""

import collections
import gc
import itertools
import random

import pytest

import recognize_reference as reference
from gen_tww1 import random_tww1
from modular_oracle import substitution_graph, width_by_modules
from trigraph_reference import edge_list
from twinwidth import modular, recognize
from twinwidth.trigraph import Graph, Trigraph, contract
from twinwidth.sequence import ContractionSequence, replay, verify, walk
from twinwidth.oracle import exact_twinwidth
from twinwidth.recognize import (
    RecognitionResult,
    recognize_tww0,
    recognize_tww1,
    safe_contractions,
)


def _check_witness(g, result, width):
    rep = verify(g, result.witness, bound=width)
    assert rep.ok
    assert rep.width == width
    assert result.witness.is_full
    for t in replay(g, result.witness):
        assert len(edge_list(t.red)) <= 1


def test_cograph_verdicts():
    k33 = Graph(range(1, 7), [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)])
    res = recognize_tww0(k33)
    assert res.verdict == "tww0"
    _check_witness(k33, res, 0)
    assert recognize_tww0(Graph.path(4)).verdict == "above0"
    single = recognize_tww0(Graph([1]))
    assert single.verdict == "tww0"
    assert len(single.witness) == 0
    assert recognize_tww0(Graph.complete(6)).verdict == "tww0"
    assert recognize_tww0(Graph([1, 2, 3, 4])).verdict == "tww0"


@pytest.mark.parametrize("recognize", [recognize_tww0, recognize_tww1])
def test_ids_other_than_one_to_n_are_rejected(recognize):
    # witnesses number fresh ids from n + 1, so other ids cannot be
    # contracted; the relabelled graph is recognized as usual
    p5 = Graph([2, 5, 7, 9, 11], [(2, 5), (5, 7), (7, 9), (9, 11)])
    with pytest.raises(ValueError, match=r"^recognition needs vertices 1\.\.n; relabel first$"):
        recognize(p5)
    with pytest.raises(ValueError, match="relabel first"):
        recognize(Graph([2]))
    assert recognize(p5.relabel_compact()[0]).verdict == recognize(Graph.path(5)).verdict


@pytest.mark.parametrize("recognize", [recognize_tww0, recognize_tww1])
def test_empty_graph_is_rejected(recognize):
    with pytest.raises(ValueError, match="^recognition needs at least one vertex$"):
        recognize(Graph([]))


def test_path4_is_width_one():
    res = recognize_tww1(Graph.path(4))
    assert res.verdict == "tww1"
    _check_witness(Graph.path(4), res, 1)


def test_cycle5_is_wider():
    res = recognize_tww1(Graph.cycle(5))
    assert res.verdict == "above1"
    assert res.witness is None


def test_cograph_reported_as_such_by_tww1():
    res = recognize_tww1(Graph.complete(4))
    assert res.verdict == "tww0"
    _check_witness(Graph.complete(4), res, 0)


def test_prime_paths_and_cycles():
    res = recognize_tww1(Graph.path(7))
    assert res.verdict == "tww1"
    _check_witness(Graph.path(7), res, 1)
    assert recognize_tww1(Graph.cycle(6)).verdict == "above1"
    assert recognize_tww1(Graph.cycle(7)).verdict == "above1"


def test_verdicts_at_scale():
    # far beyond the exact oracle: a long path has width 1 with a witness
    # that replays, and a long cycle is a negative verdict
    path = Graph.path(200)
    res = recognize_tww1(path)
    assert res.verdict == "tww1"
    assert verify(path, res.witness, bound=1).ok
    assert recognize_tww1(Graph.cycle(200)).verdict == "above1"


def test_deep_modular_tree_does_not_recurse(run_optimized):
    # a threshold graph (even i sees every j < i) nests its modules about
    # one level per vertex, far past a recursion limit of 200
    proc = run_optimized(
        "import sys\n"
        "from twinwidth.recognize import recognize_tww1\n"
        "from twinwidth.sequence import verify\n"
        "from twinwidth.trigraph import Graph\n"
        "g = Graph(range(1, 251), [(j, i) for i in range(2, 251, 2) for j in range(1, i)])\n"
        "sys.setrecursionlimit(200)\n"
        "res = recognize_tww1(g)\n"
        "print(res.verdict, verify(g, res.witness, bound=0).ok)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "tww0 True\n"


def test_module_substitution_keeps_width_one():
    # a path of paths: substitute an inner path for one vertex
    edges = [(1, 2), (5, 6), (6, 7), (7, 8), (4, 5), (4, 6), (4, 7), (4, 8)]
    edges += [(2, 5), (2, 6), (2, 7), (2, 8)]
    g = Graph(range(1, 9), edges)
    res = recognize_tww1(g)
    assert res.verdict == "tww1"
    _check_witness(g, res, 1)


def test_safe_contractions_frozen_example():
    # mid-sequence state of a path after merging the two ends of an
    # induced P3: exactly the two end absorptions are safe
    t = Trigraph([2, 4, 5, 6], black_edges=[(2, 6), (4, 5)], red_edges=[(4, 6)])
    assert safe_contractions(t, (4, 6)) == [(2, 6), (5, 4)]


def test_safe_contractions_can_be_empty():
    t = Trigraph(range(1, 6), black_edges=[(1, 2), (2, 3), (3, 4)],
                 red_edges=[(4, 5)])
    assert safe_contractions(t, (4, 5)) == []


def test_safe_contractions_needs_one_red_edge():
    with pytest.raises(ValueError):
        safe_contractions(Trigraph([1, 2], black_edges=[(1, 2)]), (1, 2))
    with pytest.raises(ValueError):
        safe_contractions(Trigraph([1, 2, 3], red_edges=[(1, 2), (2, 3)]), (1, 2))


def _deletes(t, w, partner):
    """Reference: contracting w into partner gives t minus w, the merged
    vertex playing the partner's role, compared edge set by edge set."""
    after = contract(t, w, partner)
    z = max(after.vertices)

    def without_w(edges):
        # the edges of the subtrigraph induced on V - {w}, partner renamed z
        return {frozenset(z if x == partner else x for x in e) for e in edges if w not in e}

    return ({frozenset(e) for e in edge_list(after.black)} == without_w(edge_list(t.black))
            and {frozenset(e) for e in edge_list(after.red)} == without_w(edge_list(t.red)))


def test_safe_contraction_really_deletes():
    t = Trigraph([2, 4, 5, 6], black_edges=[(2, 6), (4, 5)], red_edges=[(4, 6)])
    for w, partner in safe_contractions(t, (4, 6)):
        assert _deletes(t, w, partner)
    rng = random.Random(7207)
    for _ in range(300):
        n = rng.randint(3, 8)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        red = rng.choice(pairs)
        density = rng.choice([0.2, 0.5, 0.8])
        black = [e for e in pairs if e != red and rng.random() < density]
        t = Trigraph(range(1, n + 1), black_edges=black, red_edges=[red])
        expect = [(w, p) for w in range(1, n + 1) if w not in red
                  for p in red if _deletes(t, w, p)]
        assert safe_contractions(t, red) == expect


def _one_red_trigraphs(rng, count):
    """Trigraphs with exactly one red edge on scattered ids, as the
    prime-graph walk `_drive` meets them: dense and sparse ones, some
    split into two blocks with no black edge between, some with
    isolated vertices added, and the red edge's ends sometimes isolated
    but for it."""
    out = []
    for i in range(count):
        n = rng.randint(3, 14)
        ids = sorted(rng.sample(range(1, 3 * n + 1), n))
        red = tuple(rng.sample(ids, 2))
        density = rng.choice([0.1, 0.3, 0.5, 0.8, 1.0])
        pairs = [e for e in itertools.combinations(ids, 2) if set(e) != set(red)]
        if i % 4 == 1:
            # two blocks: no black edge between ids below and above the cut
            cut = ids[rng.randrange(n)]
            pairs = [(u, v) for u, v in pairs if (u <= cut) == (v <= cut)]
        if i % 4 == 2:
            pairs = [e for e in pairs if not set(e) & set(red)]
        black = [e for e in pairs if rng.random() < density]
        # odd draws, the two-block ones among them, gain 1 to 3 isolated vertices
        lone = list(range(3 * n + 1, 3 * n + 2 + i % 3)) if i % 2 else []
        out.append(Trigraph(ids + lone, black_edges=black, red_edges=[red]))
    return out


def test_safe_contractions_match_reference():
    rng = random.Random(2424)
    found = 0
    for t in _one_red_trigraphs(rng, 1500):
        got = safe_contractions(t, edge_list(t.red)[0])
        assert got == reference.safe_contractions(t), (edge_list(t.black), edge_list(t.red))
        found += bool(got)
    assert 300 < found < 1500, found


def test_agreement_with_oracle_on_random_graphs():
    rng = random.Random(60601)
    for _ in range(60):
        n = rng.randint(2, 8)
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < rng.choice([0.25, 0.5, 0.75])]
        g = Graph(range(1, n + 1), edges)
        d = exact_twinwidth(g)[0]
        r0 = recognize_tww0(g)
        r1 = recognize_tww1(g)
        assert (r0.verdict == "tww0") == (d == 0)
        assert (r1.verdict != "above1") == (d <= 1)
        if r1.witness is not None:
            _check_witness(g, r1, d)


def _all_graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(range(1, n + 1), [e for i, e in enumerate(pairs) if mask >> i & 1])


def _cotree_edges(vertices, rng):
    """A random cograph on vertices: a union or a join of two random halves."""
    if len(vertices) == 1:
        return []
    cut = rng.randint(1, len(vertices) - 1)
    left, right = vertices[:cut], vertices[cut:]
    edges = _cotree_edges(left, rng) + _cotree_edges(right, rng)
    if rng.random() < 0.5:
        edges += [(a, b) for a in left for b in right]
    return edges


def test_verdicts_are_invariant_under_complement_and_relabelling():
    # twin-width is invariant under complementation and relabelling
    # ("Twin-width I", FOCS 2020), a check that needs no oracle: g, its
    # complement and g under a seeded random relabelling get the same
    # verdict, and every witness verifies at its verdict's width; on
    # n = 20..60 from the width-1 generator, random graphs (mostly
    # above1) and cographs
    rng = random.Random(3333)
    verdicts = collections.Counter()
    for i in range(480):
        n = rng.randint(20, 60)
        source = ("tww1 generator", "random", "cograph")[i % 3]
        if source == "tww1 generator":
            g = random_tww1(n, rng)[0]
        elif source == "random":
            p = rng.choice([0.1, 0.3, 0.5])
            g = Graph(range(1, n + 1), [e for e in itertools.combinations(range(1, n + 1), 2)
                                        if rng.random() < p])
        else:
            g = Graph(range(1, n + 1), _cotree_edges(list(range(1, n + 1)), rng))
        name = [0] + rng.sample(range(1, n + 1), n)
        relabelled = Graph(range(1, n + 1), [(name[u], name[v]) for u, v in g.edges()])
        forms = (g, g.complement(), relabelled)
        results = [recognize_tww1(h) for h in forms]
        assert len({r.verdict for r in results}) == 1, sorted(g.edges())
        for h, r in zip(forms, results):
            if r.verdict != "above1":
                rep = verify(h, r.witness, bound=("tww0", "tww1").index(r.verdict))
                assert rep.ok, (r.verdict, sorted(h.edges()))
        verdicts[source, results[0].verdict] += 1
    print("verdicts by source:", dict(sorted(verdicts.items())))
    assert verdicts["tww1 generator", "tww1"] >= 90, verdicts
    assert verdicts["random", "above1"] >= 120, verdicts
    assert verdicts["cograph", "tww0"] == 160, verdicts


def _seeded_graphs(seed, count):
    """Random, threshold and cotree graphs on up to 40 vertices, each
    under a random labelling, some with one random edge flipped so that
    cographs turn prime deep in their tree."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(2, 40)
        shape = i % 3
        if shape == 0:
            p = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])
            edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
        elif shape == 1:
            # vertex i sees every j < i when i is picked
            picked = [i for i in range(2, n + 1) if rng.random() < 0.5]
            edges = [(j, i) for i in picked for j in range(1, i)]
        else:
            edges = _cotree_edges(list(range(1, n + 1)), rng)
        name = list(range(1, n + 1))
        rng.shuffle(name)
        edges = {frozenset((name[a - 1], name[b - 1])) for a, b in edges}
        if n >= 4 and rng.random() < 0.5:
            edges ^= {frozenset(rng.sample(range(1, n + 1), 2))}
        out.append(Graph(range(1, n + 1), [tuple(e) for e in edges]))
    return out


def _same(a, b):
    return a.verdict == b.verdict and (a.witness and a.witness.steps) == (b.witness and b.witness.steps)


def test_width0_walk_matches_reference_on_all_graphs_up_to_six():
    # the split-only walk against the walk that built every level's full
    # maximal modular partition: verdicts and witness steps agree
    for n in range(1, 7):
        for g in _all_graphs(n):
            assert _same(recognize_tww0(g), reference.recognize_tww0(g)), sorted(g.edges())


def test_recognition_matches_reference_on_seeded_graphs():
    for n in range(1, 6):
        for g in _all_graphs(n):
            assert _same(recognize_tww1(g), reference.recognize_tww1(g)), sorted(g.edges())
    verdicts = set()
    for g in _seeded_graphs(2020, 240):
        zero, one = recognize_tww0(g), recognize_tww1(g)
        assert _same(zero, reference.recognize_tww0(g)), sorted(g.edges())
        assert _same(one, reference.recognize_tww1(g)), sorted(g.edges())
        verdicts |= {zero.verdict, one.verdict}
    assert verdicts == {"tww0", "above0", "tww1", "above1"}


def test_width0_builds_no_maximal_proper_module(monkeypatch):
    # counted, not timed: on non-cographs the width-0 walk stops at the
    # first level without a split, before refining any module
    refined = [0]
    modules_avoiding = modular._modules_avoiding

    def counted(*args):
        refined[0] += 1
        return modules_avoiding(*args)

    monkeypatch.setattr(modular, "_modules_avoiding", counted)
    graphs = [g for g in _seeded_graphs(2121, 90) if recognize_tww0(g).verdict == "above0"]
    assert len(graphs) >= 30
    assert refined[0] == 0
    for g in graphs:
        recognize_tww1(g)
    assert refined[0] >= len(graphs)


def _prime_graphs(seed, count):
    """Seeded prime graphs on 4 to 12 vertices: the width-1 generator's
    graphs and G(n, p) samples whose maximal modular partition is the
    trivial one, with at least one above width 1 and one within."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(4, 12)
        if len(out) % 2:
            g, _ = random_tww1(n, rng)
        else:
            p = rng.choice([0.3, 0.5, 0.7])
            g = Graph(range(1, n + 1), [e for e in itertools.combinations(range(1, n + 1), 2)
                                        if rng.random() < p])
        mp = modular.maximal_modular_partition(g)
        if mp.kind == "maximal" and mp.is_trivial:
            out.append(g)
    return out


def test_prime_driver_copies_once_per_guess(monkeypatch):
    # counted guard: the prime graph is read through a view, so the only
    # copies are the first contraction of each driven guess
    copies, guesses = [0], [0]
    copy, drive = Trigraph.copy, recognize._drive

    def counted_copy(t):
        copies[0] += 1
        return copy(t)

    def counted_drive(t0, u, v):
        guesses[0] += 1
        return drive(t0, u, v)

    def refuse(cls, g):
        raise AssertionError("the prime graph was copied")

    monkeypatch.setattr(Trigraph, "copy", counted_copy)
    monkeypatch.setattr(Trigraph, "from_graph", classmethod(refuse))
    monkeypatch.setattr(recognize, "_drive", counted_drive)
    found, most = set(), 0
    for h in _prime_graphs(6262, 60):
        copies[0] = guesses[0] = 0
        found.add(recognize._plan_prime(h) is not None)
        assert copies[0] == guesses[0]
        most = max(most, guesses[0])
    assert found == {True, False}
    assert most > 1


def test_every_red_edge_ends_at_the_newest_vertex(monkeypatch):
    # the driver reads its red edge from z's red set alone, which rests
    # on every red edge ending at the vertex each step creates: checked
    # after every merge of guesses that succeed and of guesses that fail
    merge, drive = Trigraph._merge, recognize._drive
    steps, outcomes = [0], []

    def checked_merge(t, u, v, z):
        merge(t, u, v, z)
        steps[0] += 1
        stray = [e for e in edge_list(t.red) if z not in e]
        assert not stray, (z, stray)
        return t

    def counted_drive(t0, u, v):
        steps[0] = 0
        pairs = drive(t0, u, v)
        outcomes.append((pairs is not None, steps[0]))
        return pairs

    monkeypatch.setattr(Trigraph, "_merge", checked_merge)
    monkeypatch.setattr(recognize, "_drive", counted_drive)
    for h in _prime_graphs(6262, 60):
        recognize._plan_prime(h)
    assert any(ok for ok, _ in outcomes)
    # failed guesses that got past their first merge
    assert any(not ok and merges > 1 for ok, merges in outcomes)


def _held(x):
    """The objects a graph or trigraph holds, its class left out."""
    return [r for r in gc.get_referents(x) if not isinstance(r, type)]


def test_vertex_set_is_the_keys_of_the_tables_after_every_merge(monkeypatch):
    # one table per colour and no second vertex set: after every merge
    # of seeded walks and of every guess the prime driver drives, black
    # and red have the same keys, those keys are the bags that the steps
    # merged so far leave, and the trigraph holds nothing but the tables
    merge, drive = Trigraph._merge, recognize._drive
    run = {}  # the start's size and the steps merged since it

    def checked_merge(t, u, v, z):
        merge(t, u, v, z)
        run["steps"].append((z, u, v))
        assert t.black.keys() == t.red.keys()
        assert t.vertices == set(ContractionSequence(run["n"], run["steps"]).owners().values())
        assert sorted(map(id, _held(t))) == sorted(map(id, (t.black, t.red)))
        return t

    def fresh_drive(t0, u, v):
        run.update(n=t0.n, steps=[])
        return drive(t0, u, v)

    monkeypatch.setattr(Trigraph, "_merge", checked_merge)
    monkeypatch.setattr(recognize, "_drive", fresh_drive)
    rng = random.Random(6363)
    merged = 0
    for _ in range(40):
        g, seq = random_tww1(rng.randint(1, 14), rng)
        view = Trigraph._view(g)
        assert [id(x) for x in _held(g)] == [id(g.adj)]
        assert sorted(map(id, _held(view))) == sorted(map(id, (view.black, view.red)))
        run.update(n=g.n, steps=[])
        for _ in walk(g, seq):
            pass
        assert run["steps"] == list(seq.steps)
        merged += len(seq)
    for h in _prime_graphs(6262, 60):
        assert [id(x) for x in _held(h)] == [id(h.adj)]
        run.update(n=h.n, steps=[])
        recognize._plan_prime(h)
        merged += len(run["steps"])
    assert merged > 400


def test_witness_check_survives_optimize_flag(run_optimized):
    # a planted plan that merges inside two disjoint P4s leaves two red
    # edges at once; the witness check refuses it under python -O too
    proc = run_optimized(
        "from twinwidth import recognize\n"
        "from twinwidth.trigraph import Graph\n"
        "g = Graph(range(1, 9), [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8)])\n"
        "recognize._plan = lambda g, prime: None if prime is None else [(1, 3), (5, 7)]\n"
        "try:\n"
        "    print(recognize.recognize_tww1(g).verdict)\n"
        "except AssertionError as e:\n"
        "    print(e)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "recognition produced a bad witness\n"


def test_recognition_matches_exact_width_by_modules():
    # the exact width by modules equals the exact oracle's on small
    # graphs built by module substitution, and then decides the verdict
    # recognition must give on such graphs far past the oracle's cap
    rng = random.Random(2626)
    widths = collections.Counter()
    for _ in range(300):
        g = substitution_graph(rng, 2, 10, depth=2)
        d = width_by_modules(g)
        assert d == exact_twinwidth(g)[0], sorted(g.edges())
        widths[d] += 1
    verdicts = collections.Counter()
    for _ in range(300):
        g = substitution_graph(rng, 12, 90)
        d = width_by_modules(g)
        res = recognize_tww1(g)
        assert res.verdict == ("tww0", "tww1", "above1")[min(d, 2)], sorted(g.edges())
        if res.witness is not None:
            _check_witness(g, res, d)
        verdicts[res.verdict] += 1
    print("widths for n <= 10:", dict(sorted(widths.items())),
          "verdicts for n = 12..90:", dict(sorted(verdicts.items())))
    assert min(widths[0], widths[1], widths[2]) >= 5, widths
    assert min(verdicts.values()) >= 50 and len(verdicts) == 3, verdicts


def _p4_substitution(rng, k, quotient_edges):
    """A quotient on 0..k-1 with each vertex replaced by a P4, relabelled
    at random so that the P4s are not runs of consecutive ids."""
    edges = [(4 * i + a, 4 * i + a + 1) for i in range(k) for a in (1, 2, 3)]
    edges += [(4 * i + a, 4 * j + b) for i, j in quotient_edges
              for a in range(1, 5) for b in range(1, 5)]
    name = [0] + rng.sample(range(1, 4 * k + 1), 4 * k)
    return Graph(range(1, 4 * k + 1), [(name[a], name[b]) for a, b in edges])


def test_recognition_matches_width_by_modules_on_deep_modules():
    # P4-threshold graphs nest prime P4s under many series and parallel
    # levels; a path of P4s has a non-trivial maximal level on top,
    # whose quotient P_m is planned as an induced subgraph
    rng = random.Random(3131)
    graphs = [_p4_substitution(rng, k, [(j, i) for i in range(1, k, 2) for j in range(i)])
              for k in range(10, 31)]
    for m in range(5, 13):
        g = _p4_substitution(rng, m, [(i, i + 1) for i in range(m - 1)])
        top = modular.maximal_modular_partition(g)
        assert top.kind == "maximal" and len(top.parts) == m and not top.is_trivial
        graphs.append(g)
    for g in graphs:
        res = recognize_tww1(g)
        assert res.verdict == "tww1", (g.n, sorted(g.edges()))
        _check_witness(g, res, 1)
        assert width_by_modules(g) == 1
