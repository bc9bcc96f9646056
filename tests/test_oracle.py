"""Ground-truth solvers: frozen values and brute-force cross-checks.

The twin-width search is itself cross-validated here against a dumb
enumeration of all full contraction sequences, so the rest of the
suite can lean on it.
"""

import hashlib
import inspect
import itertools
import random
import sys

import pytest

import oracle_reference as reference
from trigraph_reference import edge_list
from test_acceptance import F1, F2, synthetic_instance
from twinwidth.compose import or_cross_compose
from twinwidth.gadgets import reduce_3sat
from twinwidth.trigraph import Graph, quotient
from twinwidth.sequence import ContractionSequence, verify
from twinwidth.modular import maximal_modular_partition
from twinwidth import oracle
from twinwidth.oracle import (
    CapacitatedGraph,
    all_min_dominating_sets,
    capacitated_vc_feasible,
    dominating_transversal,
    exact_twinwidth,
    is_dominating_set,
    is_vertex_cover,
    min_capacitated_vc,
    min_connected_vertex_cover,
    min_dominating_set,
    twinwidth_at_most,
)


def _random_graph(rng, n, p):
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if rng.random() < p]
    return Graph(range(1, n + 1), edges)


# ---------------------------------------------------------------------------
# twin-width

def _brute_force_twinwidth(g):
    """Minimum width over every full contraction order."""
    best = [g.n]

    def go(live, steps, z):
        if len(live) == 1:
            width = verify(g, ContractionSequence(g.n, steps)).width
            best[0] = min(best[0], width)
            return
        for u, v in itertools.combinations(sorted(live), 2):
            go((live - {u, v}) | {z}, steps + [(z, u, v)], z + 1)

    go(set(g.vertices), [], g.n + 1)
    return best[0]


def test_twinwidth_frozen_values():
    assert exact_twinwidth(Graph.path(4))[0] == 1
    assert exact_twinwidth(Graph.cycle(5))[0] == 2
    assert exact_twinwidth(Graph.cycle(6))[0] == 2
    assert exact_twinwidth(Graph.cycle(7))[0] == 2
    assert exact_twinwidth(Graph.complete(5))[0] == 0
    assert exact_twinwidth(Graph.complete(8))[0] == 0
    assert exact_twinwidth(Graph([1]))[0] == 0
    bull = Graph(range(1, 6), [(1, 2), (1, 3), (2, 3), (1, 4), (2, 5)])
    assert exact_twinwidth(bull)[0] == 1
    grid = Graph(range(1, 10), [(1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9),
                                (1, 4), (4, 7), (2, 5), (5, 8), (3, 6), (6, 9)])
    assert exact_twinwidth(grid)[0] == 2


def test_twinwidth_witness_verifies():
    for g in [Graph.path(4), Graph.cycle(5), Graph.complete(6), Graph.cycle(7)]:
        d, seq = exact_twinwidth(g)
        assert seq.is_full
        rep = verify(g, seq, bound=d)
        assert rep.ok
        assert rep.width == d


def test_twinwidth_matches_brute_force_on_all_4_vertex_graphs():
    for bits in range(64):
        edges = [e for i, e in enumerate(itertools.combinations(range(1, 5), 2))
                 if bits >> i & 1]
        g = Graph(range(1, 5), edges)
        assert exact_twinwidth(g)[0] == _brute_force_twinwidth(g)


def test_twinwidth_matches_brute_force_on_random_5_vertex_graphs():
    rng = random.Random(2026)
    for _ in range(25):
        g = _random_graph(rng, 5, rng.choice([0.3, 0.5, 0.7]))
        assert exact_twinwidth(g)[0] == _brute_force_twinwidth(g)


def test_at_most_is_monotone_in_the_bound():
    rng = random.Random(515)
    for _ in range(15):
        g = _random_graph(rng, rng.randint(3, 7), 0.5)
        d, _ = exact_twinwidth(g)
        assert twinwidth_at_most(g, d) is not None
        assert twinwidth_at_most(g, d + 1) is not None
        if d > 0:
            assert twinwidth_at_most(g, d - 1) is None


def test_twinwidth_composes_over_modular_partition():
    rng = random.Random(81445)
    checked = 0
    while checked < 8:
        g = _random_graph(rng, rng.randint(4, 8), rng.choice([0.3, 0.6]))
        mp = maximal_modular_partition(g)
        if mp.is_trivial:
            continue
        checked += 1
        whole = exact_twinwidth(g)[0]
        pieces = []
        for p in mp.parts:
            sub, _ = g.induced(p).relabel_compact()
            pieces.append(exact_twinwidth(sub)[0])
        q = quotient(g, mp.parts)
        assert edge_list(q.red) == []
        qg, _ = Graph(q.vertices, edge_list(q.black)).relabel_compact()
        pieces.append(exact_twinwidth(qg)[0])
        assert whole == max(pieces)


def test_twinwidth_size_cap(monkeypatch):
    big = Graph(range(1, 14))
    with pytest.raises(ValueError):
        exact_twinwidth(big)
    monkeypatch.setenv("TWW_SIZE_CAP", "14")
    assert exact_twinwidth(big)[0] == 0


def test_twinwidth_needs_compact_labels():
    with pytest.raises(ValueError):
        exact_twinwidth(Graph([2, 3], [(2, 3)]))


def test_empty_graph_is_rejected():
    # no contraction sequence exists on zero vertices, so neither call
    # may answer: None would claim a width above 0
    for call in (lambda g: twinwidth_at_most(g, 0), exact_twinwidth):
        with pytest.raises(ValueError, match="^twin-width needs at least one vertex$"):
            call(Graph([]))


def test_negative_width_bound_is_rejected():
    # without the check, merges that create no red edge pass any bound
    for g in [Graph.complete(4), Graph([1])]:
        with pytest.raises(ValueError, match="width bound must be non-negative, got -1"):
            twinwidth_at_most(g, -1)


def test_twinwidth_at_most_matches_reference_on_all_small_graphs():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(range(1, n + 1), [e for i, e in enumerate(pairs) if bits >> i & 1])
            for d in range(n):
                assert twinwidth_at_most(g, d) == reference.twinwidth_at_most(g, d)


def test_twinwidth_at_most_matches_reference_around_the_width():
    rng = random.Random(1313)
    for _ in range(300):
        g = _random_graph(rng, rng.randint(6, 10), rng.choice([0.2, 0.4, 0.6, 0.8]))
        w, _ = exact_twinwidth(g)
        # d = -1 raises, so a width-0 graph starts at d = 0
        for d in range(max(w - 1, 0), w + 2):
            assert twinwidth_at_most(g, d) == reference.twinwidth_at_most(g, d)


def _larger_graphs():
    """Seeded G(n, p) with n in 10..12, each with its exact width."""
    rng = random.Random(2424)
    out = []
    for _ in range(100):
        g = _random_graph(rng, rng.randint(10, 12), rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
        out.append((g, exact_twinwidth(g)[0]))
    return out


def test_twinwidth_at_most_matches_mask_reference_on_larger_graphs():
    for g, w in _larger_graphs():
        for d in range(max(w - 1, 0), w + 1):
            assert twinwidth_at_most(g, d) == reference.twinwidth_at_most_masks(g, d), \
                (d, sorted(g.edges()))


def _memo_lookups(fn, graphs):
    """States that reach fn's failed-state memo with more than d + 1
    parts, counted by a line tracer on its nested search.  The memo
    line is the one that tests "in failed"."""
    code = next(c for c in fn.__code__.co_consts
                if inspect.iscode(c) and c.co_name == "search")
    lines, first = inspect.getsourcelines(code)
    memo = {first + i for i, line in enumerate(lines) if "in failed" in line}
    assert len(memo) == 1
    count = [0]
    bound = [0]

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in memo:
            parts = frame.f_locals.get("parts", frame.f_locals.get("rows"))
            count[0] += len(parts) - 1 > bound[0]
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        for g, w in graphs:
            for d in range(max(w - 1, 0), w + 1):
                bound[0] = d
                fn(g, d)
    finally:
        sys.settrace(old)
    return count[0]


def test_twinwidth_search_visits_as_many_states_as_mask_reference():
    """Counted work, no timing: deriving a child's tables from its
    parent's and finishing without tables once k - 1 <= d must not
    change which states the search tests.  A state of at most d + 1
    parts cannot fail, so the reference's such states are the ones the
    search finishes without visiting."""
    graphs = _larger_graphs()
    states = _memo_lookups(twinwidth_at_most, graphs)
    assert states == _memo_lookups(reference.twinwidth_at_most_masks, graphs)
    assert states > 1000, states


def _exact_twinwidth_from_zero(g):
    """exact_twinwidth as it was: deepening from d = 0."""
    for d in range(0, max(g.n, 1)):
        seq = twinwidth_at_most(g, d)
        if seq is not None:
            return d, seq
    raise AssertionError("unreachable: every graph has an (n-1)-sequence")


def test_lower_bound_start_keeps_widths_and_witnesses():
    rng = random.Random(6061)
    for _ in range(300):
        g = _random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.4, 0.6, 0.8]))
        assert exact_twinwidth(g) == _exact_twinwidth_from_zero(g)


def test_lower_bound_start_skips_hopeless_widths(monkeypatch):
    tried = []
    real = oracle.twinwidth_at_most

    def spy(g, d):
        tried.append(d)
        return real(g, d)

    monkeypatch.setattr(oracle, "twinwidth_at_most", spy)
    # every pair of C_7 leaves a red degree of at least 2 after contracting
    assert exact_twinwidth(Graph.cycle(7))[0] == 2
    assert tried == [2]
    tried.clear()
    assert exact_twinwidth(Graph([1]))[0] == 0
    assert tried == [0]


# ---------------------------------------------------------------------------
# dominating set

def test_dominating_set_frozen_values():
    assert min_dominating_set(Graph.cycle(5))[0] == 2
    assert min_dominating_set(Graph.path(7))[0] == 3
    star = Graph(range(1, 6), [(1, i) for i in range(2, 6)])
    assert min_dominating_set(star) == (1, frozenset([1]))
    assert min_dominating_set(Graph([1, 2, 3]))[0] == 3
    assert min_dominating_set(Graph([], []))[0] == 0


def test_dominating_set_witness_dominates():
    rng = random.Random(31337)
    for _ in range(30):
        g = _random_graph(rng, rng.randint(1, 10), rng.random())
        size, ds = min_dominating_set(g)
        assert len(ds) == size
        assert is_dominating_set(g, ds)


def test_dominating_set_matches_enumeration():
    rng = random.Random(90210)
    for _ in range(20):
        g = _random_graph(rng, rng.randint(2, 8), rng.choice([0.2, 0.5]))
        size, _ = min_dominating_set(g)
        brute = min(k for k in range(g.n + 1)
                    for s in itertools.combinations(sorted(g.vertices), k)
                    if is_dominating_set(g, s))
        assert size == brute


def test_all_min_dominating_sets():
    sets = all_min_dominating_sets(Graph.cycle(5))
    assert sorted(sorted(s) for s in sets) == [[1, 3], [1, 4], [2, 4], [2, 5], [3, 5]]
    assert all_min_dominating_sets(Graph.complete(3)) == [
        frozenset([1]), frozenset([2]), frozenset([3])]


def test_forced_parts_transversal():
    ds = dominating_transversal(Graph.cycle(6), [{1, 2}, {3, 4}, {5, 6}])
    assert len(ds) == 3
    assert is_dominating_set(Graph.cycle(6), ds)
    for part in ({1, 2}, {3, 4}, {5, 6}):
        assert len(ds & part) == 1
    # P6 is dominated by {2, 5} only among pairs, and that pair misses {1, 6}
    assert dominating_transversal(Graph.path(6), [{1, 6}, {2, 3, 4, 5}]) is None
    assert dominating_transversal(Graph([], []), []) == frozenset()


def _random_partition(rng, vertices):
    k = rng.randint(1, len(vertices))
    label = {v: rng.randrange(k) for v in vertices}
    parts = [{v for v in vertices if label[v] == c} for c in range(k)]
    return [p for p in parts if p]


def test_transversal_matches_product_reference():
    rng = random.Random(1616)
    found = 0
    for _ in range(600):
        g = _random_graph(rng, rng.randint(1, 9), rng.random())
        parts = _random_partition(rng, sorted(g.vertices))
        ds = dominating_transversal(g, parts)
        every = reference.dominating_transversals(g, parts)
        if ds is None:
            assert every == [], (sorted(g.edges()), parts)
        else:
            assert ds in every, (sorted(g.edges()), parts)
            found += 1
    assert 0 < found < 600


def test_transversal_witnesses_are_frozen():
    # sha256 of the sorted transversals as found before the root node
    # started from whole parts and its static pass was dropped: seeded
    # partitioned graphs, criterion 8's compositions of synthetic
    # instances and compositions of two reduced formulas, each over its
    # forced parts
    rng = random.Random(2727)
    cases = []
    for _ in range(2000):
        g = _random_graph(rng, rng.randint(1, 16), rng.choice([0.2, 0.4, 0.6, 0.8]))
        cases.append((g, _random_partition(rng, sorted(g.vertices))))
    rows = []
    for p, q in [(2, 2), (2, 4)]:
        yes, no = synthetic_instance(p, q), synthetic_instance(p, q, doubled=True)
        rows += [[yes, no], [no, no], [no, yes], [no, no, yes]]
    rows += [[reduce_3sat(f).instance for f in pair] for pair in ([F1, F2], [F2, F1])]
    cases += [(comp.graph, comp.forced_parts()) for comp in map(or_cross_compose, rows)]
    h = hashlib.sha256()
    found = 0
    for g, parts in cases:
        ds = dominating_transversal(g, parts)
        found += ds is not None
        h.update(repr(None if ds is None else sorted(ds)).encode())
    assert found == 1565
    assert h.hexdigest() == "3532765a266c7121cbb88e54813c9e31a521008255ed5ec64fc2bb304920474e"


def test_transversal_search_does_not_recurse(run_optimized):
    # 300 singleton parts stack 300 decisions, far past a limit of 100
    proc = run_optimized(
        "import sys\n"
        "from twinwidth.oracle import dominating_transversal\n"
        "from twinwidth.trigraph import Graph\n"
        "g = Graph(range(1, 301))\n"
        "sys.setrecursionlimit(100)\n"
        "print(len(dominating_transversal(g, [{v} for v in g.vertices])))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "300\n"


def test_forced_search_size_cap(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the search ran")
    big = Graph(range(1, oracle.FORCED_CAP + 2))
    parts = [{v} for v in big.vertices]
    with monkeypatch.context() as m:
        m.setattr(oracle, "validate_partition", refuse)
        with pytest.raises(ValueError, match="graph has %d vertices, forced search cap is %d"
                           % (oracle.FORCED_CAP + 1, oracle.FORCED_CAP)):
            dominating_transversal(big, parts)
    # TWW_SIZE_CAP overrides this cap as it does every other
    monkeypatch.setenv("TWW_SIZE_CAP", str(oracle.FORCED_CAP + 1))
    assert len(dominating_transversal(big, parts)) == big.n
    monkeypatch.setenv("TWW_SIZE_CAP", "5")
    with pytest.raises(ValueError, match="forced search cap is 5"):
        dominating_transversal(Graph.path(6), [{1, 6}, {2, 3, 4, 5}])


def test_forced_parts_must_partition():
    with pytest.raises(ValueError):
        dominating_transversal(Graph.path(3), [{1}, {2}])


# ---------------------------------------------------------------------------
# connected vertex cover

def test_cvc_frozen_values():
    tri = Graph.complete(3)
    assert min_connected_vertex_cover(tri)[0] == 2
    star = Graph(range(1, 6), [(1, i) for i in range(2, 6)])
    assert min_connected_vertex_cover(star) == (1, frozenset([1]))
    assert min_connected_vertex_cover(Graph.path(5)) == (3, frozenset([2, 3, 4]))
    assert min_connected_vertex_cover(Graph([1, 2, 3])) == (0, frozenset())


def test_cvc_infeasible_across_components():
    two_k2 = Graph([1, 2, 3, 4], [(1, 2), (3, 4)])
    assert min_connected_vertex_cover(two_k2) is None
    with_isolated = Graph([1, 2, 3], [(1, 2)])
    assert min_connected_vertex_cover(with_isolated) == (1, frozenset([1]))


def test_cvc_witness_is_connected_cover():
    rng = random.Random(5150)
    for _ in range(25):
        g = _random_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.6]))
        res = min_connected_vertex_cover(g)
        edgeful = [c for c in g.components() if len(c) > 1]
        if len(edgeful) > 1:
            assert res is None
            continue
        size, cover = res
        assert len(cover) == size
        assert is_vertex_cover(g, cover)
        if size > 1:
            sub = g.induced(cover)
            assert sub.is_connected()


# ---------------------------------------------------------------------------
# capacitated vertex cover

def test_capacitated_cover_frozen_values():
    tri = Graph.complete(3)
    ones = CapacitatedGraph(tri, {1: 1, 2: 1, 3: 1})
    assert min_capacitated_vc(ones, 2) is None
    assert min_capacitated_vc(ones, 3) == frozenset([1, 2, 3])
    twos = CapacitatedGraph(tri, {1: 2, 2: 2, 3: 2})
    assert min_capacitated_vc(twos, 2) == frozenset([1, 2])
    star = Graph(range(1, 6), [(1, i) for i in range(2, 6)])
    assert min_capacitated_vc(CapacitatedGraph(star, {v: 4 for v in star.vertices})) \
        == frozenset([1])
    assert min_capacitated_vc(CapacitatedGraph(star, {v: 3 for v in star.vertices})) \
        == frozenset([1, 2])


def test_capacitated_cover_no_instance_for_every_budget():
    two_k2 = Graph([1, 2, 3, 4], [(1, 2), (3, 4)])
    dead = CapacitatedGraph(two_k2, {v: 0 for v in two_k2.vertices})
    for k in range(5):
        assert min_capacitated_vc(dead, k) is None


def test_capacitated_feasibility_details():
    p3 = Graph.path(3)
    cg = CapacitatedGraph(p3, {1: 0, 2: 2, 3: 0})
    assert capacitated_vc_feasible(cg, {2})
    assert not capacitated_vc_feasible(CapacitatedGraph(p3, {1: 0, 2: 1, 3: 0}), {2})
    assert not capacitated_vc_feasible(cg, {1})  # edge (2,3) uncovered
    # negative capacities behave like zero
    cg_neg = CapacitatedGraph(p3, {1: -3, 2: 2, 3: 0})
    assert capacitated_vc_feasible(cg_neg, {1, 2})
    assert not capacitated_vc_feasible(CapacitatedGraph(p3, {1: -3, 2: 1, 3: 0}),
                                       {1, 2})


def test_capacitated_cover_matches_flow_free_enumeration():
    # a cover X is feasible iff edges can be spread within capacities;
    # for tiny graphs compare against trying every assignment
    rng = random.Random(2718)
    for _ in range(20):
        g = _random_graph(rng, rng.randint(2, 6), 0.5)
        caps = {v: rng.randint(0, 2) for v in g.vertices}
        cg = CapacitatedGraph(g, caps)
        edges = list(g.edges())
        for trial in range(5):
            x = {v for v in g.vertices if rng.random() < 0.6}
            if not all(u in x or v in x for u, v in edges):
                continue
            feasible = False
            choices = [[w for w in e if w in x] for e in edges]
            for assign in itertools.product(*choices) if edges else [()]:
                load = {v: 0 for v in x}
                for w in assign:
                    load[w] += 1
                if all(load[v] <= max(0, caps[v]) for v in x):
                    feasible = True
                    break
            assert capacitated_vc_feasible(cg, x) == feasible


def test_vc_oracles_match_reference():
    """Bitmask oracles return the reference's values and witness sets.

    Every labelled graph on at most 5 vertices, then 400 seeded graphs
    with 6 to 10 vertices; capacities in -1..3, budgets None and 0..n.
    """
    rng = random.Random(4242)
    graphs = []
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            graphs.append(Graph(range(1, n + 1),
                                [e for i, e in enumerate(pairs) if bits >> i & 1]))
    graphs += [_random_graph(rng, rng.randint(6, 10), rng.choice([0.2, 0.35, 0.5, 0.7]))
               for _ in range(400)]
    for g in graphs:
        assert min_connected_vertex_cover(g) == reference.min_connected_vertex_cover(g)
        cg = CapacitatedGraph(g, {v: rng.randint(-1, 3) for v in g.vertices})
        k = rng.choice([None] + list(range(g.n + 1)))
        assert min_capacitated_vc(cg, k) == reference.min_capacitated_vc(cg, k)
        for _ in range(3):
            x = {v for v in g.vertices if rng.random() < 0.7}
            assert capacitated_vc_feasible(cg, x) == reference.capacitated_vc_feasible(cg, x)


def _hub_graph(rng):
    """1 to 4 hubs and leaves drawn from a small pool of hub sets, n in
    8..14, relabelled at random: the twin-rich shape of a kernel input."""
    hubs = rng.randint(1, 4)
    n = rng.randint(8, 14)
    edges = [e for e in itertools.combinations(range(1, hubs + 1), 2) if rng.random() < 0.5]
    pool = [[h for h in range(1, hubs + 1) if rng.random() < 0.5] for _ in range(3)]
    for leaf in range(hubs + 1, n + 1):
        edges += [(h, leaf) for h in rng.choice(pool)]
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return Graph(labels, [(labels[u - 1], labels[v - 1]) for u, v in edges])


def test_vc_oracles_match_reference_on_hub_graphs():
    """Both oracles against the reference on kernel-shaped inputs,
    capacities in -1..4, every budget None and 0..7.  The reference
    returns the first feasible cover in size order, so its answer under
    budget k is its unbudgeted answer when that has at most k vertices
    and None otherwise: one reference call per graph gives all nine."""
    rng = random.Random(6061)
    found = {"cvc": 0, "capvc": 0, "no capvc": 0}
    for _ in range(25):
        g = _hub_graph(rng)
        cvc = min_connected_vertex_cover(g)
        assert cvc == reference.min_connected_vertex_cover(g), sorted(g.edges())
        found["cvc"] += cvc is not None and cvc[0] > 1
        cg = CapacitatedGraph(g, {v: rng.randint(-1, 4) for v in sorted(g.vertices)})
        best = reference.min_capacitated_vc(cg)
        found["no capvc" if best is None else "capvc"] += 1
        for k in [None] + list(range(8)):
            want = best if best is None or k is None or len(best) <= k else None
            assert min_capacitated_vc(cg, k) == want, (k, sorted(g.edges()), cg.cap)
    assert min(found.values()) >= 5, found


def test_capacitated_assignment_does_not_recurse(run_optimized):
    # on a path with cap 1 everywhere but vertex 1, every edge's
    # augmenting path walks back towards vertex 1: 300 frames deep
    proc = run_optimized(
        "import sys\n"
        "from twinwidth.oracle import CapacitatedGraph, capacitated_vc_feasible\n"
        "from twinwidth.trigraph import Graph\n"
        "g = Graph.path(300)\n"
        "cap = {v: 1 for v in g.vertices}\n"
        "cap[1] = 0\n"
        "sys.setrecursionlimit(100)\n"
        "print(capacitated_vc_feasible(CapacitatedGraph(g, cap), g.vertices))\n"
        "cap[300] = 0\n"
        "print(capacitated_vc_feasible(CapacitatedGraph(g, cap), g.vertices))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\nFalse\n"


def _budget_inputs():
    """The fixed set of the work budget: connected G(n, 0.35) with n in
    8..12 and capacities 0..3, as the benchmark's kernel checks draw
    them, and hub graphs with capacities -1..4."""
    rng = random.Random(3131)
    out = []
    while len(out) < 30:
        g = _random_graph(rng, rng.randint(8, 12), 0.35)
        if g.is_connected():
            out.append(CapacitatedGraph(g, {v: rng.randint(0, 3) for v in sorted(g.vertices)}))
    for _ in range(30):
        g = _hub_graph(rng)
        out.append(CapacitatedGraph(g, {v: rng.randint(-1, 4) for v in sorted(g.vertices)}))
    return out


def test_vc_oracles_work_budget(monkeypatch):
    """Counted work, no timing: the assignment calls and the cover
    search's nodes (pops of its stack, counted by a line tracer) over a
    fixed seeded set stay within the counts recorded when the search
    gained its prunes and its infeasibility check on all of V.
    Dropping the room bound or that check breaks the first, dropping
    the forced-vertex prune the second."""
    assigns = [0]
    assign = oracle._assign

    def counted(*args):
        assigns[0] += 1
        return assign(*args)

    monkeypatch.setattr(oracle, "_assign", counted)
    code = oracle._covers_of_size.__code__
    lines, first = inspect.getsourcelines(code)
    pops = {first + i for i, line in enumerate(lines) if "stack.pop()" in line}
    assert len(pops) == 1
    nodes = [0]

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in pops:
            nodes[0] += 1
        return local

    inputs = _budget_inputs()
    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        for cg in inputs:
            min_connected_vertex_cover(cg.graph)
            min_capacitated_vc(cg)
            for k in range(1, 7):
                min_capacitated_vc(cg, k)
    finally:
        sys.settrace(old)
    assert assigns[0] <= 108, assigns
    assert nodes[0] <= 16868, nodes
