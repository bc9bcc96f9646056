"""Acceptance gate: twelve end-to-end checks with time budgets.

Each criterion records one pass/fail line (echoed by conftest in the
terminal summary) and fails if its wall-clock budget is exceeded.
Frozen constants come from the module test suites, where they were
derived independently first.
"""

import functools
import itertools
import random
import time

from twinwidth.trigraph import Graph, Trigraph, contract
from twinwidth.sequence import ContractionSequence, replay, verify
from twinwidth.oracle import (CapacitatedGraph, dominating_transversal,
                              exact_twinwidth, is_dominating_set,
                              min_dominating_set, all_min_dominating_sets,
                              min_connected_vertex_cover, min_capacitated_vc)
from twinwidth.recognize import recognize_tww1
from twinwidth.kernel import (capvc_kernel, cvc_kernel_improved,
                              cvc_kernel_quadratic)
from twinwidth.gadgets import (AnnotatedInstance, LayoutClause, LayoutFormula,
                               fine_dims, grid_subdivision_collapse,
                               halfgraph_cycle, hamiltonian_cycle, reduce_3sat,
                               lift_assignment, snaking_grid, validate_instance,
                               variable_wire)
from twinwidth.compose import or_cross_compose
from twinwidth.dpsolve import check_component_bound, min_ds_dp, min_vc_dp

from gen_tww1 import random_tww1
from trigraph_reference import edge_list


RESULTS = []


def criterion(num, budget, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            ok = False
            try:
                fn()
                elapsed = time.perf_counter() - start
                assert elapsed < budget, (
                    "budget exceeded: %.2fs >= %gs" % (elapsed, budget))
                ok = True
            finally:
                elapsed = time.perf_counter() - start
                RESULTS.append("criterion %2d %s %-42s %7.3fs / %gs"
                               % (num, "PASS" if ok else "FAIL", label,
                                  elapsed, budget))
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# shared fixtures

F1 = LayoutFormula(3, [LayoutClause("+", 1, (1, 2, -3))])
F2 = LayoutFormula(3, [LayoutClause("-", 1, (1, 2, -3))])
F3 = LayoutFormula(4, [LayoutClause("+", 1, (-1, 3, 4)),
                       LayoutClause("-", 1, (1, 2, 4))])
F4 = LayoutFormula(4, [LayoutClause("+", 1, (2, 3, 4)),
                       LayoutClause("+", 2, (1, 2, 4))])
F5 = LayoutFormula(5, [LayoutClause("+", 1, (1, 2, 3)),
                       LayoutClause("-", 1, (3, 4, 5)),
                       LayoutClause("+", 2, (1, 3, 5))])

SATISFYING = {
    id(F1): {1: True, 2: False, 3: False},
    id(F2): {1: True, 2: False, 3: False},
    id(F3): {1: False, 2: True, 3: True, 4: False},
    id(F4): {1: True, 2: True, 3: True, 4: True},
    id(F5): {1: True, 2: False, 3: True, 4: False, 5: False},
}


def formula_satisfiable(f: LayoutFormula) -> bool:
    for bits in itertools.product((False, True), repeat=f.n):
        model = dict(enumerate(bits, start=1))
        if all(any(model[abs(l)] == (l > 0) for l in cl.literals)
               for cl in f.clauses):
            return True
    return False


def synthetic_instance(p, q, doubled=False):
    """All-isolated YES instance; doubled adds a forced extra pick (NO)."""
    points = hamiltonian_cycle(p, q)
    count = len(points)
    n = count + (1 if doubled else 0)
    parts = [frozenset([j]) for j in range(1, count + 1)]
    steps = []
    if doubled:
        parts[0] = frozenset([1, n])
        steps = [(n + 1, 1, n)]
    return AnnotatedInstance(
        graph=Graph(range(1, n + 1)),
        parts=tuple(parts),
        p=p, q=q,
        eta={j: points[j] for j in range(count)},
        witness=ContractionSequence(n, steps),
    )


def red_grid(p, q):
    verts = range(1, p * q + 1)
    at = {(r, c): (r - 1) * q + c for r in range(1, p + 1) for c in range(1, q + 1)}
    red = [(at[r, c], at[r, c + 1]) for r in range(1, p + 1) for c in range(1, q)]
    red += [(at[r, c], at[r + 1, c]) for r in range(1, p) for c in range(1, q + 1)]
    t = Trigraph(verts, red_edges=red)
    return t, {v: pt for pt, v in at.items()}


# ---------------------------------------------------------------------------
# the gate

@criterion(1, 0.001, "contraction rule ground truth")
def test_01_contraction_ground_truth():
    black = [(1, 4), (1, 7), (1, 8), (1, 10), (1, 12), (1, 13),
             (2, 7), (2, 8), (2, 9), (2, 12), (2, 13), (2, 5)]
    red = [(1, 3), (1, 9), (1, 11), (2, 10), (2, 11), (2, 6)]
    t = contract(Trigraph(range(1, 14), black_edges=black, red_edges=red), 1, 2)
    assert t.black[14] == {7, 8, 12, 13}
    assert t.red[14] == {3, 4, 5, 6, 9, 10, 11}


@criterion(2, 10.0, "exact oracle calibration")
def test_02_exact_oracle_calibration():
    for n in range(1, 9):
        assert exact_twinwidth(Graph.complete(n))[0] == 0
    assert exact_twinwidth(Graph.cycle(5))[0] == 2
    assert exact_twinwidth(Graph.path(4))[0] == 1
    k33 = Graph(range(1, 7), [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
    two_triangles = Graph(range(1, 7), [(1, 2), (1, 3), (2, 3),
                                        (4, 5), (4, 6), (5, 6)])
    # threshold graph: alternately add a dominating and an isolated vertex
    threshold_edges = []
    for v in range(2, 7):
        if v % 2 == 0:
            threshold_edges += [(u, v) for u in range(1, v)]
    threshold = Graph(range(1, 7), threshold_edges)
    co_2k2 = Graph.cycle(4)
    for cograph in (k33, two_triangles, threshold, co_2k2):
        width, seq = exact_twinwidth(cograph)
        assert width == 0
        assert verify(cograph, seq, bound=0).ok


@criterion(3, 60.0, "generated witnesses verify in bounds")
def test_03_witness_suite():
    for layers in range(3, 9):
        for height in range(1, 9):
            g, seq = halfgraph_cycle(layers, height)
            assert verify(g, seq, bound=3).ok, (layers, height)
    for p, q in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (2, 5)]:
        t, embedding = red_grid(p, q)
        seq = ContractionSequence.from_merges(t.n, grid_subdivision_collapse(t, embedding))
        assert verify(t, seq, bound=4).ok, (p, q)
    instances = []
    for f in (F1, F2, F3, F4, F5):
        inst = reduce_3sat(f).instance
        assert verify(inst.graph, inst.witness, bound=4).ok
        instances.append(inst)
    for pair in ([instances[0], instances[1]],
                 [synthetic_instance(2, 2), synthetic_instance(2, 2)]):
        composed = or_cross_compose(pair)
        report = verify(composed.graph, composed.witness, bound=4)
        assert report.ok and composed.witness.is_full


@criterion(4, 5.0, "snaking grid counts and quotient embedding")
def test_04_snaking_counts():
    for s in range(2, 7):
        for t in range(2, 7):
            rows, cols = fine_dims(s, t)
            assert (rows, cols) == (3 * (s - 1) + 1, 3 * (t - 1) + 1)
            assert snaking_grid(s, t).graph.n == rows * cols
    # spanning-subgraph validation of every reduction quotient under eta
    for f in (F1, F2, F3, F4, F5):
        validate_instance(reduce_3sat(f).instance)
    validate_instance(synthetic_instance(2, 4))


@criterion(5, 10.0, "satisfying assignments lift to dominating sets")
def test_05_reduction_forward():
    for f in (F1, F2, F3, F4, F5):
        red = reduce_3sat(f)
        lifted = lift_assignment(red, SATISFYING[id(f)])
        assert len(lifted) == red.instance.part_count
        assert is_dominating_set(red.instance.graph, lifted)


@criterion(6, 300.0, "SAT iff gamma equals part count (<= 2 clauses)")
def test_06_reduction_equivalence():
    empty = LayoutFormula(2, [])
    negated = LayoutFormula(3, [LayoutClause("-", 1, (-1, -2, -3))])
    for f in (empty, F1, F2, F3, F4, negated):
        red = reduce_3sat(f)
        inst = red.instance
        witness = dominating_transversal(inst.graph, inst.parts)
        sat = formula_satisfiable(f)
        assert sat == (witness is not None), f.clauses
        if witness is not None:
            assert len(witness) == inst.part_count
            assert is_dominating_set(inst.graph, witness)


@criterion(7, 10.0, "wires admit exactly the two uniform optima")
def test_07_wire_optima():
    shapes = [(None, 0),
              (None, 0, 0), (None, 0, 1),
              (None, 0, 0, 0), (None, 0, 0, 1), (None, 0, 1, 1),
              (None, 0, 1, 2)]
    for parents in shapes:
        wire = variable_wire(parents)
        optima = all_min_dominating_sets(wire.graph)
        tops = frozenset(g["top"] for g in wire.gadgets)
        bots = frozenset(g["bot"] for g in wire.gadgets)
        assert len(optima[0]) == len(parents)
        assert sorted(optima) == sorted([tops, bots]), parents


@criterion(8, 300.0, "composition has OR semantics")
def test_08_composition_or_semantics():
    yes, no = synthetic_instance(2, 2), synthetic_instance(2, 2, doubled=True)

    def positive(pair):
        composed = or_cross_compose(pair)
        return dominating_transversal(composed.graph, composed.forced_parts()) is not None

    assert positive([yes, no])
    assert not positive([no, no])


@criterion(9, 60.0, "stage-2 degree audit never trips")
def test_09_degree_audit():
    for p, q in [(2, 2), (2, 4), (3, 4)]:
        for t in (1, 2, 3):
            composed = or_cross_compose([synthetic_instance(p, q)] * t)
            report = verify(composed.graph, composed.witness, bound=4)
            assert report.ok and composed.witness.is_full, (p, q, t)


@criterion(10, 600.0, "kernels preserve answers and reach fixpoints")
def test_10_kernel_safeness():
    rng = random.Random(20240817)
    for trial in range(300):
        n = rng.randint(4, 12)
        while True:
            edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                     if rng.random() < 0.35]
            g = Graph(range(1, n + 1), edges)
            if g.is_connected():
                break
        caps = {v: rng.randint(0, 3) for v in g.vertices}
        cg = CapacitatedGraph(g, caps)
        cvc = min_connected_vertex_cover(g)
        capv = min_capacitated_vc(cg)
        for k in range(1, 7):
            cvc_yes = cvc is not None and cvc[0] <= k
            cap_yes = capv is not None and len(capv) <= k
            for kernelize in (cvc_kernel_quadratic, cvc_kernel_improved):
                ker = kernelize(g, k)
                if ker.trivial_no:
                    after = False
                else:
                    res = min_connected_vertex_cover(ker.graph)
                    after = res is not None and res[0] <= k
                    again = kernelize(ker.graph, k)
                    assert again.trace == (), (kernelize.__name__, trial, k)
                assert cvc_yes == after, (kernelize.__name__, trial, k)
            ker = capvc_kernel(cg, k)
            if ker.trivial_no:
                after = False
            else:
                after = min_capacitated_vc(ker.graph, k) is not None
                again = capvc_kernel(ker.graph, k)
                assert again.trace == (), ("capvc", trial, k)
            assert cap_yes == after, ("capvc", trial, k)


def _check_recognition(g):
    width, _ = exact_twinwidth(g)
    result = recognize_tww1(g)
    expected = {0: "tww0", 1: "tww1"}.get(width, "above1")
    assert result.verdict == expected, sorted(g.edges())
    if result.witness is not None:
        bound = 0 if result.verdict == "tww0" else 1
        assert verify(g, result.witness, bound=bound).ok
        for t in replay(g, result.witness):
            assert len(edge_list(t.red)) <= bound


@criterion(11, 900.0, "recognition matches the exact oracle")
def test_11_recognition_vs_exact():
    pairs = list(itertools.combinations(range(1, 7), 2))
    for mask in range(1 << 15):
        edges = [pairs[i] for i in range(15) if mask >> i & 1]
        _check_recognition(Graph(range(1, 7), edges))
    rng = random.Random(606)
    for _ in range(500):
        edges = [(i, j) for i in range(1, 9) for j in range(i + 1, 9)
                 if rng.random() < 0.5]
        _check_recognition(Graph(range(1, 9), edges))


@criterion(12, 300.0, "dynamic programming equals the oracles")
def test_12_dp_vs_oracles():
    def brute_vc(g):
        verts, edges = sorted(g.vertices), list(g.edges())
        for k in range(len(verts) + 1):
            for sub in itertools.combinations(verts, k):
                cover = set(sub)
                if all(u in cover or v in cover for u, v in edges):
                    return k

    rng = random.Random(121212)
    overlap = 0
    for trial in range(200):
        n = rng.randint(4, 12) if trial % 2 else rng.randint(13, 40)
        g, seq = random_tww1(n, rng)
        c = max(2, check_component_bound(g, seq))
        vc = min_vc_dp(g, seq, c)
        ds = min_ds_dp(g, seq, c)
        assert 0 <= vc <= n and 1 <= ds <= n
        if n <= 12:
            overlap += 1
            assert vc == brute_vc(g), (trial, n)
            assert ds == min_dominating_set(g)[0], (trial, n)
    assert overlap >= 90
