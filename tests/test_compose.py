"""OR-composition: dummy rows, position schedule, and OR-semantics."""

import random
from collections import Counter

import pytest

from twinwidth.trigraph import Graph
from twinwidth.sequence import ContractionSequence, verify
from twinwidth.oracle import dominating_transversal, min_dominating_set
from twinwidth.gadgets import (
    AnnotatedInstance,
    LayoutClause,
    LayoutFormula,
    fine_dims,
    hamiltonian_cycle,
    reduce_3sat,
    validate_instance,
)
from twinwidth import compose, gadgets
from twinwidth.compose import make_dummy, or_cross_compose, stage2_order

import compose_reference as reference
from test_acceptance import synthetic_instance

# p in 2..8 and even q in 2..12
ALL_DIMS = [(p, q) for p in range(2, 9) for q in range(2, 13, 2)]


def _singleton_instance(p, q):
    """Budget-N yes-instance: N isolated vertices, one per class."""
    rows, cols = fine_dims(p, q)
    n = rows * cols
    cyc = hamiltonian_cycle(p, q)
    return AnnotatedInstance(
        Graph(range(1, n + 1)),
        tuple(frozenset([v]) for v in range(1, n + 1)),
        p, q,
        {j: cyc[j] for j in range(n)},
        ContractionSequence(n, []),
    )


def test_make_dummy_is_a_no_instance(monkeypatch):
    inst = make_dummy(16, 2, 2)
    validate_instance(inst)
    assert inst.graph.n == 32
    assert all(len(part) == 2 for part in inst.parts)
    # every vertex is isolated, so domination needs all of them
    monkeypatch.setenv("TWW_SIZE_CAP", "32")
    size, _ = min_dominating_set(inst.graph)
    assert size == 32
    with pytest.raises(ValueError):
        make_dummy(15, 2, 2)


def test_validate_accepts_parts_in_any_order():
    # part 0 is {1, 2}, part 1 is {3, 4}: listing them the other way
    # round (eta swapped with them) describes the same instance
    inst = make_dummy(16, 2, 2)
    parts = (inst.parts[1], inst.parts[0]) + inst.parts[2:]
    eta = dict(inst.eta)
    eta[0], eta[1] = inst.eta[1], inst.eta[0]
    swapped = AnnotatedInstance(inst.graph, parts, inst.p, inst.q, eta, inst.witness)
    validate_instance(swapped)
    assert or_cross_compose([swapped]).graph == or_cross_compose([inst]).graph


def test_classify_positions_frozen_counts():
    def hist(p, q):
        return Counter(v if isinstance(v, str) else "path"
                       for v in reference.classify_positions(p, q).values())

    assert hist(2, 2) == {"blue": 14, "purple": 2}
    assert hist(2, 4) == {"blue": 28, "purple": 10, "orange": 2}
    assert hist(3, 4) == {"blue": 40, "purple": 12, "orange": 2, "path": 16}


def _stage2_order(p, q):
    return stage2_order(gadgets.augmented_grid(p, q, hamiltonian_cycle(p, q)))


def test_stage2_order_is_a_permutation_by_class():
    for p, q in [(2, 2), (2, 4), (3, 4)]:
        classes = reference.classify_positions(p, q)
        order = _stage2_order(p, q)
        assert sorted(order) == sorted(classes)
        seen_rank = {"blue": 0, "purple": 1, "orange": 2, "path": 3}
        ranks = [seen_rank[c if isinstance(c, str) else "path"]
                 for c in (classes[pt] for pt in order)]
        assert ranks == sorted(ranks)
        # band positions come in their snake order
        band = [classes[pt][1] for pt in order if isinstance(classes[pt], tuple)]
        assert band == sorted(band)


def test_stage2_order_and_augmented_grid_match_reference():
    for p, q in ALL_DIMS:
        assert _stage2_order(p, q) == reference.stage2_order(p, q), (p, q)
        assert gadgets.augmented_snaking_grid(p, q) == reference.augmented_snaking_grid(p, q)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_compose_builds_each_grid_few_times(monkeypatch, k):
    calls = Counter()

    def counted(name):
        real = getattr(gadgets, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        for module in (gadgets, compose):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)

    instances = [make_dummy(40, 2, 4)] * k
    for name in ("_snake", "snaking_grid", "hamiltonian_cycle", "augmented_grid",
                 "augmented_snaking_grid"):
        counted(name)
    assert not hasattr(compose, "snaking_grid")
    assert not hasattr(compose, "augmented_snaking_grid")
    or_cross_compose(instances)
    # one snake per validated input plus the one grid map that the
    # schedule and the audit share; one cycle, for the dummy row, which
    # the grid map and the column map reuse
    assert calls == {"_snake": k + 1, "hamiltonian_cycle": 1, "augmented_grid": 1}


# (formulas per composition, variables) of one block of the benchmark's
# pipeline workload, each formula one clause of a random sign
PIPELINE_SHAPES = [(3, 5), (2, 3), (3, 7), (3, 6), (2, 5), (4, 5), (4, 4), (3, 3), (4, 6)]


def test_composed_graph_matches_edge_list_reference():
    # the rows shifted and the cells joined, against the edge list of
    # every input edge and half-graph pair: on criterion 8's two
    # compositions and on one composition of each pipeline shape
    yes, no = synthetic_instance(2, 2), synthetic_instance(2, 2, doubled=True)
    compositions = [[yes, no], [no, no]]
    rng = random.Random(33)
    for count, n in PIPELINE_SHAPES:
        formulas = []
        for _ in range(count):
            low = rng.randint(1, n - 2)
            lits = tuple(v * rng.choice((1, -1)) for v in range(low, low + 3))
            formulas.append(LayoutFormula(n, [LayoutClause(rng.choice("+-"), 1, lits)]))
        compositions.append([reduce_3sat(f).instance for f in formulas])
    for instances in compositions:
        assert or_cross_compose(instances).graph == reference.composed_graph(instances)


def test_compose_rejects_mismatched_inputs():
    with pytest.raises(ValueError):
        or_cross_compose([])
    with pytest.raises(ValueError):
        or_cross_compose([_singleton_instance(2, 2), make_dummy(160, 2, 4)])


def test_compose_or_semantics_synthetic():
    n = 16
    yes = _singleton_instance(2, 2)
    no = make_dummy(n, 2, 2)

    pos = or_cross_compose([yes, no])
    assert pos.graph.n == 80
    rep = verify(pos.graph, pos.witness, bound=4)
    assert rep.ok and rep.width == 3
    blocks = pos.forced_parts()
    assert len(blocks) == n
    assert sorted(map(len, blocks)) == [5] * n
    assert set().union(*blocks) == set(pos.graph.vertices)
    ds = dominating_transversal(pos.graph, blocks)
    assert len(ds) == n
    assert all(len(ds & b) == 1 for b in blocks)

    neg = or_cross_compose([no, no])
    assert verify(neg.graph, neg.witness, bound=4).ok
    assert dominating_transversal(neg.graph, neg.forced_parts()) is None


def test_compose_edge_taxonomy():
    comp = or_cross_compose([_singleton_instance(2, 2), make_dummy(16, 2, 2)])
    n_cols = comp.budget
    for u, v in comp.graph.edges():
        (ru, cu), (rv, cv) = comp.provenance[u], comp.provenance[v]
        if ru == rv:
            continue  # edge inside one stacked instance
        lo, hi = ((ru, cu), (rv, cv)) if ru < rv else ((rv, cv), (ru, cu))
        assert hi[1] == lo[1] % n_cols + 1  # deeper endpoint one column on


def test_compose_forced_parts_cover_real_columns():
    comp = or_cross_compose([_singleton_instance(2, 2)])
    blocks = comp.forced_parts()
    assert len(blocks) == comp.budget
    for col, block in enumerate(blocks, start=1):
        real = {v for v in block if comp.provenance[v][0] < comp.rows}
        assert real == {v for v, (row, c) in comp.provenance.items()
                        if row < comp.rows and c == col}


def test_compose_reduced_formulas():
    f1 = LayoutFormula(3, [LayoutClause("+", 1, (1, 2, -3))])
    f2 = LayoutFormula(3, [LayoutClause("-", 1, (1, 2, -3))])
    comp = or_cross_compose([reduce_3sat(f1).instance, reduce_3sat(f2).instance])
    assert comp.graph.n == 290
    rep = verify(comp.graph, comp.witness, bound=4)
    assert rep.ok and rep.width == 4
    assert comp.witness.is_full
    # both formulas are satisfiable, so the composition is positive
    assert len(dominating_transversal(comp.graph, comp.forced_parts())) == comp.budget


def test_degree_audit_survives_optimize_flag(run_optimized):
    # contracting the stage-2 positions in reverse order breaks the
    # audit; the check must still fire when asserts are stripped
    script = (
        "from twinwidth import compose\n"
        "order = compose.stage2_order\n"
        "compose.stage2_order = lambda nbrs: order(nbrs)[::-1]\n"
        "compose.or_cross_compose([compose.make_dummy(40, 2, 4)])\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 1
    assert "InternalError: degree audit failed at (2, 7): C=0 P=3" in proc.stderr


def test_position_degree_check_survives_optimize_flag(run_optimized):
    # without the hamiltonian cycle edges the grid positions lose the
    # degrees the stage-2 schedule relies on; the check must fire when
    # asserts are stripped
    script = (
        "from twinwidth import compose, gadgets\n"
        "def snaking_only(p, q, cyc):\n"
        "    sg = gadgets.snaking_grid(p, q)\n"
        "    point = {v: pt for pt, v in sg.vertex_at.items()}\n"
        "    return {pt: {point[w] for w in sg.graph.adj[v]}\n"
        "            for pt, v in sg.vertex_at.items()}\n"
        "compose.augmented_grid = snaking_only\n"
        "compose.or_cross_compose([compose.make_dummy(40, 2, 4)])\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 1
    assert "InternalError: position (2, 2) has degree 0" in proc.stderr


@pytest.mark.parametrize("p,q", [(2, 2), (2, 4), (3, 4)])
def test_compose_degree_audit_across_dims(p, q):
    rows, cols = fine_dims(p, q)
    n = rows * cols
    for t in (1, 2, 3):
        comp = or_cross_compose([make_dummy(n, p, q) for _ in range(t)])
        assert verify(comp.graph, comp.witness, bound=4).ok
