"""Generators: snaking grids, half-graph cycles, and the 3-SAT reduction."""

import collections
import random
import re
from dataclasses import replace

import pytest

from twinwidth.trigraph import Graph, Trigraph
from twinwidth.compose import make_dummy
from twinwidth.sequence import ContractionSequence, verify
from twinwidth.oracle import (all_min_dominating_sets, dominating_transversal, is_dominating_set,
                              min_dominating_set)
from twinwidth.gadgets import (
    LayoutClause,
    LayoutFormula,
    augmented_snaking_grid,
    column_of,
    fine_dims,
    grid_subdivision_collapse,
    halfgraph_cycle,
    hamiltonian_cycle,
    lift_assignment,
    reduce_3sat,
    snaking_grid,
    validate_instance,
    variable_wire,
)

import gadgets_reference as reference
from test_acceptance import formula_satisfiable


def test_fine_dims():
    assert fine_dims(2, 2) == (4, 4)
    assert fine_dims(5, 10) == (13, 28)
    assert fine_dims(1, 4) == (1, 10)


def test_snaking_grid_counts():
    sg = snaking_grid(5, 10)
    assert sg.graph.n == 364
    assert sg.graph.edge_count() == 327
    for s, t, n, m in [(2, 2, 16, 14), (3, 3, 49, 44), (4, 2, 40, 36),
                       (1, 2, 4, 3), (1, 4, 10, 9)]:
        g = snaking_grid(s, t).graph
        assert (g.n, g.edge_count()) == (n, m)


def test_snaking_grid_structure():
    sg = snaking_grid(3, 3)
    rows, cols = sg.fine_rows, sg.fine_cols
    at = sg.vertex_at
    g = sg.graph
    # bottom row is fully wired, other rows only in their parity pattern
    for c in range(1, cols):
        assert at[1, c + 1] in g.adj[at[1, c]]
    assert at[2, 2] not in g.adj[at[2, 1]]
    # sparse columns carry full verticals
    for c in (1, 4, 7):
        for r in range(1, rows):
            assert at[r + 1, c] in g.adj[at[r, c]]
    assert at[2, 2] not in g.adj[at[1, 2]]
    assert max(len(g.adj[v]) for v in g.vertices) <= 3
    # fill vertices away from the wall pattern are isolated
    assert len(g.adj[at[2, 2]]) == 0


def test_snaking_grid_rejects_bad_dims():
    with pytest.raises(ValueError):
        snaking_grid(0, 3)
    with pytest.raises(ValueError):
        snaking_grid(2, 1)


def test_hamiltonian_cycle_small():
    assert hamiltonian_cycle(2, 2) == [
        (1, 1), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4), (4, 4), (4, 3),
        (3, 3), (2, 3), (2, 2), (3, 2), (4, 2), (4, 1), (3, 1), (2, 1)]


def test_hamiltonian_cycle_covers_grid():
    cyc = hamiltonian_cycle(3, 4)
    rows, cols = fine_dims(3, 4)
    assert len(cyc) == rows * cols
    assert len(set(cyc)) == len(cyc)
    assert cyc[0] == (1, 1) and cyc[1] == (1, 2)


def test_hamiltonian_cycle_matches_reference():
    # the closed form against the old walk of the cycle's 2-regular edges
    for p in range(2, 9):
        for q in range(2, 15, 2):
            assert hamiltonian_cycle(p, q) == reference.hamiltonian_cycle(p, q), (p, q)


def test_hamiltonian_cycle_needs_even_q():
    with pytest.raises(ValueError):
        hamiltonian_cycle(2, 3)
    with pytest.raises(ValueError):
        hamiltonian_cycle(1, 2)


def test_augmented_grid_stays_subcubic():
    for p, q in [(2, 2), (3, 4)]:
        aug = augmented_snaking_grid(p, q)
        assert max(len(aug.adj[v]) for v in aug.vertices) == 3


def test_halfgraph_cycle_widths():
    g, seq = halfgraph_cycle(5, 6)
    assert g.n == 30
    rep = verify(g, seq, bound=3)
    assert rep.ok and rep.width == 3
    assert seq.is_full
    # height 1 gives no edges at all
    g, seq = halfgraph_cycle(4, 1)
    assert verify(g, seq, bound=0).ok
    with pytest.raises(ValueError):
        halfgraph_cycle(2, 3)


def test_grid_subdivision_collapse_red_grid():
    # a fully red 3x3 grid folds column by column within width 4
    red = [(3 * (r - 1) + c, 3 * r + c) for r in range(1, 3) for c in range(1, 4)]
    red += [(3 * (r - 1) + c, 3 * (r - 1) + c + 1) for r in range(1, 4) for c in range(1, 3)]
    t = Trigraph(range(1, 10), red_edges=red)
    embedding = {3 * (r - 1) + c: (r, c) for r in range(1, 4) for c in range(1, 4)}
    seq = ContractionSequence.from_merges(t.n, grid_subdivision_collapse(t, embedding))
    rep = verify(Graph(range(1, 10), red), seq, bound=4)
    assert rep.ok and rep.width == 4
    assert seq.is_full


def test_grid_subdivision_collapse_path():
    g = Graph.path(5)
    pairs = grid_subdivision_collapse(Trigraph.from_graph(g), {c: (1, c) for c in range(1, 6)})
    assert verify(g, ContractionSequence.from_merges(g.n, pairs), bound=2).ok


def test_grid_subdivision_collapse_rejects_bad_embeddings():
    g = Graph([1, 2], [(1, 2)])
    with pytest.raises(ValueError):
        grid_subdivision_collapse(Trigraph.from_graph(g), {1: (1, 1), 2: (1, 3)})
    with pytest.raises(ValueError):
        # diagonal neighbors are not grid-adjacent
        grid_subdivision_collapse(Trigraph.from_graph(g), {1: (1, 1), 2: (2, 2)})
    with pytest.raises(ValueError):
        grid_subdivision_collapse(Trigraph.from_graph(g), {1: (1, 1), 2: (1, 1)})


def test_grid_subdivision_collapse_skips_empty_cells():
    # 1 alone at the bottom left, 2 above 3 in the right column: the
    # merges out of the empty cells (3, 1) and (2, 1) are skipped, and 1
    # moves into the empty cell (1, 2) before the last column folds
    g = Graph([1, 2, 3], [(2, 3)])
    embedding = {1: (1, 1), 2: (2, 2), 3: (3, 2)}
    pairs = grid_subdivision_collapse(Trigraph.from_graph(g), embedding)
    assert pairs == [(3, 2), (2, 1)]
    assert ContractionSequence.from_merges(g.n, pairs).is_full


def test_grid_subdivision_collapse_rejects_bad_cells():
    one = Trigraph.from_graph(Graph([1]))
    with pytest.raises(ValueError, match="cells are 1-based"):
        grid_subdivision_collapse(one, {1: (0, 1)})
    with pytest.raises(ValueError, match="must cover exactly the vertices"):
        grid_subdivision_collapse(one, {1: (1, 1), 2: (1, 2)})


def test_layout_formula_validation():
    with pytest.raises(ValueError):
        LayoutClause("+", 1, (2, 1, 3)) and LayoutFormula(3, [LayoutClause("+", 1, (2, 1, 3))])
    with pytest.raises(ValueError):
        LayoutFormula(3, [LayoutClause("*", 1, (1, 2, 3))])
    with pytest.raises(ValueError):
        LayoutFormula(2, [LayoutClause("+", 1, (1, 2, 3))])
    with pytest.raises(ValueError):  # ranks must be 1..k per family
        LayoutFormula(3, [LayoutClause("+", 2, (1, 2, 3))])
    with pytest.raises(ValueError):  # middle reused later in the family
        LayoutFormula(5, [LayoutClause("+", 1, (1, 2, 3)),
                          LayoutClause("+", 2, (2, 4, 5))])
    with pytest.raises(ValueError):  # enclosed variable still live
        LayoutFormula(5, [LayoutClause("+", 1, (1, 3, 5)),
                          LayoutClause("+", 2, (2, 4, 5))])
    # opposite families do not constrain each other
    LayoutFormula(5, [LayoutClause("+", 1, (1, 3, 5)),
                      LayoutClause("-", 1, (2, 4, 5))])


@pytest.mark.parametrize("sign", ["", "+-"])
def test_layout_formula_refuses_a_sign_of_neither_family(sign):
    # a substring test of "+-" took both, and the reduction then
    # dropped the clause, which belongs to neither family
    with pytest.raises(ValueError, match=re.escape("clause sign must be + or -")):
        LayoutFormula(3, [LayoutClause(sign, 1, (1, 2, 3))])


def _outcome(check):
    """None when check() returns, else the message it raises."""
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


def _chain_family(rng, n, sign):
    """Clauses on windows of three consecutive live variables, mostly
    the front one, each retiring its middle and often its low end: so
    the family retires variables from the front, in long runs.  Now
    and then a clause takes a random triple instead."""
    live = list(range(1, n + 1))
    clauses = []
    for rank in range(1, rng.randint(1, n // 3) + 1):
        i = 0 if rng.random() < 0.7 else rng.randrange(len(live) - 2)
        vs = live[i:i + 3]
        del live[i + 1]
        if rng.random() < 0.5:
            del live[i]
        if rng.random() < 0.05:
            vs = sorted(rng.sample(range(1, n + 1), 3))
        clauses.append(LayoutClause(sign, rank, tuple(v * rng.choice((1, -1)) for v in vs)))
    return clauses


def test_removal_check_matches_reference():
    # the next-live pointers against the rescan of every later clause,
    # family by family in the constructor's order, on seeded families
    # of both signs with valid ranks and literals, so that the removal
    # check alone decides: the same verdict, message and first variable
    # reported; first on random triples, then on front-retiring chains
    rng = random.Random(32)
    seen = collections.Counter()
    for trial in range(6500):
        if trial < 5000:
            n, clauses = rng.randint(3, 9), []
            for sign in "+-":
                m = rng.randint(0, 4)
                for rank in rng.sample(range(1, m + 1), m):
                    vs = sorted(rng.sample(range(1, n + 1), 3))
                    clauses.append(LayoutClause(sign, rank, tuple(v * rng.choice((1, -1))
                                                                  for v in vs)))
        else:
            n = rng.randint(10, 40)
            clauses = _chain_family(rng, n, "+") + _chain_family(rng, n, "-")
        want = _outcome(lambda: [reference.check_removal([cl for cl in clauses if cl.sign == s])
                                 for s in "+-"])
        assert _outcome(lambda: LayoutFormula(n, clauses)) == want, clauses
        seen[trial < 5000, want and want.split()[0]] += 1
    assert min(seen[True, None], seen[True, "variable"], seen[True, "middle"]) > 300, seen
    assert min(seen[False, None], seen[False, "variable"], seen[False, "middle"]) > 100, seen


def _unvalidated(n, clauses):
    """A LayoutFormula that skipped its constructor's validation."""
    f = object.__new__(LayoutFormula)
    object.__setattr__(f, "n", n)
    object.__setattr__(f, "clauses", tuple(clauses))
    return f


@pytest.mark.parametrize("ranks,where", [((1, 2), "lay"), ((1, 1), "place")])
def test_reduction_catches_wire_collisions(ranks, where):
    # validation rejects both formulas: the middle 2 reused at rank 2
    # sends the second clause's wire of 2 into the first clause's
    # point, and two rank-1 clauses over one middle share a clause point
    f = _unvalidated(3, [LayoutClause("+", r, (1, 2, 3)) for r in ranks])
    with pytest.raises(ValueError):
        LayoutFormula(f.n, f.clauses)
    with pytest.raises(ValueError, match=r"wire collision at \(3, 4\)") as err:
        reduce_3sat(f)
    assert err.traceback[-1].name == where


F1 = LayoutFormula(3, [LayoutClause("+", 1, (1, 2, -3))])
F2 = LayoutFormula(3, [LayoutClause("-", 1, (1, 2, -3))])
F3 = LayoutFormula(4, [LayoutClause("+", 1, (-1, 3, 4)),
                       LayoutClause("-", 1, (1, 2, 4))])
F4 = LayoutFormula(4, [LayoutClause("+", 1, (2, 3, 4)),
                       LayoutClause("+", 2, (1, 2, 4))])
F5 = LayoutFormula(5, [LayoutClause("+", 1, (1, 2, 3)),
                       LayoutClause("-", 1, (3, 4, 5)),
                       LayoutClause("+", 2, (1, 3, 5))])

MICRO = [
    # formula, parts, vertices, edges, steps, satisfying, falsifying
    (F1, 40, 113, 127, 73, {1: True, 2: False, 3: False}, {1: False, 2: False, 3: True}),
    (F2, 40, 97, 99, 57, {1: True, 2: False, 3: False}, {1: False, 2: False, 3: True}),
    (F3, 70, 228, 277, 158, {1: False, 2: True, 3: True, 4: False},
     {1: True, 2: False, 3: False, 4: False}),
    (F4, 70, 244, 305, 174, {1: True, 2: True, 3: True, 4: True},
     {1: False, 2: False, 3: False, 4: False}),
    (F5, 160, 411, 440, 251, {1: True, 2: False, 3: True, 4: False, 5: False},
     {1: False, 2: False, 3: False, 4: False, 5: False}),
]


@pytest.mark.parametrize("f,parts,n,m,steps,good,bad", MICRO)
def test_reduce_3sat_micro(f, parts, n, m, steps, good, bad):
    red = reduce_3sat(f)
    inst = red.instance
    assert len(inst.parts) == parts
    assert inst.graph.n == n
    assert inst.graph.edge_count() == m
    assert len(inst.witness.steps) == steps
    validate_instance(inst)
    rep = verify(inst.graph, inst.witness, bound=4)
    assert rep.ok and rep.width == 4
    lifted = lift_assignment(red, good)
    assert len(lifted) == parts
    assert is_dominating_set(inst.graph, lifted)
    assert not is_dominating_set(inst.graph, lift_assignment(red, bad))


def test_reduce_3sat_layout_details():
    red = reduce_3sat(F1)
    # variable row at the bottom when no lower clauses exist
    assert red.variable_row == 1
    assert red.gadgets[1, column_of(1)].kind == "initial"
    assert red.gadgets[1, column_of(4)].kind == "initial"  # padding variable
    # the clause sits one row under its nominal row, above its middle
    assert red.gadgets[3, column_of(2)].kind == "clause"
    red2 = reduce_3sat(F2)
    assert red2.variable_row == 4
    assert red2.gadgets[1, column_of(2)].kind == "clause"


def _six_variable_formula(last):
    """A greedy search's n = 6 layout formula, its last lower clause given.

    With (-1, 3, -6) it is unsatisfiable; with (1, 3, -6) it is
    satisfiable and has the same shape, so the two reduce to graphs of
    one size."""
    upper = [(1, 2, 3), (-3, 4, -5), (-3, 5, -6), (-1, 3, 6)]
    lower = [(-3, -4, -5), (-3, 5, 6), (1, -2, 3), last]
    return LayoutFormula(6, [LayoutClause("+", r, lits) for r, lits in enumerate(upper, 1)]
                         + [LayoutClause("-", r, lits) for r, lits in enumerate(lower, 1)])


def test_reduction_no_side_on_unsatisfiable_formula(monkeypatch):
    """The reduction's "only if": an unsatisfiable formula's reduction has
    no dominating set with one vertex per part, and flipping one clause
    to a satisfiable formula brings one back.

    The transversal search answers "is there a dominating set of
    part-count size" only under the paper's lemma that every dominating
    set within that budget meets every part.  At 1,228 vertices the lemma
    cannot be brute-forced, so this checks the transversal question."""
    # the reductions have 1,228 vertices; the forced search's cap is 512
    monkeypatch.setenv("TWW_SIZE_CAP", "1228")
    for last, sat in (((-1, 3, -6), False), ((1, 3, -6), True)):
        f = _six_variable_formula(last)
        assert formula_satisfiable(f) == sat
        inst = reduce_3sat(f).instance
        validate_instance(inst)
        assert (inst.graph.n, inst.part_count) == (1228, 400)
        ds = dominating_transversal(inst.graph, inst.parts)
        if not sat:
            assert ds is None
            continue
        assert len(ds) == inst.part_count
        assert is_dominating_set(inst.graph, ds)
        assert all(len(ds & part) == 1 for part in inst.parts)


def test_lift_assignment_padding_defaults_true():
    red = reduce_3sat(F1)
    full = lift_assignment(red, {1: True, 2: True, 3: True})
    tops = red.gadgets[1, column_of(4)].members["top"]
    assert tops in full


@pytest.mark.parametrize("parents", [
    [None, 0],
    [None, 0, 1], [None, 0, 0],
    [None, 0, 1, 2], [None, 0, 0, 0], [None, 0, 1, 1], [None, 0, 0, 1],
])
def test_wire_has_two_min_dominating_sets(parents):
    w = variable_wire(parents)
    size, _ = min_dominating_set(w.graph)
    assert size == len(parents)
    mins = all_min_dominating_sets(w.graph)
    tops = frozenset(mem["top"] for mem in w.gadgets)
    bots = frozenset(mem["bot"] for mem in w.gadgets)
    assert sorted(mins, key=sorted) == sorted([tops, bots], key=sorted)


def test_single_gadget_wire_is_symmetric():
    # a lone triangle has three optimum dominating sets, not two
    w = variable_wire([None])
    assert len(all_min_dominating_sets(w.graph)) == 3


def test_validate_instance_rejects_single_row_grid():
    # the clause-free formula reduces to a p = 1 instance, which the
    # composition cannot take (its hamiltonian cycle needs p >= 2)
    inst = reduce_3sat(LayoutFormula(2, [])).instance
    assert inst.p == 1
    with pytest.raises(ValueError, match="p >= 2"):
        validate_instance(inst)


def test_validate_instance_rejects_each_broken_precondition():
    red = reduce_3sat(F5)
    inst = red.instance
    validate_instance(inst)
    g = inst.graph
    dummies = [pt for pt, gadget in red.gadgets.items() if gadget.kind == "dummy"]

    def joined(a, b):
        """inst with an edge between the dummies at points a and b."""
        ends = (red.gadgets[a].members["z"], red.gadgets[b].members["z"])
        return replace(inst, graph=Graph(g.vertices, list(g.edges()) + [ends]))

    def rejects(broken, message):
        with pytest.raises(ValueError, match=message):
            validate_instance(broken)

    rejects(replace(inst, q=inst.q + 1), "instance dimensions must have q even")
    rejects(replace(inst, eta={**inst.eta, 1: inst.eta[0]}),
            "eta must map the parts onto the fine grid points bijectively")
    # two dummies that are not neighbours on the snake, joined
    a = dummies[0]
    far = next(b for b in dummies if abs(a[0] - b[0]) + abs(a[1] - b[1]) > 1)
    rejects(joined(a, far), "quotient is not a subgraph of the snaking grid")
    # one bag swallowing the vertices in id order soon sees five red neighbours
    chain = ContractionSequence.from_merges(g.n, [(1, v) for v in range(2, g.n + 1)])
    rejects(replace(inst, witness=chain), "witness exceeds red degree 4 at step")
    short = ContractionSequence.from_merges(g.n, inst.witness.merges()[:-1])
    rejects(replace(inst, witness=short), "witness does not end at the declared partition")
    # two dummies that are neighbours on the snake, joined: neither
    # singleton part keeps a vertex whose neighbours stay inside it
    sg = snaking_grid(inst.p, inst.q)
    a, b = next((a, b) for a in dummies for b in dummies
                if sg.vertex_at[b] in sg.graph.adj[sg.vertex_at[a]])
    rejects(joined(a, b), "a part lacks a vertex confined to it")


def test_validate_instance_rejects_a_witness_ending_at_another_partition():
    # as many bags as parts, but every part split between two bags; and
    # every part inside one bag, but two parts in the same bag
    inst = make_dummy(16, 2, 2)
    validate_instance(inst)
    shifted = ContractionSequence.from_merges(32, [(1, 32)] + [(v, v + 1) for v in range(2, 32, 2)])
    joined = ContractionSequence.from_merges(32, inst.witness.merges() + [(1, 3)])
    for witness in (shifted, joined):
        with pytest.raises(ValueError, match="witness does not end at the declared partition"):
            validate_instance(replace(inst, witness=witness))


def test_validate_instance_rejects_grid_without_columns():
    # q = 0 is even but leaves no fine column: the grid would be empty
    inst = replace(reduce_3sat(F5).instance, q=0)
    with pytest.raises(ValueError, match="q >= 2"):
        validate_instance(inst)


def test_cycle_check_survives_optimize_flag(run_optimized):
    # an odd fine column count leaves the comb's end column without its
    # second neighbor; the check must fire when asserts are stripped
    script = (
        "from twinwidth import gadgets\n"
        "gadgets.fine_dims = lambda s, t: (3 * (s - 1) + 1, 3 * (t - 1) + 2)\n"
        "gadgets.hamiltonian_cycle(2, 4)\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 1
    assert "InternalError: cycle does not close" in proc.stderr
