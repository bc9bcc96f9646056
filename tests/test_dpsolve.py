"""Tests for the bounded-red-component dynamic programming solvers."""

import inspect
import itertools
import random
import sys

import pytest

import dpsolve_reference as reference
from twinwidth import dpsolve, trigraph
from twinwidth.trigraph import Graph, Trigraph
from twinwidth.sequence import ContractionSequence, replay, verify
from twinwidth.dpsolve import (MAX_COMPONENT_BOUND, check_component_bound, min_ds_dp,
                               min_vc_dp)
from twinwidth.oracle import min_dominating_set
from twinwidth.recognize import recognize_tww1

from gen_tww1 import random_tww1
from trigraph_reference import edge_list


def brute_vertex_cover(g: Graph) -> int:
    verts = sorted(g.vertices)
    edges = list(g.edges())
    for k in range(len(verts) + 1):
        for sub in itertools.combinations(verts, k):
            chosen = set(sub)
            if all(u in chosen or v in chosen for u, v in edges):
                return k
    raise AssertionError("unreachable")


P4 = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4)])
P4_SEQ = ContractionSequence(4, [(5, 1, 2), (6, 5, 3), (7, 6, 4)])


class TestComponentBound:
    def test_path_left_to_right(self):
        assert check_component_bound(P4, P4_SEQ) == 2

    def test_twin_contractions_stay_black(self):
        g = Graph.complete(4)
        s = ContractionSequence(4, [(5, 1, 2), (6, 5, 3), (7, 6, 4)])
        assert check_component_bound(g, s) == 1

    def test_cycle_witness(self):
        g = Graph.cycle(5)
        s = ContractionSequence(5, [(6, 1, 2), (7, 6, 3), (8, 7, 4), (9, 8, 5)])
        assert check_component_bound(g, s) >= 2

    def test_edgeless(self):
        g = Graph(range(1, 4))
        s = ContractionSequence(3, [(4, 1, 2), (5, 4, 3)])
        assert check_component_bound(g, s) == 1


def _largest_red_component(t):
    """Reference: components of the red graph from its edge list."""
    parent = {v: v for v in t.vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edge_list(t.red):
        parent[find(u)] = find(v)
    sizes = {}
    for v in t.vertices:
        sizes[find(v)] = sizes.get(find(v), 0) + 1
    return max(sizes.values())


def _random_full_sequence(n, rng):
    live, steps = list(range(1, n + 1)), []
    for z in range(n + 1, 2 * n):
        u, v = rng.sample(live, 2)
        live = [x for x in live if x not in (u, v)] + [z]
        steps.append((z, u, v))
    return ContractionSequence(n, steps)


def test_component_bound_matches_replay_on_random_sequences():
    rng = random.Random(3120)
    for _ in range(80):
        n = rng.randint(1, 9)
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < rng.choice([0.3, 0.6])]
        g = Graph(range(1, n + 1), edges)
        s = _random_full_sequence(n, rng)
        expect = max(_largest_red_component(t) for t in replay(g, s))
        assert check_component_bound(g, s) == expect


class TestSmallCases:
    def test_single_vertex(self):
        g = Graph([1])
        s = ContractionSequence(1, [])
        assert min_vc_dp(g, s, 1) == 0
        assert min_ds_dp(g, s, 1) == 1

    def test_edgeless(self):
        g = Graph(range(1, 4))
        s = ContractionSequence(3, [(4, 1, 2), (5, 4, 3)])
        assert min_vc_dp(g, s, 1) == 0
        assert min_ds_dp(g, s, 1) == 3

    def test_path(self):
        assert min_vc_dp(P4, P4_SEQ, 2) == 2
        assert min_ds_dp(P4, P4_SEQ, 2) == 2

    def test_clique_via_twins(self):
        g = Graph.complete(4)
        s = ContractionSequence(4, [(5, 1, 2), (6, 5, 3), (7, 6, 4)])
        assert min_vc_dp(g, s, 1) == 3
        assert min_ds_dp(g, s, 1) == 1

    def test_star_center_last(self):
        g = Graph(range(1, 6), [(1, 2), (1, 3), (1, 4), (1, 5)])
        s = ContractionSequence(5, [(6, 2, 3), (7, 6, 4), (8, 7, 5), (9, 8, 1)])
        assert min_vc_dp(g, s, 1) == 1
        assert min_ds_dp(g, s, 1) == 1

    def test_four_cycle_opposite_pairs(self):
        g = Graph.cycle(4)
        s = ContractionSequence(4, [(5, 1, 3), (6, 2, 4), (7, 5, 6)])
        assert check_component_bound(g, s) == 1
        assert min_vc_dp(g, s, 1) == 2
        assert min_ds_dp(g, s, 1) == 2


class TestValidation:
    def test_bound_violation_raises(self):
        with pytest.raises(ValueError, match="exceeds the bound"):
            min_vc_dp(P4, P4_SEQ, 1)
        with pytest.raises(ValueError, match="exceeds the bound"):
            min_ds_dp(P4, P4_SEQ, 1)

    def test_bound_violation_names_the_step(self):
        # steps count from 0, as tww verify reports them: P3's first
        # contraction already leaves a red edge
        p3 = Graph([1, 2, 3], [(1, 2), (2, 3)])
        s = ContractionSequence(3, [(4, 1, 2), (5, 4, 3)])
        for fn in (min_vc_dp, min_ds_dp):
            with pytest.raises(ValueError) as err:
                fn(p3, s, 1)
            assert str(err.value) == "red component of 2 vertices at step 0 exceeds the bound 1"

    def test_partial_sequence_rejected(self):
        s = ContractionSequence(4, [(5, 1, 2)])
        with pytest.raises(ValueError, match="full sequence"):
            min_vc_dp(P4, s, 2)

    def test_size_mismatch_rejected(self):
        s = ContractionSequence(
            5, [(6, 1, 2), (7, 6, 3), (8, 7, 4), (9, 8, 5)]
        )
        with pytest.raises(ValueError, match="original graph"):
            min_vc_dp(P4, s, 2)

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            min_vc_dp(P4, P4_SEQ, 0)

    def test_bound_cap(self):
        assert min_vc_dp(P4, P4_SEQ, MAX_COMPONENT_BOUND) == 2
        assert min_ds_dp(P4, P4_SEQ, MAX_COMPONENT_BOUND) == 2
        for fn in (min_vc_dp, min_ds_dp):
            with pytest.raises(ValueError, match="above the cap"):
                fn(P4, P4_SEQ, MAX_COMPONENT_BOUND + 1)

    def test_vertex_ids_must_be_one_to_n(self):
        # right vertex count, wrong ids: rejected before any step runs
        g = Graph([1, 2, 4], [(1, 2)])
        s = ContractionSequence(3, [(4, 1, 2), (5, 4, 3)])
        with pytest.raises(ValueError, match="exactly 1..3"):
            min_ds_dp(g, s, 2)
        with pytest.raises(ValueError, match="exactly 1..3"):
            min_vc_dp(g, s, 2)


class TestGenerator:
    """The sibling module gen_tww1 feeds the randomised checks below."""

    def test_sequences_have_width_at_most_one(self):
        rng = random.Random(41)
        for _ in range(60):
            g, seq = random_tww1(rng.randint(1, 12), rng)
            report = verify(g, seq, bound=1)
            assert report.ok
            for t in replay(g, seq):
                red_edges = sum(len(t.red[u]) for u in t.red) // 2
                assert red_edges <= 1

    def test_component_bound_small(self):
        rng = random.Random(42)
        for _ in range(60):
            g, seq = random_tww1(rng.randint(2, 12), rng)
            assert check_component_bound(g, seq) <= 2


class TestRandomisedEquivalence:
    def test_matches_brute_force_vertex_cover(self):
        rng = random.Random(99)
        for _ in range(120):
            g, seq = random_tww1(rng.randint(1, 11), rng)
            c = max(2, check_component_bound(g, seq))
            assert min_vc_dp(g, seq, c) == brute_vertex_cover(g)

    def test_matches_dominating_set_oracle(self):
        rng = random.Random(100)
        for _ in range(120):
            g, seq = random_tww1(rng.randint(1, 11), rng)
            c = max(2, check_component_bound(g, seq))
            size, _ = min_dominating_set(g)
            assert min_ds_dp(g, seq, c) == size

    def test_answer_independent_of_slack(self):
        rng = random.Random(5)
        for _ in range(40):
            g, seq = random_tww1(rng.randint(2, 12), rng)
            c = max(1, check_component_bound(g, seq))
            assert min_vc_dp(g, seq, c) == min_vc_dp(g, seq, c + 3)
            assert min_ds_dp(g, seq, c) == min_ds_dp(g, seq, c + 3)

    def test_large_instances_fast(self):
        rng = random.Random(123)
        for _ in range(15):
            g, seq = random_tww1(rng.randint(30, 40), rng)
            c = max(2, check_component_bound(g, seq))
            vc = min_vc_dp(g, seq, c)
            ds = min_ds_dp(g, seq, c)
            assert 0 <= ds <= g.n
            assert 0 <= vc <= g.n

    def test_two_witnesses_agree_beyond_oracle_sizes(self):
        # the optimum does not depend on the witness; along two
        # different sequences the in-place walk gives the DP different
        # before-states to reconstruct, on graphs no oracle can check
        rng = random.Random(2021)
        for _ in range(24):
            g, seq = random_tww1(rng.randint(20, 80), rng)
            other = recognize_tww1(g).witness
            assert other.steps != seq.steps
            c = max(2, check_component_bound(g, seq), check_component_bound(g, other))
            assert min_ds_dp(g, seq, c) == min_ds_dp(g, other, c)
            assert min_vc_dp(g, seq, c) == min_vc_dp(g, other, c)


def _differential_inputs():
    """Seeded starts with full sequences: random graphs under random
    sequences of any width, gen_tww1 graphs with their witnesses, and
    trigraphs that already carry red edges."""
    rng = random.Random(2121)
    out = []
    for _ in range(120):
        n = rng.randint(1, 11)
        g = Graph(range(1, n + 1), [p for p in itertools.combinations(range(1, n + 1), 2)
                                    if rng.random() < rng.choice([0.2, 0.5])])
        out.append((g, _random_full_sequence(n, rng)))
    for _ in range(120):
        out.append(random_tww1(rng.randint(1, 14), rng))
    for _ in range(60):
        n = rng.randint(2, 10)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        red = [p for p in pairs if rng.random() < 0.15]
        black = [p for p in pairs if p not in red and rng.random() < 0.4]
        out.append((Trigraph(range(1, n + 1), black, red), _random_full_sequence(n, rng)))
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return "ValueError: %s" % err


def test_dp_and_component_bound_match_the_reference():
    """The compiled DP steps and the search of z's component alone give
    the reference's values, bounds and error texts on every input."""
    values = errors = 0
    for g, s in _differential_inputs():
        assert check_component_bound(g, s) == reference.check_component_bound(g, s)
        for c in range(1, 5):
            for fast, slow in ((min_vc_dp, reference.min_vc_dp),
                               (min_ds_dp, reference.min_ds_dp)):
                got = _outcome(fast, g, s, c)
                assert got == _outcome(slow, g, s, c)
                values += isinstance(got, int)
                errors += isinstance(got, str)
    assert values > 1000 and errors > 500


def test_component_bound_searches_only_z_component():
    """Counted, no timing: on P_2000's left-to-right witness the bound
    visits the red sets of the start's n vertices and of the two
    vertices of z's component after each step, n + c(n - 1) in all
    with c = 2, where a search of every state visits every live
    vertex, n(n + 1)/2 red sets.  The visits are the pops of the
    search stack of trigraph._reach, counted by a line tracer."""
    n = 2000
    g = Graph.path(n)
    s = ContractionSequence(n, [(n + 1, 1, 2)] + [(z, z - 1, z - n + 1) for z in range(n + 2, 2 * n)])
    pops = {}
    for code in (dpsolve.check_component_bound.__code__, trigraph._reach.__code__):
        lines, first = inspect.getsourcelines(code)
        pops[code] = {first + i for i, line in enumerate(lines) if "stack.pop()" in line}
    assert sum(map(len, pops.values())) == 1
    visits = [0]

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in pops[frame.f_code]:
            visits[0] += 1
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code in pops else None)
    try:
        c = check_component_bound(g, s)
    finally:
        sys.settrace(old)
    assert c == 2
    assert visits[0] <= n + c * (n - 1), visits
    # the reference visits each live vertex of each state
    states = [0]
    ref_walk = reference.walk

    def counted(*args):
        for t in ref_walk(*args):
            states[0] += len(t.vertices)
            yield t

    reference.walk = counted
    try:
        assert reference.check_component_bound(g, s) == c
    finally:
        reference.walk = ref_walk
    assert states[0] == n * (n + 1) // 2
