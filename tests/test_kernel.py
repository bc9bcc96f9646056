"""Kernelization rules: worked examples, fixpoints, and safeness."""

import itertools
import random

import kernel_reference as reference
from twinwidth.trigraph import Graph
from twinwidth.modular import trace_classes
from twinwidth.oracle import (
    CapacitatedGraph,
    is_vertex_cover,
    min_capacitated_vc,
    min_connected_vertex_cover,
)
from twinwidth.kernel import (
    capvc_kernel,
    cvc_kernel_improved,
    cvc_kernel_quadratic,
    trivial_no_graph,
    two_approx_vc,
)


def _star(leaves):
    return Graph(range(1, leaves + 2), [(1, i) for i in range(2, leaves + 2)])


def test_two_approx_vc():
    assert two_approx_vc(Graph([1, 2, 3])) == set()
    assert two_approx_vc(Graph([1, 2], [(1, 2)])) == {1, 2}
    assert two_approx_vc(_star(4)) == {1, 2}
    rng = random.Random(404)
    for _ in range(25):
        n = rng.randint(2, 9)
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.4]
        g = Graph(range(1, n + 1), edges)
        x = two_approx_vc(g)
        assert is_vertex_cover(g, x)
        import itertools
        opt = min(k for k in range(n + 1)
                  for s in itertools.combinations(sorted(g.vertices), k)
                  if is_vertex_cover(g, s))
        assert len(x) <= 2 * opt


def test_rule1_trims_large_twin_class():
    # X = {1, 2}; leaves 3..7 share the trace {1}
    g = _star(6)
    ker = cvc_kernel_quadratic(g, 2)
    assert not ker.trivial_no
    assert ker.k == 2
    assert ker.vc == frozenset([1, 2])
    assert [t[:2] for t in ker.trace] == [(1, 7), (1, 6)]
    assert ker.graph.vertices == {1, 2, 3, 4, 5}
    # class is now exactly k+1 large
    assert sorted(trace_classes(ker.graph, {1, 2})[frozenset([1])]) == [3, 4, 5]


def test_rule1_fixpoint_and_identity():
    g = _star(3)
    ker = cvc_kernel_quadratic(g, 2)
    assert ker.trace == ()
    assert ker.graph == g
    for key, members in trace_classes(ker.graph, set(ker.vc)).items():
        assert len(members) <= ker.k + 1


def test_rule1_trace_replays():
    g = _star(8)
    ker = cvc_kernel_quadratic(g, 1)
    deleted = {v for _, v, _ in ker.trace}
    assert g.without(deleted) == ker.graph


def test_large_cover_is_a_trivial_no():
    g = Graph(range(1, 7), [(1, 2), (3, 4), (5, 6)])
    ker = cvc_kernel_quadratic(g, 2)
    assert ker.trivial_no
    assert ker.graph == trivial_no_graph()
    assert min_connected_vertex_cover(ker.graph) is None


def test_rule2_deletes_minimum_capacity():
    g = _star(4)
    cg = CapacitatedGraph(g, {1: 10, 2: 5, 3: 1, 4: 2, 5: 7})
    ker = capvc_kernel(cg, 1)
    assert [t[:2] for t in ker.trace] == [(2, 3)]
    assert ker.graph.cap == {1: 9, 2: 5, 4: 2, 5: 7}
    assert ker.graph.graph.vertices == {1, 2, 4, 5}


def test_rule2_tie_breaks_to_largest_id_and_goes_negative():
    g = _star(4)
    cg = CapacitatedGraph(g, {1: 0, 2: 1, 3: 1, 4: 1, 5: 1})
    ker = capvc_kernel(cg, 1)
    # class {3, 4, 5} exceeds k+1 = 2; equal capacities, so 5 goes first
    assert [t[:2] for t in ker.trace] == [(2, 5)]
    assert ker.graph.cap[1] == -1


def test_rule2_trivial_no_has_zero_capacities():
    g = Graph(range(1, 7), [(1, 2), (3, 4), (5, 6)])
    ker = capvc_kernel(CapacitatedGraph(g, {v: 3 for v in g.vertices}), 2)
    assert ker.trivial_no
    for k in range(4):
        assert min_capacitated_vc(ker.graph, k) is None


def test_rule3_shrinks_class_to_trace_size_plus_one():
    # Y = {3..7} all tied to the two small-degree cover vertices
    edges = [(1, 2)] + [(1, v) for v in range(3, 8)] + [(2, v) for v in range(3, 8)]
    g = Graph(range(1, 8), edges)
    ker = cvc_kernel_improved(g, 10)
    assert [t[:2] for t in ker.trace] == [(3, 7), (3, 6)]
    assert ker.graph.vertices == {1, 2, 3, 4, 5}


def test_rule3_skips_classes_seeing_only_big_side():
    g = _star(6)  # center has 5 neighbors outside X = {1, 2}
    ker = cvc_kernel_improved(g, 1)
    assert ker.trace == ()
    assert ker.graph == g


def test_rule3_rejects_disconnected_input():
    g = Graph(range(1, 6), [(1, 2), (2, 3), (4, 5)])
    ker = cvc_kernel_improved(g, 3)
    assert ker.trivial_no
    assert ker.graph == trivial_no_graph()


def test_rule3_strips_isolated_vertices():
    g = Graph(range(1, 5), [(1, 2), (2, 3)])
    ker = cvc_kernel_improved(g, 3)
    assert not ker.trivial_no
    assert ker.graph.vertices == {1, 2, 3}
    edgeless = cvc_kernel_improved(Graph([1, 2, 3]), 1)
    assert edgeless.graph.n == 0
    assert not edgeless.trivial_no


def _random_connected(rng, n):
    while True:
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.35]
        g = Graph(range(1, n + 1), edges)
        if g.is_connected():
            return g


def test_kernels_preserve_answers_spot_check():
    rng = random.Random(1721)
    for _ in range(12):
        g = _random_connected(rng, rng.randint(4, 9))
        caps = {v: rng.randint(0, 3) for v in g.vertices}
        for k in (1, 2, 3):
            res = min_connected_vertex_cover(g)
            before = res is not None and res[0] <= k
            for kernelize in (cvc_kernel_quadratic, cvc_kernel_improved):
                ker = kernelize(g, k)
                assert ker.k == k
                res2 = min_connected_vertex_cover(ker.graph) \
                    if ker.graph.n else (0, frozenset())
                after = res2 is not None and res2[0] <= k
                assert before == after, (kernelize.__name__, k, sorted(g.edges()))
            cg = CapacitatedGraph(g, caps)
            cap_before = min_capacitated_vc(cg, k) is not None
            ker = capvc_kernel(cg, k)
            cap_after = min_capacitated_vc(ker.graph, k) is not None
            assert cap_before == cap_after, (k, sorted(g.edges()), caps)


def test_size_accounting_survives_optimize_flag(run_optimized):
    # three leaves share the trace {1} of a one-vertex cover, one more
    # than rule 3 leaves; the check must fire when asserts are stripped
    script = (
        "from twinwidth.kernel import _check_size_accounting\n"
        "from twinwidth.trigraph import Graph\n"
        "g = Graph([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4)])\n"
        "_check_size_accounting(g, {1}, {1}, 3)\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 1
    assert "InternalError: rule 3 fixpoint violated" in proc.stderr


def _twin_rich(rng):
    """A few hubs and many leaves drawn from a small pool of hub sets,
    so the trace classes outside the cover are large."""
    hubs = rng.randint(1, 4)
    n = hubs + rng.randint(3, 14)
    edges = [e for e in itertools.combinations(range(1, hubs + 1), 2) if rng.random() < 0.5]
    pool = [[h for h in range(1, hubs + 1) if rng.random() < 0.5] for _ in range(3)]
    for leaf in range(hubs + 1, n + 1):
        edges += [(h, leaf) for h in rng.choice(pool)]
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return Graph(labels, [(labels[u - 1], labels[v - 1]) for u, v in edges])


def test_kernels_match_reference_on_twin_rich_graphs():
    rng = random.Random(9091)
    cases = 0
    multi = {1: 0, 2: 0, 3: 0}  # per rule, kernels that deleted two or more
    for _ in range(300):
        g = _twin_rich(rng)
        cg = CapacitatedGraph(g, {v: rng.randint(-1, 4) for v in sorted(g.vertices)})
        for k in range(8):
            pairs = [(cvc_kernel_quadratic(g, k), reference.cvc_kernel_quadratic(g, k)),
                     (cvc_kernel_improved(g, k), reference.cvc_kernel_improved(g, k)),
                     (capvc_kernel(cg, k), reference.capvc_kernel(cg, k))]
            for ker, ref in pairs:
                assert ker == ref, (k, sorted(g.edges()), cg.cap)
                if len(ker.trace) >= 2:
                    multi[ker.trace[0][0]] += 1
                cases += 1
            cap, ref_cap = pairs[2][0].graph.cap, pairs[2][1].graph.cap
            assert list(cap.items()) == list(ref_cap.items())
    assert cases == 7200
    assert min(multi.values()) >= 100, multi
