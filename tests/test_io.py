"""Round-trip and diagnostic tests for the plain-text file formats."""

import hashlib
import random
import re

import pytest

from twinwidth import io
from twinwidth.compose import make_dummy, or_cross_compose
from twinwidth.oracle import exact_twinwidth
from twinwidth.recognize import recognize_tww1
from twinwidth.trigraph import Graph
from twinwidth.sequence import ContractionSequence
from twinwidth.gadgets import (LayoutClause, LayoutFormula, halfgraph_cycle,
                               reduce_3sat, snaking_grid)


def _random_graph(rng, n, p):
    return Graph(range(1, n + 1), [(i, j) for i in range(1, n + 1)
                                   for j in range(i + 1, n + 1) if rng.random() < p])


def _random_sequence(rng, n):
    """A from-scratch sequence on n vertices with a random number of steps."""
    live = list(range(1, n + 1))
    steps = []
    for z in range(n + 1, n + 1 + rng.randrange(n)):
        u, v = rng.sample(live, 2)
        live.remove(u)
        live.remove(v)
        live.append(z)
        steps.append((z, u, v))
    return ContractionSequence(n, steps)


def _random_formula(rng, n):
    """A layout formula whose removal ranks are valid as drawn.

    Each clause of a family retires the middle of a window of three
    consecutive live variables, so no later clause reaches inside it.
    """
    clauses = []
    for sign in "+-":
        live = list(range(1, n + 1))
        for rank in range(1, rng.randint(0, n - 2) + 1):
            i = rng.randrange(len(live) - 2)
            window = live[i:i + 3]
            del live[i + 1]
            clauses.append(LayoutClause(sign, rank, tuple(
                v if rng.random() < 0.5 else -v for v in window)))
    rng.shuffle(clauses)
    return LayoutFormula(n, clauses)


def _one_clause_formula(rng, n):
    """A formula on n variables with one clause over three consecutive
    ones, so formulas on the same n share their grid dimensions."""
    i = rng.randrange(1, n - 1)
    lits = tuple(v if rng.random() < 0.5 else -v for v in (i, i + 1, i + 2))
    return LayoutFormula(n, [LayoutClause(rng.choice("+-"), 1, lits)])


class TestGraphFormat:
    def test_round_trip(self):
        g = Graph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        text = io.write_graph(g)
        h, caps = io.parse_graph(text)
        assert h == g
        assert caps == {}
        assert io.write_graph(h) == text

    def test_round_trip_with_capacities(self):
        g = Graph(range(1, 4), [(1, 2), (2, 3)])
        caps = {1: 2, 2: 0, 3: -1}
        text = io.write_graph(g, caps)
        h, back = io.parse_graph(text)
        assert h == g
        assert back == caps

    def test_seeded_round_trips(self):
        rng = random.Random(5101)
        for _ in range(40):
            g = _random_graph(rng, rng.randint(1, 12), rng.random())
            caps = {v: rng.randint(-2, 5) for v in g.vertices if rng.random() < 0.5}
            assert io.parse_graph(io.write_graph(g, caps)) == (g, caps)

    def test_comments_and_blanks_ignored(self):
        g, _ = io.parse_graph("# header\n\ngraph 3\nedge 1 2  # inline\n\n")
        assert g == Graph(range(1, 4), [(1, 2)])

    def test_self_loop_diagnostic(self):
        with pytest.raises(io.ParseError, match="line 2: self-loop at vertex 1"):
            io.parse_graph("graph 3\nedge 1 1\n")

    def test_duplicate_edge(self):
        with pytest.raises(io.ParseError, match="line 3: duplicate edge 1-2"):
            io.parse_graph("graph 3\nedge 2 1\nedge 1 2\n")

    def test_out_of_range(self):
        with pytest.raises(io.ParseError, match="line 2"):
            io.parse_graph("graph 3\nedge 1 4\n")

    def test_unknown_directive(self):
        with pytest.raises(io.ParseError, match="redge"):
            io.parse_graph("graph 3\nredge 1 2\n")

    def test_empty_file(self):
        with pytest.raises(io.ParseError, match="empty graph file"):
            io.parse_graph("# nothing\n")

    def test_writer_needs_compact_ids(self):
        with pytest.raises(ValueError, match="1..n"):
            io.write_graph(Graph([2, 3], [(2, 3)]))


class TestSequenceFormat:
    def test_round_trip(self):
        s = ContractionSequence(4, [(5, 1, 2), (6, 5, 3), (7, 6, 4)])
        text = io.write_sequence(s)
        assert io.parse_sequence(text) == s
        assert io.write_sequence(io.parse_sequence(text)) == text

    def test_seeded_round_trips(self):
        rng = random.Random(5102)
        for _ in range(40):
            s = _random_sequence(rng, rng.randint(1, 12))
            assert io.parse_sequence(io.write_sequence(s)) == s

    def test_fresh_id_diagnostic(self):
        with pytest.raises(io.ParseError,
                           match="line 2: contract creates 7, expected fresh id 6"):
            io.parse_sequence("seq 5\ncontract 7 1 2\n")

    def test_header_at_limit_is_accepted(self):
        assert io.parse_sequence("seq %d\n" % io.MAX_HEADER).n == io.MAX_HEADER

    def test_dead_vertex_rejected(self):
        with pytest.raises(ValueError, match="not two live vertices"):
            io.parse_sequence("seq 4\ncontract 5 1 2\ncontract 6 1 3\n")


    def test_empty_file(self):
        with pytest.raises(io.ParseError, match="empty sequence file"):
            io.parse_sequence("# nothing\n")

class TestFormulaFormat:
    def test_round_trip(self):
        f = LayoutFormula(5, [
            LayoutClause("+", 1, (1, 2, 3)),
            LayoutClause("-", 1, (3, 4, 5)),
            LayoutClause("+", 2, (1, 3, 5)),
        ])
        text = io.write_formula(f)
        back = io.parse_formula(text)
        assert back == f
        assert io.write_formula(back) == text

    def test_seeded_round_trips(self):
        rng = random.Random(5103)
        for _ in range(40):
            f = _random_formula(rng, rng.randint(3, 9))
            text = io.write_formula(f)
            back = io.parse_formula(text)
            assert back == f
            assert io.write_formula(back) == text

    def test_negated_literals(self):
        f = io.parse_formula("formula 3\nclause + 1 -1 2 -3\n")
        assert f.clauses[0].literals == (-1, 2, -3)

    def test_bad_sign(self):
        with pytest.raises(io.ParseError, match="line 2"):
            io.parse_formula("formula 3\nclause * 1 1 2 3\n")

    def test_zero_literal(self):
        with pytest.raises(io.ParseError, match="literal 0"):
            io.parse_formula("formula 3\nclause + 1 0 2 3\n")

    def test_semantic_errors_propagate(self):
        with pytest.raises(ValueError, match="ranks"):
            io.parse_formula("formula 3\nclause + 2 1 2 3\n")


    def test_empty_file(self):
        with pytest.raises(io.ParseError, match="empty formula file"):
            io.parse_formula("# nothing\n")

class TestInstanceFormat:
    def test_round_trip_on_reduction_output(self):
        f = LayoutFormula(3, [LayoutClause("+", 1, (1, 2, -3))])
        inst = reduce_3sat(f).instance
        text = io.write_instance(inst)
        back = io.parse_instance(text)
        assert back.graph == inst.graph
        assert back.parts == inst.parts
        assert (back.p, back.q) == (inst.p, inst.q)
        assert back.eta == inst.eta
        assert back.witness == inst.witness
        assert io.write_instance(back) == text

    def test_seeded_round_trips(self):
        rng = random.Random(5104)
        instances = [reduce_3sat(_random_formula(rng, rng.randint(3, 5))).instance
                     for _ in range(6)]
        instances.append(make_dummy(16, 2, 2))
        for inst in instances:
            text = io.write_instance(inst)
            back = io.parse_instance(text)
            assert back == inst
            assert io.write_instance(back) == text

    def test_missing_dims(self):
        with pytest.raises(io.ParseError, match="missing dims"):
            io.parse_instance("graph 2\npart 1 1 2\neta 1 1 1\nseq 2\n")

    def test_missing_witness(self):
        with pytest.raises(io.ParseError, match="missing the witness"):
            io.parse_instance("graph 2\ndims 1 2\npart 1 1 2\neta 1 1 1\n")

    def test_partition_gap(self):
        text = "graph 3\ndims 1 2\npart 1 1\neta 1 1 1\nseq 3\n"
        with pytest.raises(io.ParseError, match="vertex 2 belongs to no part"):
            io.parse_instance(text)

    def test_partition_overlap(self):
        text = "graph 2\ndims 1 2\npart 1 1 2\npart 2 2\neta 1 1 1\neta 2 1 2\nseq 2\n"
        with pytest.raises(io.ParseError, match="already in part"):
            io.parse_instance(text)

    def test_eta_mismatch(self):
        text = "graph 2\ndims 1 2\npart 1 1 2\neta 2 1 1\nseq 2\n"
        with pytest.raises(io.ParseError, match="eta must cover"):
            io.parse_instance(text)


    def test_empty_file(self):
        with pytest.raises(io.ParseError, match="empty instance file"):
            io.parse_instance("# nothing\n")

@pytest.fixture
def no_allocation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("parser built a value from an oversized header")
    for name in ("Graph", "ContractionSequence", "LayoutFormula", "AnnotatedInstance"):
        monkeypatch.setattr(io, name, refuse)


@pytest.mark.usefixtures("no_allocation")
class TestHeaderLimit:
    """Headers above io.MAX_HEADER are refused before anything is built."""

    HUGE = 1000000000

    def test_graph(self):
        with pytest.raises(io.ParseError, match="line 1: graph 1000000000 exceeds"):
            io.parse_graph("graph %d\nedge 1 2\n" % self.HUGE)
        with pytest.raises(io.ParseError, match="exceeds the header limit 100000"):
            io.parse_graph("graph %d\n" % (io.MAX_HEADER + 1))

    def test_sequence(self):
        with pytest.raises(io.ParseError, match="line 2: seq 1000000000 exceeds"):
            io.parse_sequence("# big\nseq %d\ncontract %d 1 2\n" % (self.HUGE, self.HUGE + 1))

    def test_formula(self):
        with pytest.raises(io.ParseError, match="line 1: formula 1000000000 exceeds"):
            io.parse_formula("formula %d\n" % self.HUGE)

    def test_instance_graph_and_seq_headers(self):
        with pytest.raises(io.ParseError, match="line 1: graph 1000000000 exceeds"):
            io.parse_instance("graph %d\ndims 1 2\n" % self.HUGE)
        text = "graph 2\ndims 1 2\npart 1 1 2\neta 1 1 1\nseq %d\n" % self.HUGE
        with pytest.raises(io.ParseError, match="line 5: seq 1000000000 exceeds"):
            io.parse_instance(text)


@pytest.mark.parametrize("spelling", ["1_0", "+3", "\u0663"],
                         ids=["underscore", "plus", "arabic-indic"])
@pytest.mark.parametrize("parse, text, line, what, tokens", [
    (io.parse_graph, "graph {}\n", 1, "graph", "{}"),
    (io.parse_graph, "graph 10\nedge 1 {}\n", 2, "edge", "1 {}"),
    (io.parse_sequence, "seq {}\n", 1, "seq", "{}"),
    (io.parse_sequence, "seq 10\ncontract 11 1 {}\n", 2, "contract", "11 1 {}"),
    (io.parse_formula, "formula {}\n", 1, "formula", "{}"),
    (io.parse_formula, "formula 10\nclause + 1 1 2 {}\n", 2, "clause", "1 1 2 {}"),
    (io.parse_instance, "graph {}\n", 1, "graph", "{}"),
    (io.parse_instance, "graph 2\ndims 1 {}\n", 2, "dims", "1 {}"),
], ids=["graph-header", "edge", "seq-header", "contract", "formula-header", "clause",
        "instance-header", "dims"])
def test_integers_are_read_only_as_the_writers_spell_them(parse, text, line, what, tokens,
                                                          spelling):
    # int() alone takes an underscore, a plus sign and non-ASCII digits
    message = "line %d: %s wants integers, got %r" % (line, what, tokens.format(spelling))
    with pytest.raises(io.ParseError, match=re.escape(message)):
        parse(text.format(spelling))


def test_writers_refuse_headers_the_parsers_refuse():
    # a file above the limit could not be read back
    big = io.MAX_HEADER + 1
    with pytest.raises(ValueError, match="graph 100001 exceeds the header limit 100000"):
        io.write_graph(Graph(range(1, big + 1)))
    with pytest.raises(ValueError, match="seq 100001 exceeds the header limit 100000"):
        io.write_sequence(ContractionSequence(big, []))
    with pytest.raises(ValueError, match="formula 100001 exceeds the header limit 100000"):
        io.write_formula(LayoutFormula(big, []))
    assert io.write_graph(Graph(range(1, big))) == "graph %d\n" % io.MAX_HEADER


class TestProvenanceFormat:
    def test_sorted_by_vertex(self):
        text = io.write_provenance({2: (1, 3), 1: (2, 7)})
        assert text == "tag 1 2 7\ntag 2 1 3\n"


class TestDeterminism:
    def test_generators_serialize_identically(self):
        a = io.write_graph(snaking_grid(3, 3).graph)
        b = io.write_graph(snaking_grid(3, 3).graph)
        assert a == b
        g, s = halfgraph_cycle(4, 3)
        assert io.write_graph(g) == io.write_graph(halfgraph_cycle(4, 3)[0])
        assert io.write_sequence(s) == io.write_sequence(halfgraph_cycle(4, 3)[1])

    def test_witness_bytes_are_frozen(self):
        # sha256 of the witnesses as the builders wrote them before fresh
        # ids moved behind ContractionSequence.from_merges
        f3 = LayoutFormula(4, [LayoutClause("+", 1, (-1, 3, 4)),
                               LayoutClause("-", 1, (1, 2, 4))])
        f4 = LayoutFormula(4, [LayoutClause("+", 1, (2, 3, 4)),
                               LayoutClause("+", 2, (1, 2, 4))])
        inst3, inst4 = reduce_3sat(f3).instance, reduce_3sat(f4).instance
        witnesses = {
            "halfgraph_cycle": halfgraph_cycle(4, 3)[1],
            "make_dummy": make_dummy(16, 2, 2).witness,
            "reduce_3sat": inst3.witness,
            "or_cross_compose": or_cross_compose([inst3, inst4]).witness,
        }
        digests = {name: hashlib.sha256(io.write_sequence(seq).encode()).hexdigest()
                   for name, seq in witnesses.items()}
        assert digests == {
            "halfgraph_cycle": "29a17feabc9893d0c5fb57fa3eef180f167f1d52cacaea042d732196a57b79c4",
            "make_dummy": "6ef57f750f4d114a9cb168c0d4f0efd29f30c0b562f29c0fb63b157e8a965e0f",
            "reduce_3sat": "a1d8da912981e1de2d30297484f6f6974563a3227b166eb990e8d3db31bd981f",
            "or_cross_compose": "ec281d5f48f6f7000d7fa77577f36ac18b33def65d54c141e8c79cd95231cc14",
        }

    def test_exact_witness_bytes_are_frozen(self):
        # sha256 of the exact oracle's witnesses as written before its
        # search tested merges from per-state red and full masks
        rng = random.Random(1340)
        h = hashlib.sha256()
        for _ in range(40):
            g = _random_graph(rng, rng.randint(6, 10), rng.choice([0.3, 0.5, 0.7]))
            h.update(io.write_sequence(exact_twinwidth(g)[1]).encode())
        assert h.hexdigest() == "767982b380c0dec4a98d866e8a75e71eec0b267df1706e7b596cad95b31da8b5"

    def test_recognition_witness_bytes_are_frozen(self):
        # sha256 of the width-1 recognizer's verdicts and witnesses as
        # written before safe_contractions built each partner's sets once
        # per call and _plan_prime counted red edges from one symmetric
        # difference
        rng = random.Random(1524)
        h = hashlib.sha256()
        for _ in range(300):
            g = _random_graph(rng, rng.randint(5, 10), rng.choice([0.3, 0.5, 0.7]))
            result = recognize_tww1(g)
            h.update(result.verdict.encode())
            if result.witness is not None:
                h.update(io.write_sequence(result.witness).encode())
        assert h.hexdigest() == "86f7c6a20ed1e61b05a58e866229055c68433a52e4b67a1574868d62f436c169"

    def test_reduction_bytes_are_frozen(self):
        # sha256 of 60 seeded reductions, as written when the wires
        # still stepped by row and column parity instead of following
        # the snake's edges
        rng = random.Random(1717)
        h = hashlib.sha256()
        for _ in range(60):
            f = _random_formula(rng, rng.randint(3, 9))
            h.update(io.write_instance(reduce_3sat(f).instance).encode())
        assert h.hexdigest() == "18dc42e3f35136fc85a99fe5d44bd8149340e2f1cb14f9afa130bcbd5b865720"

    def test_composition_witness_bytes_are_frozen(self):
        # sha256 of the composed witnesses of 10 seeded compositions of
        # 1-4 one-clause formulas, as written when the grid collapse
        # still numbered its own steps as a suffix of the sequence
        rng = random.Random(1414)
        h = hashlib.sha256()
        for _ in range(10):
            n = rng.randint(3, 6)
            rows = [reduce_3sat(_one_clause_formula(rng, n)).instance
                    for _ in range(rng.randint(1, 4))]
            h.update(io.write_sequence(or_cross_compose(rows).witness).encode())
        assert h.hexdigest() == "2e4b6f95f70aae7e95b229798811efc675eab29722b91eb9fa8fff34943ed790"


class TestFuzz:
    """Seeded mutations of valid files raise only ParseError or ValueError."""

    @staticmethod
    def _mutate(text, rng):
        lines = text.splitlines()
        i = rng.randrange(len(lines))
        tokens = lines[i].split()
        words = text.split()
        pool = words + ["x", "-", "+", "0", "-1", "1.5", "#", "edge", "contract"]
        kind = rng.randrange(5)
        if kind == 0:
            tokens[rng.randrange(len(tokens))] = rng.choice(pool)
        elif kind == 1:
            del tokens[rng.randrange(len(tokens))]
        elif kind == 2:
            tokens.append(rng.choice(pool))
        if kind <= 2:
            lines[i] = " ".join(tokens)
        elif kind == 3:
            del lines[i]
        else:
            lines.insert(i, lines[i])
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("parse, text", [
        (io.parse_graph, io.write_graph(Graph.cycle(5), {1: 2, 4: 1})),
        (io.parse_sequence, io.write_sequence(halfgraph_cycle(3, 2)[1])),
        (io.parse_formula, io.write_formula(LayoutFormula(4, [
            LayoutClause("+", 1, (1, 2, -3)), LayoutClause("-", 1, (2, -3, 4))]))),
        (io.parse_instance, io.write_instance(
            reduce_3sat(LayoutFormula(3, [LayoutClause("+", 1, (1, 2, -3))])).instance)),
    ], ids=["graph", "sequence", "formula", "instance"])
    def test_mutations_raise_only_value_errors(self, parse, text):
        rng = random.Random(len(text))
        parse(text)
        for _ in range(2000):
            mutated = self._mutate(text, rng)
            try:
                parse(mutated)
            except ValueError:  # ParseError is a ValueError
                pass
