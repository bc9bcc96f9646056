"""End-to-end tests of the tww command line."""

import sys

import pytest

from twinwidth import cli, compose, dpsolve, gadgets, io, sequence
from twinwidth.cli import main
from twinwidth.gadgets import augmented_snaking_grid, halfgraph_cycle, snaking_grid
from twinwidth.sequence import verify
from twinwidth.trigraph import Graph

P4_GRAPH = "graph 4\nedge 1 2\nedge 2 3\nedge 3 4\n"
P4_SEQ = "seq 4\ncontract 5 1 2\ncontract 6 5 3\ncontract 7 6 4\n"
C5_GRAPH = "graph 5\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 5\nedge 1 5\n"
MICRO_FORMULA = "formula 3\nclause + 1 1 2 -3\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "p4.graph").write_text(P4_GRAPH)
    (tmp_path / "p4.seq").write_text(P4_SEQ)
    (tmp_path / "c5.graph").write_text(C5_GRAPH)
    (tmp_path / "micro.formula").write_text(MICRO_FORMULA)
    return tmp_path


class TestVerify:
    def test_within_bound(self, workdir, capsys):
        code = main(["verify", "-d", "2",
                     str(workdir / "p4.graph"), str(workdir / "p4.seq")])
        assert code == 0
        assert capsys.readouterr().out == "width 1\n"

    def test_bound_violated(self, workdir, capsys):
        code = main(["verify", "-d", "0",
                     str(workdir / "p4.graph"), str(workdir / "p4.seq")])
        assert code == 1
        out = capsys.readouterr().out
        assert out.startswith("width 1\nviolation step 0 ")

    def test_negative_bound_is_input_error(self, workdir, capsys):
        code = main(["verify", "-d", "-1",
                     str(workdir / "p4.graph"), str(workdir / "p4.seq")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bound must be non-negative, got -1\n"


class TestExact:
    def test_width_and_witness(self, workdir, capsys):
        wit = workdir / "opt.seq"
        code = main(["exact", str(workdir / "p4.graph"), "--witness", str(wit)])
        assert code == 0
        assert capsys.readouterr().out == "width 1\n"
        seq = io.parse_sequence(wit.read_text())
        g, _ = io.parse_graph(P4_GRAPH)
        assert verify(g, seq, bound=1).ok


class TestRecognize:
    def test_cograph(self, workdir, capsys):
        (workdir / "star.graph").write_text(
            "graph 5\nedge 1 2\nedge 1 3\nedge 1 4\nedge 1 5\n")
        code = main(["recognize", str(workdir / "star.graph")])
        assert code == 0
        assert capsys.readouterr().out == "tww0\n"

    def test_width_one(self, workdir, capsys):
        wit = workdir / "rec.seq"
        code = main(["recognize", str(workdir / "p4.graph"), "--witness", str(wit)])
        assert code == 0
        assert capsys.readouterr().out == "tww1\n"
        seq = io.parse_sequence(wit.read_text())
        g, _ = io.parse_graph(P4_GRAPH)
        assert verify(g, seq, bound=1).ok

    def test_above_one(self, workdir, capsys):
        code = main(["recognize", str(workdir / "c5.graph")])
        assert code == 1
        assert capsys.readouterr().out == "above1\n"


class TestSolve:
    def test_dominating_set(self, workdir, capsys):
        code = main(["solve", "--problem", "ds", "--sequence",
                     str(workdir / "p4.seq"), "--component-bound", "2",
                     str(workdir / "p4.graph")])
        assert code == 0
        assert capsys.readouterr().out == "value 2\n"

    def test_vertex_cover(self, workdir, capsys):
        code = main(["solve", "--problem", "vc", "--sequence",
                     str(workdir / "p4.seq"), "--component-bound", "2",
                     str(workdir / "p4.graph")])
        assert code == 0
        assert capsys.readouterr().out == "value 2\n"

    def test_bound_too_small_is_input_error(self, workdir, capsys):
        code = main(["solve", "--problem", "vc", "--sequence",
                     str(workdir / "p4.seq"), "--component-bound", "1",
                     str(workdir / "p4.graph")])
        assert code == 2
        assert "exceeds the bound" in capsys.readouterr().err

    def test_bound_above_cap_is_refused_before_any_table(self, workdir, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the DP ran")

        monkeypatch.setattr(dpsolve, "walk", refuse)
        cap = dpsolve.MAX_COMPONENT_BOUND
        for problem in ("ds", "vc"):
            code = main(["solve", "--problem", problem, "--sequence",
                         str(workdir / "p4.seq"), "--component-bound", str(cap + 1),
                         str(workdir / "p4.graph")])
            assert code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: component bound %d is above the cap %d (tables of up to 6^%d entries)\n" \
                % (cap + 1, cap, cap)


class TestGen:
    def test_snaking_writes_parseable_graph(self, workdir, capsys):
        out = workdir / "snake.graph"
        assert main(["gen", "snaking", "2", "2", "--out", str(out)]) == 0
        g, _ = io.parse_graph(out.read_text())
        assert g.n == 16

    def test_hamcycle_to_stdout(self, workdir, capsys):
        assert main(["gen", "hamcycle", "2", "2"]) == 0
        g, _ = io.parse_graph(capsys.readouterr().out)
        assert g.n == 16
        assert max(len(g.adj[v]) for v in g.vertices) <= 3

    def test_halfcycle_with_witness(self, workdir, capsys):
        out, wit = workdir / "hc.graph", workdir / "hc.seq"
        assert main(["gen", "halfcycle", "4", "3",
                     "--out", str(out), "--witness", str(wit)]) == 0
        g, _ = io.parse_graph(out.read_text())
        seq = io.parse_sequence(wit.read_text())
        assert verify(g, seq, bound=3).ok

    def test_deterministic_bytes(self, workdir):
        a, b = workdir / "a.graph", workdir / "b.graph"
        main(["gen", "snaking", "3", "4", "--out", str(a)])
        main(["gen", "snaking", "3", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("family, a, b, what", [
        ("snaking", 110, 110, "107584 vertices, above the header limit 100000"),
        ("hamcycle", 110, 110, "107584 vertices, above the header limit 100000"),
        ("halfcycle", 3, 60000, "180000 vertices, above the header limit 100000"),
        ("halfcycle", 3, 1000, "1498500 edges, above the limit 1000000"),
    ])
    def test_oversized_output_is_input_error(self, workdir, capsys, monkeypatch,
                                             family, a, b, what):
        def refuse(*args, **kwargs):
            raise AssertionError("the graph was built")
        for name in ("snaking_grid", "augmented_snaking_grid", "halfgraph_cycle"):
            monkeypatch.setattr(cli, name, refuse)
        assert main(["gen", family, str(a), str(b), "--out", str(workdir / "big")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s %d %d has %s\n" % (family, a, b, what)
        assert not (workdir / "big").exists()

    def test_size_is_known_before_building(self):
        # the sizes gen checks are those of the graphs it builds
        for a, b in ((1, 2), (2, 2), (3, 5), (4, 4)):
            assert cli._gen_size("snaking", a, b) == (snaking_grid(a, b).graph.n, 0)
        for a, b in ((2, 2), (3, 4)):
            assert cli._gen_size("hamcycle", a, b) == (augmented_snaking_grid(a, b).n, 0)
        for a, b in ((3, 1), (4, 3), (5, 7)):
            g, _ = halfgraph_cycle(a, b)
            assert cli._gen_size("halfcycle", a, b) == (g.n, g.edge_count())


class TestReductionPipeline:
    def test_reduce_then_validate(self, workdir, capsys):
        inst = workdir / "micro.inst"
        code = main(["reduce3sat", str(workdir / "micro.formula"),
                     "--out", str(inst)])
        assert code == 0
        assert capsys.readouterr().out == "n 113 parts 40 dims 2 4\n"
        assert main(["validate-instance", str(inst)]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_validate_rejects_single_row_instance(self, workdir, capsys):
        # a clause-free formula reduces to p = 1, which compose rejects
        (workdir / "empty.formula").write_text("formula 2\n")
        inst = workdir / "empty.inst"
        assert main(["reduce3sat", str(workdir / "empty.formula"),
                     "--out", str(inst)]) == 0
        assert capsys.readouterr().out == "n 8 parts 4 dims 1 2\n"
        assert main(["validate-instance", str(inst)]) == 1
        assert capsys.readouterr().out == "invalid: instance dimensions must have p >= 2\n"

    def test_validate_rejects_tampering(self, workdir, capsys):
        inst = workdir / "micro.inst"
        main(["reduce3sat", str(workdir / "micro.formula"), "--out", str(inst)])
        capsys.readouterr()
        # move one vertex between parts: partition still complete,
        # quotient no longer matches the grid
        text = inst.read_text()
        lines = text.splitlines()
        i1 = next(i for i, l in enumerate(lines) if l.startswith("part 1 "))
        i2 = next(i for i, l in enumerate(lines) if l.startswith("part 2 "))
        moved = lines[i1].split()[-1]
        lines[i1] = " ".join(lines[i1].split()[:-1])
        lines[i2] = lines[i2] + " " + moved
        inst.write_text("\n".join(lines) + "\n")
        code = main(["validate-instance", str(inst)])
        assert code == 1
        assert capsys.readouterr().out.startswith("invalid: ")

    def test_compose_two_instances(self, workdir, capsys):
        inst = workdir / "micro.inst"
        main(["reduce3sat", str(workdir / "micro.formula"), "--out", str(inst)])
        capsys.readouterr()
        out, wit, tags = (workdir / "c.graph", workdir / "c.seq",
                          workdir / "c.tags")
        code = main(["compose", str(inst), str(inst), "--out", str(out),
                     "--witness", str(wit), "--provenance", str(tags)])
        assert code == 0
        assert capsys.readouterr().out == "n 306 parts 40 width 4\n"
        g, _ = io.parse_graph(out.read_text())
        seq = io.parse_sequence(wit.read_text())
        assert verify(g, seq, bound=4).ok
        first = tags.read_text().splitlines()[0].split()
        assert first[0] == "tag" and len(first) == 4

    def test_pipeline_one_formula_twice(self, workdir, capsys):
        code = main(["pipeline", str(workdir / "micro.formula"),
                     str(workdir / "micro.formula")])
        assert code == 0
        assert capsys.readouterr().out == "instances 2 parts 40 n 306 width 4\n"

    def test_pipeline_replays_each_witness_once(self, workdir, capsys, monkeypatch):
        # one verify per input row inside or_cross_compose, one for the
        # composed witness, and one final_trigraph before stage 3
        calls = {"verify": 0, "final_trigraph": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            original = getattr(sequence, name)
            for mod in (cli, compose, gadgets):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted(name, original))
        code = main(["pipeline", str(workdir / "micro.formula"),
                     str(workdir / "micro.formula")])
        assert code == 0
        assert calls == {"verify": 3, "final_trigraph": 1}

    def test_pipeline_copies_once_per_walk(self, workdir, capsys, monkeypatch):
        # the replays above contract in place: one copying contract per
        # walk, so 3 for the 3 verify walks, which have 73 to 305 steps
        # each; final_trigraph is a quotient by the bags and walks not
        calls = []
        original = sequence.contract

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sequence, "contract", counted)
        code = main(["pipeline", str(workdir / "micro.formula"),
                     str(workdir / "micro.formula")])
        assert code == 0
        assert len(calls) == 3

    def test_pipeline_mismatched_dims(self, workdir, capsys):
        other = workdir / "other.formula"
        other.write_text("formula 5\nclause + 1 1 2 5\n")
        code = main(["pipeline", str(workdir / "micro.formula"), str(other)])
        assert code == 2

    def test_pipeline_no_formulas_is_usage_error(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline"])
        assert exc.value.code == 2


class TestKernel:
    STAR6 = "graph 6\nedge 1 2\nedge 1 3\nedge 1 4\nedge 1 5\nedge 1 6\n"

    def test_cvc2_shrinks_class(self, workdir, capsys):
        (workdir / "star.graph").write_text(self.STAR6)
        out, trace = workdir / "red.graph", workdir / "red.trace"
        code = main(["kernel", "--problem", "cvc2", "--k", "2",
                     str(workdir / "star.graph"), "--out", str(out),
                     "--trace", str(trace)])
        assert code == 0
        assert capsys.readouterr().out == "n 5 m 4 k 2\n"
        assert trace.read_text() == "rule 1 delete 6\n"
        g, _ = io.parse_graph(out.read_text())
        assert g == Graph(range(1, 6), [(1, 2), (1, 3), (1, 4), (1, 5)])

    def test_capvc_round_trips_capacities(self, workdir, capsys):
        caps = "".join("cap %d 1\n" % v for v in range(1, 7))
        (workdir / "star.cap").write_text(self.STAR6 + caps)
        out = workdir / "red.graph"
        code = main(["kernel", "--problem", "capvc", "--k", "2",
                     str(workdir / "star.cap"), "--out", str(out)])
        assert code == 0
        g, back = io.parse_graph(out.read_text())
        assert g.n == 5
        assert set(back) == g.vertices

    def test_cvc2_rejects_capacities(self, workdir, capsys):
        caps = "".join("cap %d 1\n" % v for v in range(1, 7))
        (workdir / "star.cap").write_text(self.STAR6 + caps)
        code = main(["kernel", "--problem", "cvc2", "--k", "2", str(workdir / "star.cap")])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: capacities only make sense for --problem capvc\n")

    def test_capvc_requires_capacities(self, workdir, capsys):
        (workdir / "star.graph").write_text(self.STAR6)
        code = main(["kernel", "--problem", "capvc", "--k", "2",
                     str(workdir / "star.graph")])
        assert code == 2
        assert "cap line" in capsys.readouterr().err

    def test_trivial_no(self, workdir, capsys):
        # long path: matching endpoints blow past 2k+1 for k = 1
        edges = "".join("edge %d %d\n" % (v, v + 1) for v in range(1, 8))
        (workdir / "path8.graph").write_text("graph 8\n" + edges)
        code = main(["kernel", "--problem", "cvc2", "--k", "1",
                     str(workdir / "path8.graph")])
        assert code == 1
        assert capsys.readouterr().out == "trivial-no\n"

    def test_negative_k_is_input_error(self, workdir, capsys):
        (workdir / "star.graph").write_text(self.STAR6)
        code = main(["kernel", "--problem", "cvc2", "--k", "-3",
                     str(workdir / "star.graph")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: k must be non-negative, got -3\n"


class TestErrorExits:
    def test_missing_file(self, workdir, capsys):
        assert main(["exact", str(workdir / "nope.graph")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_syntax_error(self, workdir, capsys):
        bad = workdir / "bad.graph"
        bad.write_text("graph 3\nedge 1 1\n")
        assert main(["exact", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_oversized_header_is_input_error(self, workdir, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the graph was built")
        monkeypatch.setattr(io, "Graph", refuse)
        huge = workdir / "huge.graph"
        huge.write_text("graph 1000000000\n")
        assert main(["recognize", str(huge)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: line 1: graph 1000000000 exceeds the "
                                "header limit 100000\n")

    def test_capacities_rejected_outside_capvc(self, workdir, capsys):
        capped = workdir / "capped.graph"
        capped.write_text("graph 2\nedge 1 2\ncap 1 1\ncap 2 1\n")
        assert main(["exact", str(capped)]) == 2

    @pytest.mark.parametrize("cap", ["abc", "-1", "1.5", " 7", "²"])
    def test_malformed_size_cap_is_input_error(self, workdir, capsys, monkeypatch, cap):
        monkeypatch.setenv("TWW_SIZE_CAP", cap)
        assert main(["exact", str(workdir / "p4.graph")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: TWW_SIZE_CAP must be a non-negative integer, got %r\n"
                                % cap)

    def test_search_deeper_than_half_the_recursion_limit_is_input_error(
            self, workdir, capsys, monkeypatch):
        # the raised cap admits the star, but the exact search would
        # recurse once per merge of its 1,199 twin leaves
        monkeypatch.setenv("TWW_SIZE_CAP", "5000")
        star = workdir / "star.graph"
        star.write_text("graph 1200\n" + "".join("edge 1 %d\n" % v for v in range(2, 1201)))
        assert main(["exact", str(star)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: graph has 1200 vertices, twin-width depth limit is %d\n"
                                % (sys.getrecursionlimit() // 2))

    def test_unexpected_exception_is_internal_error(self, workdir, capsys, monkeypatch):
        def deep(args):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr(cli, "cmd_exact", deep)
        assert main(["exact", str(workdir / "p4.graph")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("internal error: RecursionError: "
                                "maximum recursion depth exceeded\n")

    def test_broken_invariant_is_internal_error_by_name(self, capsys, monkeypatch):
        # an odd fine column count leaves the comb's cycle open
        monkeypatch.setattr(gadgets, "fine_dims", lambda s, t: (3 * s - 2, 3 * t - 1))
        assert main(["gen", "hamcycle", "2", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: InternalError: cycle does not close\n"
