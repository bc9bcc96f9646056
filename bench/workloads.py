"""The four workloads: inputs, one operation each, and its check.

A workload builds a fixed list of blocks of operations from the seed;
the run cycles through the blocks as a closed loop with one client and
stops at a block boundary.  Every block holds the workload's whole
input mix (the same shapes, fresh random content), so any run of whole
blocks sees the stated mix.  Each mix has an odd number of size classes
so that the median latency falls inside one class rather than on the
gap between two, and the members of a class are spread over the block:
the machine's speed drifts by tens of percent over seconds, and a
class run back to back would sample that drift at a single moment.
Each operation has three parts:

* run()      the timed call into the library, nothing else;
* output(r)  bytes that identify the result (stdout, files written),
             read after the clock stopped and hashed to compare the
             repeats of one input;
* check(r, blob)  the independent check of that result, made on the
             first run of each input and outside the timed region.

Why each workload is here:

pipeline    ``tww pipeline`` over formula files: the paper's main
            construction.  gadgets, compose and the repeated
            verify/final_trigraph replays dominate; modular, recognize,
            dpsolve, kernel and oracle do no work.
recognize   recognize_tww1 on graphs whose verdict is known by
            construction.  modular and the prime-graph driver do most
            of the work; the cograph share shows the memory held by the
            recursion (induced() and complement() copies per level).
solve       ``tww solve`` for Dominating Set and Vertex Cover along a
            width-1 witness: dpsolve and contract do most of the work,
            compose and modular none.
crosscheck  the acceptance gate's shape at desk scale (criteria 10, 11
            and 12), one small graph per operation: the oracle layer and
            per-call overhead dominate, contract copying is negligible.

BENCHMARK.json gates pipeline and crosscheck, which between them reach
every module.  recognize and solve run the same way by hand: on a
2-core VM whose speed drifted by 20-50% over minutes, their median
latency and throughput spread by more than the 0.24 bound across ten
20-second runs, and the time budget leaves no room for longer runs of
four workloads.
"""

from __future__ import annotations

import contextlib
import io as stdio
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from twinwidth import cli, dpsolve, kernel, oracle, recognize
from twinwidth.oracle import CapacitatedGraph
from twinwidth.sequence import ContractionSequence
from twinwidth.trigraph import Graph

import checks
import inputs
from checks import require


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    output: Callable[[Any], bytes]
    check: Callable[[Any, bytes], None]


def _cli(argv: List[str]) -> Callable[[], Tuple[int, str]]:
    def run() -> Tuple[int, str]:
        out = stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stdio.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()
    return run


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _expect_ok(result: Tuple[int, str]) -> str:
    code, stdout = result
    require(code == 0, "exit code %d where 0 is expected" % code)
    return stdout


# ---------------------------------------------------------------------------
# pipeline

# (formulas per operation, variables) of one block; every formula has
# one clause of a random sign, so the formulas of one operation share
# their grid dimensions.  Sizes span 3..7 variables and 2..4 formulas;
# more clauses cost seconds per operation and would leave too few
# samples for a tail percentile.  Three cheap shapes, three middle ones
# of about the same cost and three costly ones of about the same cost,
# interleaved: the median and the tail each fall inside a group of like
# operations instead of on a gap between two shapes.
PIPELINE_BLOCK = [(3, 5), (2, 3), (3, 7),
                  (3, 6), (2, 5), (4, 5),
                  (4, 4), (3, 3), (4, 6)]
PIPELINE_BLOCKS = 4


def pipeline(rng: random.Random, work: str) -> List[List[Op]]:
    out_graph = os.path.join(work, "composed.graph")
    out_seq = os.path.join(work, "composed.seq")
    blocks = []
    for b in range(PIPELINE_BLOCKS):
        ops = []
        for i, (count, n) in enumerate(PIPELINE_BLOCK):
            paths = []
            for j in range(count):
                plus = int(rng.random() < 0.5)
                path = os.path.join(work, "b%d_op%d_f%d.formula" % (b, i, j))
                _write(path, inputs.formula_text(*inputs.layout_formula(n, plus, 1 - plus, rng)))
                paths.append(path)
            argv = ["pipeline"] + paths + ["--out", out_graph, "--witness", out_seq]
            ops.append(Op("formulas=%d vars=%d" % (count, n), _cli(argv),
                          lambda r: b"\0".join((repr(r).encode(), _read(out_graph),
                                                 _read(out_seq))),
                          _pipeline_check(count)))
        blocks.append(ops)
    return blocks


def _pipeline_check(count: int):
    def check(result, blob: bytes) -> None:
        _, graph_text, seq_text = blob.split(b"\0")
        fields = checks.parse_result_line(_expect_ok(result), ("instances", "parts", "n", "width"))
        require(fields is not None, "unexpected pipeline output %r" % (result[1],))
        require(int(fields["instances"]) == count, "instance count")
        n, edges = checks.read_graph(graph_text.decode())
        n_seq, steps = checks.read_sequence(seq_text.decode())
        require(n == n_seq == int(fields["n"]), "graph, witness and stdout disagree on n")
        width = checks.sequence_width(n, edges, steps)
        require(width == int(fields["width"]), "reported width %s, replay gives %d"
                % (fields["width"], width))
        require(width <= 4, "composed witness has width %d > 4" % width)
    return check


# ---------------------------------------------------------------------------
# recognize

RECOGNIZE_BLOCKS = 2


def recognize_ops(rng: random.Random, work: str) -> List[List[Op]]:
    """Inputs with verdicts known by construction (see inputs.py).

    One block holds seven cheap inputs, three dense graphs on 40
    vertices and seven costlier inputs, so the median latency is that
    of the dense middle group whatever the machine's speed.
    """
    def split(n):
        edges, _ = inputs.splitting_graph(n, rng)
        return "split", n, edges, "tww0" if checks.is_cograph(n, edges) else "tww1"

    def dense(n):
        return "dense", n, inputs.dense_with_c5(n, rng), "above1"

    def cotree(n):
        return "cotree", n, inputs.cotree_edges(n, rng), "tww0"

    def threshold(n):
        return "threshold", n, inputs.threshold_edges(n, rng), "tww0"

    def path(n):
        return "path", n, inputs.path_edges(n), "tww1"

    def cycle(n):
        return "cycle", n, inputs.cycle_edges(n), "above1"

    blocks = []
    for _ in range(RECOGNIZE_BLOCKS):
        # middle, cheap, costly, cheap, costly, ... (see the module doc)
        cases = [dense(40), split(40), path(40), cotree(150), cycle(45), cycle(30),
                 dense(40), dense(50), split(60), dense(55), threshold(100),
                 dense(40), threshold(175), cotree(250), path(50), path(30),
                 threshold(250)]
        ops = []
        for family, n, edges, expect in cases:
            g = Graph(range(1, n + 1), edges)
            ops.append(Op("%s n=%d" % (family, n),
                          lambda g=g: recognize.recognize_tww1(g),
                          lambda r: repr((r.verdict, r.witness and r.witness.steps)).encode(),
                          _recognize_check(n, edges, expect)))
        blocks.append(ops)
    return blocks


def _recognize_check(n: int, edges, expect: str):
    def check(result, blob: bytes) -> None:
        require(result.verdict == expect, "verdict %s, expected %s" % (result.verdict, expect))
        if expect == "above1":
            require(result.witness is None, "above1 came with a witness")
            return
        bound = 0 if expect == "tww0" else 1
        width = checks.sequence_width(n, edges, result.witness.steps)
        require(width <= bound, "witness has width %d above %d" % (width, bound))
    return check


# ---------------------------------------------------------------------------
# solve

# graph sizes of one block, the middle size first and the others
# interleaved (see the module doc); the two small ones are compared with the
# oracles, the rest with the DP along recognize_tww1's witness.  Links
# are capped (see inputs.splitting_graph) so that the cost of a size
# class hardly depends on the seed.
SOLVE_SIZES = (120, 16, 240, 24, 320, 80, 160)
SOLVE_MAX_LINK = 16
SOLVE_BLOCKS = 8
ORACLE_MAX_N = 24


def solve(rng: random.Random, work: str) -> List[List[Op]]:
    blocks = []
    for b in range(SOLVE_BLOCKS):
        ops = []
        for n in SOLVE_SIZES:
            edges, steps = inputs.splitting_graph(n, rng, SOLVE_MAX_LINK)
            g = Graph(range(1, n + 1), edges)
            gpath = os.path.join(work, "b%d_g%d.graph" % (b, n))
            spath = os.path.join(work, "b%d_g%d.seq" % (b, n))
            _write(gpath, "graph %d\n" % n + "".join("edge %d %d\n" % e for e in edges))
            _write(spath, "seq %d\n" % n + "".join("contract %d %d %d\n" % s for s in steps))
            second: Dict[str, ContractionSequence] = {}
            for problem in ("ds", "vc"):
                argv = ["solve", "--problem", problem, "--sequence", spath,
                        "--component-bound", "2", gpath]
                ops.append(Op("%s n=%d" % (problem, n), _cli(argv),
                              lambda r: repr(r).encode(),
                              _solve_check(problem, g, edges, second)))
        blocks.append(ops)
    return blocks


def _solve_check(problem: str, g: Graph, edges, second: Dict[str, ContractionSequence]):
    def check(result, blob: bytes) -> None:
        fields = checks.parse_result_line(_expect_ok(result), ("value",))
        require(fields is not None, "unexpected solve output %r" % (result[1],))
        value = int(fields["value"])
        if g.n <= ORACLE_MAX_N:
            if problem == "ds":
                expect = oracle.min_dominating_set(g)[0]
            else:
                expect = checks.min_vertex_cover(g.n, edges)
        else:
            # the second, independent witness: recognize_tww1's, shared
            # by the ds and vc operations on this graph
            if "witness" not in second:
                second["witness"] = recognize.recognize_tww1(g).witness
            witness = second["witness"]
            require(witness is not None, "recognize_tww1 gave no witness")
            require(checks.sequence_width(g.n, edges, witness.steps) <= 1,
                    "second witness is wider than 1")
            dp = dpsolve.min_ds_dp if problem == "ds" else dpsolve.min_vc_dp
            expect = dp(g, witness, 2)
        require(value == expect, "%s value %d, reference %d" % (problem, value, expect))
    return check


# ---------------------------------------------------------------------------
# crosscheck

# one block: nine tiny recognition cross-checks (n = 7, 8, 9 three
# times each), one kernel cross-check, whose n runs through 8..12
# across blocks, and one DP run on a width-1 graph as in acceptance
# criterion 12 (n in 4..12 or 13..24 on alternate blocks), compared
# with the oracles
CROSS_BLOCKS = 160
KERNELS = ("cvc_kernel_quadratic", "cvc_kernel_improved")


def crosscheck(rng: random.Random, work: str) -> List[List[Op]]:
    blocks = []
    for b in range(CROSS_BLOCKS):
        ops = []
        for i in range(9):
            n = 7 + i % 3
            edges = inputs.random_graph(n, 0.5, rng)
            ops.append(Op("exact n=%d" % n, _exact_run(n, edges),
                          lambda r: repr(r).encode(), _exact_check(n, edges)))
        n = 8 + b % 5
        edges, caps = inputs.connected_capacitated(n, rng)
        ops.append(Op("kernel n=%d" % n, _kernel_run(n, edges, caps),
                      lambda r: repr(r).encode(), _kernel_check))
        n = rng.randint(4, 12) if b % 2 else rng.randint(13, 24)
        edges, steps = inputs.splitting_graph(n, rng)
        ops.append(Op("dp n=%d" % n, _dp_run(n, edges, steps),
                      lambda r: repr(r).encode(), _dp_check(n, edges)))
        blocks.append(ops)
    return blocks


def _dp_run(n: int, edges, steps):
    g = Graph(range(1, n + 1), edges)
    seq = ContractionSequence(n, steps)

    def run():
        c = max(2, dpsolve.check_component_bound(g, seq))
        return dpsolve.min_vc_dp(g, seq, c), dpsolve.min_ds_dp(g, seq, c)
    return run


def _dp_check(n: int, edges):
    g = Graph(range(1, n + 1), edges)

    def check(result, blob: bytes) -> None:
        vc, ds = result
        require(vc == checks.min_vertex_cover(n, edges), "vc %d differs from the oracle" % vc)
        require(ds == oracle.min_dominating_set(g)[0], "ds %d differs from the oracle" % ds)
    return check


def _exact_run(n: int, edges):
    g = Graph(range(1, n + 1), edges)

    def run():
        width, _ = oracle.exact_twinwidth(g)
        res = recognize.recognize_tww1(g)
        return width, res.verdict, res.witness and res.witness.steps
    return run


def _exact_check(n: int, edges):
    def check(result, blob: bytes) -> None:
        width, verdict, steps = result
        expect = {0: "tww0", 1: "tww1"}.get(width, "above1")
        require(verdict == expect, "recognize says %s, exact width %d" % (verdict, width))
        if steps is not None:
            got = checks.sequence_width(n, edges, steps)
            require(got <= width, "witness width %d above the exact %d" % (got, width))
    return check


def _kernel_run(n: int, edges, caps: Dict[int, int]):
    g = Graph(range(1, n + 1), edges)
    cg = CapacitatedGraph(g, caps)

    def run():
        cvc = oracle.min_connected_vertex_cover(g)
        capv = oracle.min_capacitated_vc(cg)
        rows = []
        for k in range(1, 7):
            for name in KERNELS:
                ker = getattr(kernel, name)(g, k)
                if ker.trivial_no:
                    after, fixed = False, True
                else:
                    res = oracle.min_connected_vertex_cover(ker.graph)
                    after = res is not None and res[0] <= k
                    fixed = getattr(kernel, name)(ker.graph, k).trace == ()
                rows.append((name, k, cvc is not None and cvc[0] <= k, after, fixed))
            ker = kernel.capvc_kernel(cg, k)
            if ker.trivial_no:
                after, fixed = False, True
            else:
                after = oracle.min_capacitated_vc(ker.graph, k) is not None
                fixed = kernel.capvc_kernel(ker.graph, k).trace == ()
            rows.append(("capvc_kernel", k, capv is not None and len(capv) <= k, after, fixed))
        return tuple(rows)
    return run


def _kernel_check(result, blob: bytes) -> None:
    for name, k, before, after, fixed in result:
        require(before == after, "%s at k=%d changes the answer" % (name, k))
        require(fixed, "%s at k=%d is not at a fixpoint" % (name, k))


WORKLOADS: Dict[str, Callable[[random.Random, str], List[List[Op]]]] = {
    "pipeline": pipeline,
    "recognize": recognize_ops,
    "solve": solve,
    "crosscheck": crosscheck,
}
