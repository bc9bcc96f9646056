"""Command-line front end.

Every command is a thin adapter over one library operation.  Exit
codes: 0 success or positive verdict, 1 negative verdict (bound
violated, above1, failed validation, trivial no-instance), 2 input or
usage error, 3 internal error (any other exception, reported on one
line).  Output is byte-deterministic for fixed inputs and flags.
"""

import argparse
import functools
import sys
from typing import Optional

from . import io
from .compose import ComposedInstance, or_cross_compose
from .dpsolve import min_ds_dp, min_vc_dp
from .gadgets import (AnnotatedInstance, augmented_snaking_grid, fine_dims, halfgraph_cycle,
                      reduce_3sat, snaking_grid, validate_instance)
from .kernel import capvc_kernel, cvc_kernel_improved, cvc_kernel_quadratic
from .oracle import CapacitatedGraph, exact_twinwidth
from .recognize import recognize_tww1
from .sequence import WidthReport, verify
from .trigraph import Graph


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise ValueError("%s must be non-negative, got %d" % (name, value))


def _load_graph(path: str) -> Graph:
    g, caps = io.parse_graph(_read(path))
    if caps:
        raise ValueError("%s: capacities only make sense for kernel --problem capvc" % path)
    return g


def cmd_verify(args) -> int:
    _nonnegative("bound", args.bound)
    g = _load_graph(args.graph)
    seq = io.parse_sequence(_read(args.sequence))
    report = verify(g, seq, bound=args.bound)
    print("width %d" % report.width)
    if report.ok:
        return 0
    step, vertex, degree = report.violation
    print("violation step %d vertex %d degree %d" % (step, vertex, degree))
    return 1


def cmd_exact(args) -> int:
    g = _load_graph(args.graph)
    width, seq = exact_twinwidth(g)
    print("width %d" % width)
    if args.witness:
        _emit(io.write_sequence(seq), args.witness)
    return 0


def cmd_recognize(args) -> int:
    g = _load_graph(args.graph)
    result = recognize_tww1(g)
    print(result.verdict)
    if args.witness and result.witness is not None:
        _emit(io.write_sequence(result.witness), args.witness)
    return 0 if result.verdict in ("tww0", "tww1") else 1


def cmd_kernel(args) -> int:
    _nonnegative("k", args.k)
    g, caps = io.parse_graph(_read(args.graph))
    if args.problem == "capvc":
        if set(caps) != g.vertices:
            raise ValueError("capvc needs a cap line for every vertex")
        out = capvc_kernel(CapacitatedGraph(g, caps), args.k)
    else:
        if caps:
            raise ValueError("capacities only make sense for --problem capvc")
        fn = cvc_kernel_quadratic if args.problem == "cvc2" else cvc_kernel_improved
        out = fn(g, args.k)
    if args.trace:
        lines = ["rule %d delete %d" % (rule, v) for rule, v, _ in out.trace]
        _emit("\n".join(lines) + ("\n" if lines else ""), args.trace)
    if out.trivial_no:
        print("trivial-no")
        return 1
    reduced = out.graph.graph if isinstance(out.graph, CapacitatedGraph) else out.graph
    compact, mapping = reduced.relabel_compact()
    red_caps = None
    if isinstance(out.graph, CapacitatedGraph):
        red_caps = {mapping[v]: c for v, c in out.graph.cap.items()}
    _emit(io.write_graph(compact, red_caps), args.out)
    print("n %d m %d k %d" % (compact.n, compact.edge_count(), out.k))
    return 0


# a million edges take about 2 s and 250 MB to build and write on a
# 2-core VM; the grid families stay far below it (degree at most 3)
GEN_EDGE_LIMIT = 10 ** 6


def _gen_size(family: str, a: int, b: int):
    """(vertices, edges) of gen's output, or for a grid family its vertex
    count and 0, computed from the arguments alone."""
    a, b = max(a, 0), max(b, 0)  # the builders reject negative sizes themselves
    if family == "halfcycle":
        return a * b, a * b * (b - 1) // 2
    rows, cols = fine_dims(a, b)
    return rows * cols, 0


def cmd_gen(args) -> int:
    n, m = _gen_size(args.family, args.a, args.b)
    if n > io.MAX_HEADER:
        raise ValueError("%s %d %d has %d vertices, above the header limit %d"
                         % (args.family, args.a, args.b, n, io.MAX_HEADER))
    if m > GEN_EDGE_LIMIT:
        raise ValueError("%s %d %d has %d edges, above the limit %d"
                         % (args.family, args.a, args.b, m, GEN_EDGE_LIMIT))
    if args.family == "snaking":
        g = snaking_grid(args.a, args.b).graph
    elif args.family == "hamcycle":
        g = augmented_snaking_grid(args.a, args.b)
    else:
        g, seq = halfgraph_cycle(args.a, args.b)
        if args.witness:
            _emit(io.write_sequence(seq), args.witness)
    _emit(io.write_graph(g), args.out)
    return 0


def _reduce(path: str) -> AnnotatedInstance:
    """reduce_3sat of a formula file, refused up front when the grid
    alone, a gadget per point, has more points than the header limit,
    and before any use when the reduced instance has more vertices."""
    formula = io.parse_formula(_read(path))
    rows, cols = fine_dims(len(formula.clauses) + 1, formula.n + formula.n % 2)
    if rows * cols > io.MAX_HEADER:
        raise ValueError("%s: the reduction's grid has %d points, above the header limit %d"
                         % (path, rows * cols, io.MAX_HEADER))
    inst = reduce_3sat(formula).instance
    if inst.graph.n > io.MAX_HEADER:  # the writer's refusal, before anything is composed
        raise ValueError("graph %d exceeds the header limit %d" % (inst.graph.n, io.MAX_HEADER))
    return inst


def cmd_reduce3sat(args) -> int:
    inst = _reduce(args.formula)
    _emit(io.write_instance(inst), args.out)
    print("n %d parts %d dims %d %d" % (inst.graph.n, inst.part_count, inst.p, inst.q))
    return 0


def _verify_and_write(composed: ComposedInstance, args) -> WidthReport:
    """Verify a composition at bound 4 and write the files asked for."""
    report = verify(composed.graph, composed.witness, bound=4)
    for path, write, value in ((args.out, io.write_graph, composed.graph),
                               (args.witness, io.write_sequence, composed.witness),
                               (args.provenance, io.write_provenance, composed.provenance)):
        if path:
            _emit(write(value), path)
    return report


def cmd_compose(args) -> int:
    instances = [io.parse_instance(_read(path)) for path in args.instances]
    composed = or_cross_compose(instances)
    report = _verify_and_write(composed, args)
    print("n %d parts %d width %d" % (composed.graph.n, composed.budget, report.width))
    return 0 if report.ok else 1


def cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    seq = io.parse_sequence(_read(args.sequence))
    fn = min_ds_dp if args.problem == "ds" else min_vc_dp
    print("value %d" % fn(g, seq, args.component_bound))
    return 0


def cmd_validate_instance(args) -> int:
    inst = io.parse_instance(_read(args.instance))
    try:
        validate_instance(inst)
    except ValueError as exc:
        print("invalid: %s" % exc)
        return 1
    print("ok")
    return 0


def cmd_pipeline(args) -> int:
    instances = [_reduce(path) for path in args.formulas]
    composed = or_cross_compose(instances)
    report = _verify_and_write(composed, args)
    print("instances %d parts %d n %d width %d"
          % (len(instances), composed.budget, composed.graph.n, report.width))
    return 0 if report.ok else 1


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The tww parser, built once per process: building it costs some
    30 to 40 parses."""
    parser = argparse.ArgumentParser(
        prog="tww",
        description="Twin-width toolkit: verify witnesses, recognize low "
                    "width, build hardness instances, kernelize, solve.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a contraction sequence against a width bound")
    p.add_argument("-d", "--bound", type=int, required=True)
    p.add_argument("graph")
    p.add_argument("sequence")

    p = sub.add_parser("exact", help="exact twin-width by branch and bound")
    p.add_argument("graph")
    p.add_argument("--witness", help="write an optimal sequence here")

    p = sub.add_parser("recognize", help="decide twin-width 0, 1, or above")
    p.add_argument("graph")
    p.add_argument("--witness", help="write the certifying sequence here")

    p = sub.add_parser("kernel", help="kernelize a vertex cover variant")
    p.add_argument("--problem", choices=("cvc2", "cvc15", "capvc"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("graph")
    p.add_argument("--out", help="reduced graph file (default stdout)")
    p.add_argument("--trace", help="write rule applications here")

    p = sub.add_parser("gen", help="generate a named graph family")
    p.add_argument("family", choices=("snaking", "halfcycle", "hamcycle"))
    p.add_argument("a", type=int, help="rows / layers")
    p.add_argument("b", type=int, help="columns / height")
    p.add_argument("--out", help="graph file (default stdout)")
    p.add_argument("--witness", help="halfcycle only: write its 3-sequence here")

    p = sub.add_parser("reduce3sat", help="planar 3-SAT to Dominating Set")
    p.add_argument("formula")
    p.add_argument("--out", help="instance file (default stdout)")

    p = sub.add_parser("compose", help="OR-cross-composition of annotated instances")
    p.add_argument("instances", nargs="+")
    p.add_argument("--out", required=True, help="composed graph file")
    p.add_argument("--witness", required=True, help="composed sequence file")
    p.add_argument("--provenance", help="vertex origin tags")

    p = sub.add_parser("solve", help="DS/VC along a bounded-red-component sequence")
    p.add_argument("--problem", choices=("ds", "vc"), required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--component-bound", type=int, required=True)
    p.add_argument("graph")

    p = sub.add_parser("validate-instance", help="check an annotated instance file")
    p.add_argument("instance")

    p = sub.add_parser("pipeline", help="reduce3sat every formula, compose, verify")
    p.add_argument("formulas", nargs="+")
    p.add_argument("--out", help="composed graph file")
    p.add_argument("--witness", help="composed sequence file")
    p.add_argument("--provenance", help="vertex origin tags")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # look the command up by name at call time, so that a cmd_<name>
    # bound after the parser was built is the one that runs
    run = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return run(args)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
