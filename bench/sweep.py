"""Ungated size sweep: fitted log-log growth exponents per layer.

Each layer is timed on one input family at a few sizes, and the
exponent is the least-squares slope of log(time) against log(n).
Inputs are fixed (seed 0), so exponents compare across runs and seeds.
Sizes stop well short of what the seed code can take, to keep the
sweep to a few seconds; the exponents are for spotting a change of
complexity class, not for predicting times at other sizes.
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable, Dict, List, Tuple

from twinwidth import compose, dpsolve, gadgets, modular, recognize, sequence, trigraph
from twinwidth.trigraph import Graph

import inputs


def _cost(fn: Callable[[], object]) -> float:
    """Fastest of up to three runs, stopping once 0.2 s was spent."""
    best = math.inf
    spent = 0.0
    for _ in range(3):
        start = time.perf_counter()
        fn()
        took = time.perf_counter() - start
        best = min(best, took)
        spent += took
        if spent > 0.2:
            break
    return best


def slope(points: List[Tuple[int, float]]) -> float:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _composed(copies: int):
    formula = gadgets.LayoutFormula(3, [gadgets.LayoutClause("+", 1, (1, 2, -3))])
    inst = gadgets.reduce_3sat(formula).instance
    return compose.or_cross_compose([inst] * copies)


def run() -> Dict[str, float]:
    rng = random.Random(0)
    out: Dict[str, float] = {}

    verify_pts, contract_pts = [], []
    for copies in (1, 2, 3, 4):
        c = _composed(copies)
        verify_pts.append((c.graph.n, _cost(lambda: sequence.verify(c.graph, c.witness))))
        t = trigraph.Trigraph.from_graph(c.graph)
        _, u, v = c.witness.steps[0]
        contract_pts.append((c.graph.n, _cost(lambda: [trigraph.contract(t, u, v)
                                                       for _ in range(20)])))
    out["sequence.verify.growth_exponent"] = slope(verify_pts)
    out["trigraph.contract.growth_exponent"] = slope(contract_pts)

    out["modular.maximal_modular_partition.growth_exponent"] = slope(
        [(n, _cost(lambda: modular.maximal_modular_partition(Graph.path(n))))
         for n in (10, 15, 20, 30, 40)])

    for family, make, sizes in (
            ("path", Graph.path, (12, 18, 27, 40)),
            ("cycle", Graph.cycle, (12, 18, 27, 40)),
            ("threshold", lambda n: Graph(range(1, n + 1), inputs.threshold_edges(n, rng)),
             (40, 80, 160))):
        points = []
        for n in sizes:
            g = make(n)
            points.append((n, _cost(lambda: recognize.recognize_tww1(g))))
        out["recognize.recognize_tww1.growth_exponent_%s" % family] = slope(points)

    points = []
    for n in (40, 80, 160, 320):
        edges, steps = inputs.splitting_graph(n, rng)
        g = Graph(range(1, n + 1), edges)
        seq = sequence.ContractionSequence(n, steps)
        points.append((n, _cost(lambda: dpsolve.min_ds_dp(g, seq, 2))))
    out["dpsolve.min_ds_dp.growth_exponent"] = slope(points)
    return out
