"""The stage-2 schedule and the augmented grid as they were before the
composition moved onto fine-grid points, and the composed graph as it
was built before it took its rows from the inputs.

Kept verbatim as the differential reference for twinwidth.compose and
twinwidth.gadgets: the schedule is written as labels per position by
classify_positions and unpacked again by stage2_order, and both read
degrees and neighbours off the augmented grid built as a Graph.
composed_graph lists every input edge, shifted, and every half-graph
pair, and pushes each through the checked edge-list constructor.
"""

from typing import Dict, List, Sequence, Set, Tuple

from twinwidth.compose import make_dummy
from twinwidth.gadgets import (AnnotatedInstance, Point, fine_dims, hamiltonian_cycle,
                               snaking_grid)
from twinwidth.trigraph import Graph


def composed_graph(instances: Sequence[AnnotatedInstance]) -> Graph:
    """The graph of or_cross_compose(instances): the rows with a dummy
    row below, each cell joined to every deeper cell of the next column."""
    budget = instances[0].part_count
    dummy = make_dummy(budget, instances[0].p, instances[0].q)
    all_rows = list(instances) + [dummy]
    t1 = len(all_rows)
    point_col = {dummy.eta[j]: j + 1 for j in range(budget)}
    cells: List[Dict[int, Set[int]]] = []
    edges: List[Tuple[int, int]] = []
    n_h = 0
    for inst in all_rows:
        edges += [(n_h + u, n_h + v) for u, v in inst.graph.edges()]
        cells.append({point_col[inst.eta[j]]: {n_h + v for v in part}
                      for j, part in enumerate(inst.parts)})
        n_h += inst.graph.n
    for i in range(t1):
        for col in range(1, budget + 1):
            succ = col % budget + 1
            for deeper in range(i + 1, t1):
                for u in cells[i][col]:
                    for v in cells[deeper][succ]:
                        edges.append((u, v))
    return Graph(range(1, n_h + 1), edges)


def augmented_snaking_grid(p: int, q: int) -> Graph:
    """Union of the snaking grid and the hamiltonian cycle edges."""
    sg = snaking_grid(p, q)
    cyc = hamiltonian_cycle(p, q)
    extra = []
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        extra.append((sg.vertex_at[a], sg.vertex_at[b]))
    merged = set(map(tuple, (sorted(e) for e in sg.graph.edges())))
    merged |= set(map(tuple, (sorted(e) for e in extra)))
    return Graph(sg.graph.vertices, merged)


def classify_positions(p: int, q: int) -> Dict[Point, object]:
    """Stage-2 contraction schedule over augmented-grid positions.

    Values are "blue" (degree two), "purple", "orange", or
    ("path", rank) for the residual snake bands; colors contract in
    that order, the bands by ascending rank.
    """
    rows, cols = fine_dims(p, q)
    aug = augmented_snaking_grid(p, q)
    sg = snaking_grid(p, q)
    degree = {pt: len(aug.adj[v]) for pt, v in sg.vertex_at.items()}

    out: Dict[Point, object] = {}
    rank = 0
    for band in range(1, p - 1):
        low = 3 * band
        for c in range(2, cols):
            pair = (low + 1, low) if c % 2 == 0 else (low, low + 1)
            for r in pair:
                rank += 1
                out[r, c] = ("path", rank)
    for c in range(4, cols - 2, 3):
        out[2, c] = "orange"
    for pt, deg in degree.items():
        if deg != 3 and (pt in out or deg != 2):
            raise AssertionError("position %r has degree %d" % (pt, deg))
        if pt not in out:
            out[pt] = "blue" if deg == 2 else "purple"
    return out


def stage2_order(p: int, q: int) -> List[Point]:
    """Positions in contraction order: blue, purple, orange, then bands.

    Purple points next to an orange one go after the rest of the purple
    group: with no band rows present the orange row touches the purple
    row directly, and such a point must not see both its horizontal
    partner and the orange point pending at once.
    """
    classes = classify_positions(p, q)
    aug = augmented_snaking_grid(p, q)
    at = snaking_grid(p, q).vertex_at
    pos = {v: pt for pt, v in at.items()}
    colored = {"blue": [], "purple": [], "orange": []}
    banded = []
    for pt, label in classes.items():
        if isinstance(label, tuple):
            banded.append((label[1], pt))
        else:
            colored[label].append(pt)

    def near_orange(pt: Point) -> bool:
        return any(classes[pos[w]] == "orange" for w in aug.adj[at[pt]])

    order = sorted(colored["blue"])
    order += sorted(colored["purple"], key=lambda pt: (near_orange(pt), pt))
    order += sorted(colored["orange"])
    order += [pt for _, pt in sorted(banded)]
    return order
