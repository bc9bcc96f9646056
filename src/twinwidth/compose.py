"""OR-composition: merge annotated Dominating Set instances into one
graph that is positive iff some input is, keeping twin-width at most 4.

Instances sharing budget N and grid dimensions (p, q) are stacked as
rows, their partition classes reordered along the hamiltonian cycle of
the augmented snaking grid, and chained by a cycle of strict
half-graphs over the columns: class (i, j) is completely linked to
every deeper class at column j+1 (cyclically).  A final dummy row of
N isolated pairs forces any budget-N dominating set to pick exactly
one vertex per column block.

The witness contracts each class (stage 1, the inputs' own
witnesses), then repeatedly folds the two bottommost grids into one by
contracting homologous vertices in a fixed safe order (stage 2), and
collapses the surviving augmented grid like a grid subdivision
(stage 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .trigraph import Graph
from .sequence import ContractionSequence, final_trigraph
from .gadgets import (AnnotatedInstance, Point, fine_dims, hamiltonian_cycle,
                      augmented_snaking_grid, grid_subdivision_collapse,
                      snaking_grid, validate_instance)


@dataclass(frozen=True)
class ComposedInstance:
    graph: Graph
    budget: int
    rows: int
    columns: Tuple[FrozenSet[int], ...]
    witness: ContractionSequence
    provenance: Dict[int, Tuple[int, int]]  # vertex -> (row, column)

    def forced_parts(self) -> List[Set[int]]:
        """Column blocks that every budget-sized dominating set hits once.

        Block j holds column j of the real rows plus the dummy pair of
        column j+1: a dummy vertex is seen only by the previous column,
        so all N blocks need a pick and the budget leaves exactly one
        per block.
        """
        n_cols = self.budget
        blocks: List[Set[int]] = [set() for _ in range(n_cols)]
        for v, (row, col) in self.provenance.items():
            if row < self.rows:
                blocks[col - 1].add(v)
            else:
                blocks[(col - 2) % n_cols].add(v)
        return blocks


def make_dummy(budget: int, p: int, q: int) -> AnnotatedInstance:
    """N pairs of isolated vertices, classes laid along the cycle."""
    if budget != fine_dims(p, q)[0] * fine_dims(p, q)[1]:
        raise ValueError("budget must equal the fine grid size")
    g = Graph(range(1, 2 * budget + 1))
    parts = tuple(frozenset((2 * j + 1, 2 * j + 2)) for j in range(budget))
    cyc = hamiltonian_cycle(p, q)
    eta = {j: cyc[j] for j in range(budget)}
    witness = ContractionSequence.from_merges(
        2 * budget, [(2 * j + 1, 2 * j + 2) for j in range(budget)])
    return AnnotatedInstance(g, parts, p, q, eta, witness)


def classify_positions(p: int, q: int) -> Dict[Point, object]:
    """Stage-2 contraction schedule over augmented-grid positions.

    Values are "blue" (degree two), "purple", "orange", or
    ("path", rank) for the residual snake bands; colors contract in
    that order, the bands by ascending rank.
    """
    rows, cols = fine_dims(p, q)
    aug = augmented_snaking_grid(p, q)
    sg = snaking_grid(p, q)
    degree = {pt: aug.degree(v) for pt, v in sg.vertex_at.items()}

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
        return any(classes[pos[w]] == "orange" for w in aug.neighbors(at[pt]))

    order = sorted(colored["blue"])
    order += sorted(colored["purple"], key=lambda pt: (near_orange(pt), pt))
    order += sorted(colored["orange"])
    order += [pt for _, pt in sorted(banded)]
    return order


def or_cross_compose(instances: Sequence[AnnotatedInstance]) -> ComposedInstance:
    """Compose annotated instances (plus a fresh dummy row) into one.

    Raises ValueError on dimension mismatch or an invalid input
    instance, and AssertionError (also under python -O) if the emitted
    witness is not full or breaks the C + 2P <= 4 degree audit at a
    stage-2 contraction.
    """
    if not instances:
        raise ValueError("need at least one instance")
    budget = instances[0].part_count
    p, q = instances[0].p, instances[0].q
    for inst in instances:
        if inst.part_count != budget or (inst.p, inst.q) != (p, q):
            raise ValueError("instances disagree on budget or dimensions")
        validate_instance(inst)

    all_rows = list(instances) + [make_dummy(budget, p, q)]
    t1 = len(all_rows)
    cyc = hamiltonian_cycle(p, q)
    point_col = {pt: j + 1 for j, pt in enumerate(cyc)}

    # global ids: instance i occupies offset_i + 1 .. offset_i + n_i
    offsets = []
    n_h = 0
    for inst in all_rows:
        offsets.append(n_h)
        n_h += inst.graph.n

    provenance: Dict[int, Tuple[int, int]] = {}
    cells: List[Dict[int, Set[int]]] = []  # per row: column -> global ids
    edges: List[Tuple[int, int]] = []
    for i, inst in enumerate(all_rows):
        off = offsets[i]
        for u, v in inst.graph.edges():
            edges.append((off + u, off + v))
        row_cells: Dict[int, Set[int]] = {}
        for j, part in enumerate(inst.parts):
            col = point_col[inst.eta[j]]
            row_cells[col] = {off + v for v in part}
            for v in part:
                provenance[off + v] = (i + 1, col)
        cells.append(row_cells)
    for i in range(t1):
        for col in range(1, budget + 1):
            succ = col % budget + 1
            for deeper in range(i + 1, t1):
                for u in cells[i][col]:
                    for v in cells[deeper][succ]:
                        edges.append((u, v))
    h = Graph(range(1, n_h + 1), edges)

    # stage 1: each row's own witness, vertices shifted; a part's bag
    # is labelled by its smallest global vertex
    pairs: List[Tuple[int, int]] = []
    reps: List[Dict[int, int]] = []  # per row: column -> bag label
    for i, inst in enumerate(all_rows):
        off = offsets[i]
        pairs += [(off + a, off + b) for a, b in inst.witness.merges()]
        reps.append({point_col[inst.eta[j]]: off + min(part)
                     for j, part in enumerate(inst.parts)})

    # stage 2: fold rows into the bottom grid, fixed order, degree audit;
    # row 0 has the smallest ids, so its labels name the folded bags
    order = stage2_order(p, q)
    sg = snaking_grid(p, q)
    aug = augmented_snaking_grid(p, q)
    pos = {v: pt for pt, v in sg.vertex_at.items()}
    neighbors = {pt: {pos[w] for w in aug.adj[v]} for pt, v in sg.vertex_at.items()}
    for deeper in reps[1:]:
        done: Set[Point] = set()
        for pt in order:
            contracted = len(neighbors[pt] & done)
            pending = len(neighbors[pt]) - contracted
            if contracted + 2 * pending > 4:
                raise AssertionError("degree audit failed at %r: C=%d P=%d"
                                     % (pt, contracted, pending))
            col = point_col[pt]
            pairs.append((reps[0][col], deeper[col]))
            done.add(pt)

    # stage 3: the single remaining grid collapses like a red grid
    partial = ContractionSequence.from_merges(n_h, pairs)
    t_fin = final_trigraph(h, partial)
    vertex = {min(bag): v for v, bag in partial.final_bags().items()}
    embedding = {vertex[reps[0][point_col[pt]]]: pt for pt in sg.vertex_at}
    tail = grid_subdivision_collapse(t_fin, embedding, n=n_h, prior=len(pairs))
    witness = ContractionSequence(n_h, partial.steps + tail.steps)
    if not witness.is_full:
        raise AssertionError("composed witness is not a full sequence")

    columns = tuple(
        frozenset().union(*(cells[i][col] for i in range(t1 - 1)))
        for col in range(1, budget + 1))
    return ComposedInstance(h, budget, t1, columns, witness, provenance)