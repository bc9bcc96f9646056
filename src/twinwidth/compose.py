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
(stage 3).  Stage 2 goes over the fine-grid points in four groups:
blue (augmented degree two), purple (the other points of degree
three), orange (row 2, columns 4, 7, ... before the last three), and
the residual snake bands (rows 3b and 3b + 1 for 0 < b < p - 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from .trigraph import Graph, InternalError, quotient_by
from .sequence import ContractionSequence, final_trigraph
from .gadgets import (AnnotatedInstance, Point, augmented_grid, fine_dims,
                      grid_subdivision_collapse, hamiltonian_cycle,
                      validate_instance)


@dataclass(frozen=True)
class ComposedInstance:
    graph: Graph
    budget: int
    rows: int
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


def stage2_order(nbrs: Dict[Point, Set[Point]]) -> List[Point]:
    """Points of the augmented grid nbrs (gadgets.augmented_grid) in
    contraction order: blue, purple, orange, bands.

    Blue and purple points come in row-major order, and the bands row
    pair by row pair, zig-zagging between the two rows column by
    column.  Purple points next to an orange one go after the rest of
    the purple group: with no band rows present the orange row touches
    the purple row directly, and such a point must not see both its
    horizontal partner and the orange point pending at once.  Raises
    InternalError (also under python -O) unless blue points have
    augmented degree two and all others three.
    """
    rows, cols = max(nbrs)  # the top right corner
    bands = [(r, c) for low in range(3, rows - 1, 3) for c in range(2, cols)
             for r in ((low + 1, low) if c % 2 == 0 else (low, low + 1))]
    orange = [(2, c) for c in range(4, cols - 2, 3)]
    fixed = set(bands) | set(orange)
    blue: List[Point] = []
    purple: List[Point] = []
    for pt, near in nbrs.items():
        if len(near) != 3 and (pt in fixed or len(near) != 2):
            raise InternalError("position %r has degree %d" % (pt, len(near)))
        if pt not in fixed:
            (blue if len(near) == 2 else purple).append(pt)
    purple.sort(key=lambda pt: not nbrs[pt].isdisjoint(orange))
    return blue + purple + orange + bands


def or_cross_compose(instances: Sequence[AnnotatedInstance]) -> ComposedInstance:
    """Compose annotated instances (plus a fresh dummy row) into one.

    Raises ValueError on dimension mismatch or an invalid input
    instance, and InternalError (also under python -O) if the emitted
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

    dummy = make_dummy(budget, p, q)
    all_rows = list(instances) + [dummy]
    t1 = len(all_rows)
    cyc = [dummy.eta[j] for j in range(budget)]  # its classes lie along the cycle
    point_col = {pt: j + 1 for j, pt in enumerate(cyc)}

    # global ids: each row's vertices (1..n, as validated) and adjacency
    # rows follow the rows above; stage 1 is each row's witness, shifted
    provenance: Dict[int, Tuple[int, int]] = {}
    cells: List[Dict[int, Set[int]]] = []  # per row: column -> global ids
    adj: Dict[int, Set[int]] = {}
    pairs: List[Tuple[int, int]] = []
    n_h = 0
    for i, inst in enumerate(all_rows):
        adj.update((n_h + v, {n_h + w for w in near}) for v, near in inst.graph.adj.items())
        pairs += [(n_h + a, n_h + b) for a, b in inst.witness.merges()]
        row_cells: Dict[int, Set[int]] = {}
        for j, part in enumerate(inst.parts):
            col = point_col[inst.eta[j]]
            row_cells[col] = {n_h + v for v in part}
            for v in part:
                provenance[n_h + v] = (i + 1, col)
        cells.append(row_cells)
        n_h += inst.graph.n
    for i, row_cells in enumerate(cells):  # cell (i, col) joins deeper cells at col + 1
        for col, cell in row_cells.items():
            for deeper in cells[i + 1:]:
                link = deeper[col % budget + 1]
                for u in cell:
                    adj[u] |= link
                for v in link:
                    adj[v] |= cell
    h = Graph._of(adj)

    # stage 2: fold rows into the bottom grid in one fixed order, whose
    # degree audit is the same for every fold; a part's bag is labelled
    # by its smallest vertex, and row 0's labels name the folded bags
    nbrs = augmented_grid(p, q, cyc)
    order = stage2_order(nbrs)
    done: Set[Point] = set()
    for pt in order:
        contracted = len(nbrs[pt] & done)
        pending = len(nbrs[pt]) - contracted
        if contracted + 2 * pending > 4:
            raise InternalError("degree audit failed at %r: C=%d P=%d"
                                % (pt, contracted, pending))
        done.add(pt)
    label = {col: min(cell) for col, cell in cells[0].items()}
    fold = [point_col[pt] for pt in order]
    for deeper in cells[1:]:
        pairs += [(label[col], min(deeper[col])) for col in fold]

    # stage 3: the single remaining grid collapses like a red grid; on
    # the quotient relabelled by the bags' labels, its merges continue
    # those of stages 1 and 2
    partial = ContractionSequence.from_merges(n_h, pairs)
    owner = partial.owners()
    t_fin = quotient_by(final_trigraph(h, partial), {owner[l]: l for l in label.values()})
    embedding = {label[col]: pt for pt, col in point_col.items()}
    pairs += grid_subdivision_collapse(t_fin, embedding)
    witness = ContractionSequence.from_merges(n_h, pairs)
    if not witness.is_full:
        raise InternalError("composed witness is not a full sequence")
    return ComposedInstance(h, budget, t1, witness, provenance)
