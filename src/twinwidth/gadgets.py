"""Structured generators: snaking grids, half-graph cycles, grid
collapses, and the 3-SAT to Dominating Set reduction.

The snaking grid on coarse dimensions s x t lives on the fine
(3(s-1)+1) x (3(t-1)+1) grid, row 1 at the bottom.  Its edge pattern
is a single snake (a subdivided wall) threading every third column,
leaving the remaining fine points isolated:

  * row 1 carries every horizontal edge,
  * columns congruent to 1 mod 3 carry every vertical edge,
  * rows congruent to 1 mod 3 (from row 4 up) pair columns (c, c+1)
    for odd c, rows congruent to 0 mod 3 for even c,
  * rows r and r+1 with r congruent to 0 mod 3 are joined vertically
    in the remaining columns.

_snake writes this pattern, and nothing else does: the grid graph,
its augmentation and instance validation all read it.  The 3-SAT
reduction places one gadget per fine point of such a grid: variable
wires follow the snake's edges along clause rows, each clause links to
its snake neighbours, every unoccupied point gets an isolated dummy
vertex, and the whole graph contracts part by part to the grid quotient
with red degree at most 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .trigraph import Graph, InternalError, Trigraph, quotient
from .sequence import ContractionSequence, verify

Point = Tuple[int, int]


# ---------------------------------------------------------------------------
# snaking grid

@dataclass(frozen=True)
class SnakingGrid:
    s: int
    t: int
    fine_rows: int
    fine_cols: int
    graph: Graph
    vertex_at: Dict[Point, int]


def fine_dims(s: int, t: int) -> Tuple[int, int]:
    return 3 * (s - 1) + 1, 3 * (t - 1) + 1


def _link(adj: Dict[Point, Set[Point]], a: Point, b: Point) -> None:
    adj[a].add(b)
    adj[b].add(a)


def _snake(rows: int, cols: int) -> Dict[Point, Set[Point]]:
    """Each point of the fine rows x cols grid, in row-major order, with
    its neighbours on the snake: the one place its edges are written."""
    snake: Dict[Point, Set[Point]] = {(r, c): set() for r in range(1, rows + 1)
                                      for c in range(1, cols + 1)}
    edges = [((1, c), (1, c + 1)) for c in range(1, cols)]
    edges += [((r, c), (r + 1, c)) for c in range(1, cols + 1, 3) for r in range(1, rows)]
    edges += [((r, c), (r, c + 1)) for r in range(4, rows + 1, 3) for c in range(1, cols, 2)]
    edges += [((r, c), (r, c + 1)) for r in range(3, rows + 1, 3) for c in range(2, cols, 2)]
    edges += [((r, c), (r + 1, c)) for r in range(3, rows, 3)
              for c in range(1, cols + 1) if c % 3 != 1]
    for a, b in edges:
        _link(snake, a, b)
    return snake


def _numbered(nbrs: Dict[Point, Set[Point]]) -> Tuple[Graph, Dict[Point, int]]:
    """nbrs as a graph on the ids 1, 2, ... of its points in order, and each point's id."""
    vid = {pt: v for v, pt in enumerate(nbrs, start=1)}
    return Graph._of({vid[a]: {vid[b] for b in near} for a, near in nbrs.items()}), vid


def snaking_grid(s: int, t: int) -> SnakingGrid:
    """The snaking grid; s = 1 degenerates to a single full row."""
    if s < 1 or t < 2:
        raise ValueError("snaking grid needs s >= 1 and t >= 2")
    rows, cols = fine_dims(s, t)
    return SnakingGrid(s, t, rows, cols, *_numbered(_snake(rows, cols)))


def hamiltonian_cycle(p: int, q: int) -> List[Point]:
    """Fine-grid points in the order of the comb-shaped hamiltonian cycle.

    The order has a closed form: the bottom row from left to right, then
    every column from the right, alternately up and down through rows
    2..rows, ending at (2, 1) next to the start.  The cycle closes only
    for even q (the fine column count is then even).  Together with the
    snaking grid it forms the augmented grid with maximum degree 3.
    """
    if p < 2 or q < 2:
        raise ValueError("hamiltonian cycle needs p, q >= 2")
    if q % 2:
        raise ValueError("hamiltonian cycle needs q even")
    rows, cols = fine_dims(p, q)
    order = [(1, c) for c in range(1, cols + 1)]
    for c in range(cols, 0, -1):
        climb = range(2, rows + 1) if (cols - c) % 2 == 0 else range(rows, 1, -1)
        order += [(r, c) for r in climb]
    if len(set(order)) != rows * cols or any(
            abs(r1 - r2) + abs(c1 - c2) != 1
            for (r1, c1), (r2, c2) in zip(order, order[1:] + order[:1])):
        raise InternalError("cycle does not close")
    return order


def augmented_grid(p: int, q: int, cyc: List[Point]) -> Dict[Point, Set[Point]]:
    """Each fine point, in row-major order, with its neighbours in the
    augmented grid: the snake plus cyc, hamiltonian_cycle(p, q)."""
    nbrs = _snake(*fine_dims(p, q))
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        _link(nbrs, a, b)
    return nbrs


def augmented_snaking_grid(p: int, q: int) -> Graph:
    """The augmented grid as a graph on the snaking grid's vertex ids."""
    return _numbered(augmented_grid(p, q, hamiltonian_cycle(p, q)))[0]


# ---------------------------------------------------------------------------
# cycles of strict half-graphs

def halfgraph_cycle(layers: int, height: int) -> Tuple[Graph, ContractionSequence]:
    """Cyclically stacked strict half-graphs and their 3-sequence.

    Layer p (0-based) holds vertices at heights 1..height; a vertex at
    height i is adjacent to the next layer's vertices at heights j > i.
    The witness repeatedly contracts the two lowest vertices of every
    layer, shrinking the height by one per sweep, and finally folds the
    remaining all-red cycle.
    """
    if layers < 3 or height < 1:
        raise ValueError("need at least 3 layers and height 1")
    n = layers * height

    def vid(p, i):
        return p * height + i

    edges = []
    for p in range(layers):
        np_ = (p + 1) % layers
        for i in range(1, height + 1):
            for j in range(i + 1, height + 1):
                edges.append((vid(p, i), vid(np_, j)))
    g = Graph(range(1, n + 1), edges)

    # each layer's bag is labelled by its lowest vertex, vid(p, 1)
    sweeps = [(vid(p, 1), vid(p, i))
              for i in range(2, height + 1) for p in range(layers)]
    ring = [(vid(0, 1), vid(p, 1)) for p in range(1, layers)]
    return g, ContractionSequence.from_merges(n, sweeps + ring)


# ---------------------------------------------------------------------------
# collapsing grid subdivisions

def grid_subdivision_collapse(t: Trigraph, embedding: Dict[int, Point]) -> List[Tuple[int, int]]:
    """Label merges of a width-4 sequence for a trigraph drawn in a grid.

    embedding sends each vertex to a distinct fine-grid cell such that
    every (black or red) edge joins neighboring cells.  The merges
    mimic the full red grid's collapse, merging columns left to right
    (top to bottom within a column) and finishing down the last
    column; steps touching empty cells are simply skipped, and a
    sub-trigraph of the red grid can only do better.

    Each cell holds the label of its bag, the smallest vertex of t
    merged into it, and each merge (a, b) names two bags by their
    labels, as ContractionSequence.from_merges reads them: on a
    trigraph whose vertices are 1..n, from_merges(n, merges) is the
    sequence itself.
    """
    if set(embedding) != t.vertices:
        raise ValueError("embedding must cover exactly the vertices")
    occupied: Dict[Point, int] = {}
    for v, cell in embedding.items():
        if cell in occupied:
            raise ValueError("embedding maps two vertices to one cell")
        if cell[0] < 1 or cell[1] < 1:
            raise ValueError("cells are 1-based")
        occupied[cell] = v
    cells = embedding
    for x in t.vertices:
        for y in t.black[x] | t.red[x]:
            (r1, c1), (r2, c2) = cells[x], cells[y]
            if abs(r1 - r2) + abs(c1 - c2) != 1:
                raise ValueError("edge (%d, %d) is not grid-adjacent" % (x, y))

    rows = max((r for r, _ in occupied), default=1)
    cols = max((c for _, c in occupied), default=1)

    pairs = []

    def merge(src: Point, dst: Point) -> None:
        a = occupied.pop(src, None)
        if a is None:
            return
        b = occupied.get(dst)
        if b is None:
            occupied[dst] = a
            return
        pairs.append((a, b))
        occupied[dst] = min(a, b)

    for c in range(1, cols):
        for r in range(rows, 0, -1):
            merge((r, c), (r, c + 1))
    for r in range(rows, 1, -1):
        merge((r, cols), (r - 1, cols))
    return pairs


# ---------------------------------------------------------------------------
# annotated instances (reduction output, composition input)

@dataclass(frozen=True)
class AnnotatedInstance:
    """A graph with a partition that contracts cleanly onto a snaking grid.

    eta maps each part index (0-based) to the fine-grid point its
    contraction occupies; the witness is the partial 4-sequence ending
    exactly in the part partition.
    """

    graph: Graph
    parts: Tuple[FrozenSet[int], ...]
    p: int
    q: int
    eta: Dict[int, Point]
    witness: ContractionSequence

    @property
    def part_count(self) -> int:
        return len(self.parts)


def validate_instance(inst: AnnotatedInstance) -> None:
    """Raise unless the instance satisfies all composition preconditions."""
    quot = quotient(inst.graph, list(inst.parts))  # validates the partition first
    if inst.q % 2:
        raise ValueError("instance dimensions must have q even")
    if inst.p < 2:
        raise ValueError("instance dimensions must have p >= 2")
    if inst.q < 2:
        raise ValueError("instance dimensions must have q >= 2")
    rows, cols = fine_dims(inst.p, inst.q)
    points = set(inst.eta.values())
    # the file's dims may name a huge grid: count before building it
    if rows * cols != len(inst.parts) or set(inst.eta) != set(range(len(inst.parts))) \
            or len(points) != len(inst.eta) or points != set(snake := _snake(rows, cols)):
        raise ValueError("eta must map the parts onto the fine grid points bijectively")
    for a, black in quot.black.items():
        if not {inst.eta[b - 1] for b in black | quot.red[a]} <= snake[inst.eta[a - 1]]:
            raise ValueError("quotient is not a subgraph of the snaking grid")
    rep = verify(inst.graph, inst.witness, bound=4)
    if not rep.ok:
        raise ValueError("witness exceeds red degree 4 at step %d" % rep.violation[0])
    # parts and bags both partition V, so they are equal when each part
    # has one owner and there are as many owners as parts
    owner = inst.witness.owners()
    if len(set(owner.values())) != len(inst.parts) \
            or any(len({owner[v] for v in part}) != 1 for part in inst.parts):
        raise ValueError("witness does not end at the declared partition")
    for part in inst.parts:
        if not any(inst.graph.adj[v] <= part for v in part):
            raise ValueError("a part lacks a vertex confined to it")


# ---------------------------------------------------------------------------
# formulas with a planar wire layout

@dataclass(frozen=True)
class LayoutClause:
    sign: str  # "+" or "-"
    rank: int
    literals: Tuple[int, int, int]  # negative value = negated variable

    @property
    def variables(self) -> Tuple[int, int, int]:
        return tuple(abs(l) for l in self.literals)


@dataclass(frozen=True)
class LayoutFormula:
    """3-SAT instance with variables in a fixed cyclic order.

    Clauses come split into an upper (+) and lower (-) family, each
    with removal ranks: processing a family by rank must only ever
    remove a clause whose outer variables enclose no live variable
    besides its middle, retiring the middle with it.
    """

    n: int
    clauses: Tuple[LayoutClause, ...]

    def __init__(self, n: int, clauses: Iterable[LayoutClause]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "clauses", tuple(clauses))
        self._validate()

    def _validate(self) -> None:
        if self.n < 1:
            raise ValueError("formula needs at least one variable")
        for cl in self.clauses:
            if cl.sign not in ("+", "-"):
                raise ValueError("clause sign must be + or -")
            vs = cl.variables
            if sorted(set(vs)) != list(vs):
                raise ValueError("clause literals must be over distinct increasing variables")
            if vs[0] < 1 or vs[-1] > self.n:
                raise ValueError("clause variable out of range")
        for sign in "+-":
            family = [cl for cl in self.clauses if cl.sign == sign]
            ranks = sorted(cl.rank for cl in family)
            if ranks != list(range(1, len(family) + 1)):
                raise ValueError("ranks of the %s family must be 1..%d" % (sign, len(family)))
            self._check_removal(family)

    def _check_removal(self, family: List[LayoutClause]) -> None:
        """Raise unless the family can be removed by rank.

        The live variables are those that this clause or a later one
        uses, so a clause's blockers are the live variables strictly
        between its outer ones but its middle; after each clause, the
        variables it used last leave.  nxt over 0..n+1 holds w while w
        is live and otherwise a step towards the least live variable
        above w (n + 1 stays live), and find halves the path it walks,
        so the check is near-linear in n and the clause count.
        """
        family = sorted(family, key=lambda cl: cl.rank)
        last = {w: idx for idx, cl in enumerate(family) for w in cl.variables}
        nxt = [w if w in last or w > self.n else w + 1 for w in range(self.n + 2)]

        def find(w: int) -> int:
            while nxt[w] != w:
                nxt[w] = nxt[nxt[w]]
                w = nxt[w]
            return w

        for idx, cl in enumerate(family):
            lo, mid, hi = cl.variables
            w = find(lo + 1)
            if w == mid:  # mid is live: the least blocker is the next one
                w = find(mid + 1)
            if w < hi:
                raise ValueError(
                    "variable %d blocks removal of the rank-%d %s clause"
                    % (w, cl.rank, cl.sign))
            if last[mid] > idx:
                raise ValueError(
                    "middle variable %d reused after rank %d" % (mid, cl.rank))
            for w in cl.variables:
                if last[w] == idx:
                    nxt[w] = w + 1

    def signed(self, sign: str) -> List[LayoutClause]:
        return sorted((cl for cl in self.clauses if cl.sign == sign),
                      key=lambda cl: cl.rank)


# ---------------------------------------------------------------------------
# the reduction

_MEMBERS = {"initial": ("top", "bot", "d"),
            "regular": ("top", "bot", "d", "t", "f"),
            "clause": ("c", "z"),
            "dummy": ("z",)}


@dataclass
class PlacedGadget:
    kind: str
    variable: Optional[int] = None
    parent: Optional[Point] = None
    children: int = 0
    members: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ReducedFormula:
    instance: AnnotatedInstance
    gadgets: Dict[Point, PlacedGadget]
    formula: LayoutFormula
    variable_row: int


def column_of(variable: int) -> int:
    return 3 * (variable - 1) + 1


def _wire_edges(mem: Dict[str, int], parent: Optional[Dict[str, int]]) -> List[Tuple[int, int]]:
    """A wire gadget's edges: the triangle top, bot, d and, below a
    parent, the pendants t, f crossed to the parent's bot and top."""
    edges = [(mem["top"], mem["bot"]), (mem["top"], mem["d"]), (mem["bot"], mem["d"])]
    if parent is not None:
        edges += [(mem["top"], mem["t"]), (mem["bot"], mem["f"]),
                  (parent["top"], mem["f"]), (parent["bot"], mem["t"])]
    return edges


def reduce_3sat(f: LayoutFormula) -> ReducedFormula:
    """Build the Dominating Set instance with its grid annotation.

    One gadget per fine point of the (m+1) x n' snaking grid (n' the
    variable count padded to even): initial triangles on the variable
    row, bull-shaped wire gadgets snaking out to the clause positions,
    a two-vertex gadget per clause, isolated dummies elsewhere.  One
    snake walk, lay, grows every wire: a trunk straight along its
    variable's column, then a branch through the clause's two rows to
    the clause's snake neighbour.  Every wire step and clause link is
    an edge of the snake.  The witness contracts parts to single
    vertices with red degree at most 4.

    The two "wire collision" raises fire only on formulas that skipped
    LayoutFormula's validation (a reused middle, a repeated rank; the
    tests build both).  The "clause link ... is off the wire" check
    cannot fire at all while lay keeps its contract: every lay ends at
    its target on v's wire or raises, and each link is such a target
    (the middle trunk's tip is mid_link), so the check only guards
    later edits of lay.
    """
    n_pad = f.n if f.n % 2 == 0 else f.n + 1
    minus = f.signed("-")
    plus = f.signed("+")
    m = len(plus) + len(minus)
    snake = _snake(*fine_dims(m + 1, n_pad))
    vrow = 3 * len(minus) + 1

    occ: Dict[Point, PlacedGadget] = {}

    def place(pt: Point, kind: str, variable=None, parent=None) -> PlacedGadget:
        if pt not in snake:
            raise ValueError("gadget placed outside the grid at %r" % (pt,))
        if pt in occ:
            raise ValueError("wire collision at %r" % (pt,))
        gadget = PlacedGadget(kind, variable, parent)
        occ[pt] = gadget
        if parent is not None:
            occ[parent].children += 1
        return gadget

    for v in range(1, n_pad + 1):
        place((vrow, column_of(v)), "initial", v)

    def lay(v: int, start: Point, target: Point, band: Sequence[int]) -> None:
        """Lay v's wire from start, a point on it, to target along the
        snake's shortest path through rows band[0]..band[1]."""
        # breadth first from the target, stopping at start: each point
        # reached maps to its next step towards the target
        ahead = {target: target}
        queue = [target]
        for pt in queue:
            if pt == start:
                break
            for nb in snake[pt]:
                if nb not in ahead and band[0] <= nb[0] <= band[1]:
                    ahead[nb] = pt
                    queue.append(nb)
        pt = start
        while pt != target:
            parent, pt = pt, ahead[pt]
            if pt not in occ:
                place(pt, "regular", v, parent=parent)
            elif occ[pt].variable != v:
                raise ValueError("wire collision at %r" % (pt,))

    # trunk tips per variable and side: +1 grows upward, -1 downward
    tips = {(v, d): (vrow, column_of(v)) for v in range(1, n_pad + 1) for d in (1, -1)}

    links: List[Tuple[Point, Point, int]] = []  # clause point, gadget point, literal

    for sign, family in (("+", plus), ("-", minus)):
        up = 1 if sign == "+" else -1
        for cl in family:
            nominal = vrow + 3 * cl.rank * up
            lo, mid, hi = cl.variables
            cm = column_of(mid)
            pc = (nominal - 1, cm) if sign == "+" else (nominal, cm)
            # the clause point's snake neighbours: the middle trunk's
            # end, and the outer links, left and right
            mid_link = (pc[0] - up, cm)
            lo_link, hi_link = sorted(snake[pc] - {mid_link}, key=lambda pt: pt[1])
            place(pc, "clause")
            # a trunk's column is the only shortest path inside its band
            for var, row in ((mid, mid_link[0]), (lo, nominal), (hi, nominal)):
                tip, tips[var, up] = tips[var, up], (row, column_of(var))
                lay(var, tip, tips[var, up], sorted((tip[0], row)))
            for var, link in ((lo, lo_link), (hi, hi_link)):
                lay(var, tips[var, up], link, (nominal - 1, nominal))
            for var, link, lit in zip(cl.variables, (lo_link, mid_link, hi_link), cl.literals):
                if occ[link].variable != var:
                    raise InternalError("clause link %r is off the wire of %d" % (link, var))
                links.append((pc, link, lit))

    for pt in snake:
        if pt not in occ:
            place(pt, "dummy")

    # vertex ids, parts, and eta in row-major point order
    edges: List[Tuple[int, int]] = []
    parts: List[FrozenSet[int]] = []
    eta: Dict[int, Point] = {}
    nxt_id = 1
    for pt in snake:
        gadget = occ[pt]
        for name in _MEMBERS[gadget.kind]:
            gadget.members[name] = nxt_id
            nxt_id += 1
        eta[len(parts)] = pt
        parts.append(frozenset(gadget.members.values()))
    for pt in snake:
        gadget = occ[pt]
        if gadget.kind in ("initial", "regular"):
            parent = None if gadget.parent is None else occ[gadget.parent].members
            edges += _wire_edges(gadget.members, parent)
    for pc, link, lit in links:
        end = occ[link].members["top" if lit > 0 else "bot"]
        edges.append((occ[pc].members["c"], end))

    g = Graph(range(1, nxt_id), edges)
    witness = _quotient_witness(g, occ, snake)
    inst = AnnotatedInstance(g, tuple(parts), m + 1, n_pad, eta, witness)
    return ReducedFormula(inst, occ, f, vrow)


def _quotient_witness(g: Graph, occ: Dict[Point, PlacedGadget],
                      order: Iterable[Point]) -> ContractionSequence:
    """Contract every part to one vertex, red degree at most 4.

    Wire gadgets linked to at most two other wire gadgets go first
    (top, d, t, bot, f in that order, one red edge internally); then
    initial triangles and clause pairs; junction gadgets last, when
    their three wire neighbors are single vertices already.
    """
    pairs: List[Tuple[int, int]] = []

    def fold(pt: Point, names: Sequence[str]) -> None:
        mem = occ[pt].members
        acc = mem[names[0]]
        for name in names[1:]:
            pairs.append((acc, mem[name]))
            acc = min(acc, mem[name])

    def wire_neighbors(pt: Point) -> int:
        gadget = occ[pt]
        return gadget.children + (0 if gadget.parent is None else 1)

    for pt in order:
        if occ[pt].kind == "regular" and wire_neighbors(pt) <= 2:
            fold(pt, ("top", "d", "t", "bot", "f"))
    for pt in order:
        if occ[pt].kind == "initial":
            fold(pt, ("top", "d", "bot"))
        elif occ[pt].kind == "clause":
            fold(pt, ("c", "z"))
    for pt in order:
        if occ[pt].kind == "regular" and wire_neighbors(pt) > 2:
            if wire_neighbors(pt) != 3:
                raise InternalError("wire gadget with too many neighbors")
            fold(pt, ("top", "d", "t", "bot", "f"))
    return ContractionSequence.from_merges(g.n, pairs)


def lift_assignment(red: ReducedFormula, assignment: Dict[int, bool]) -> Set[int]:
    """The dominating set induced by a truth assignment.

    Picks top of every gadget of a true variable's wire, bot for false
    ones (the padding variable defaults to true), and every isolated
    vertex.
    """
    picked = set()
    for gadget in red.gadgets.values():
        if gadget.kind in ("initial", "regular"):
            value = assignment.get(gadget.variable, True)
            picked.add(gadget.members["top" if value else "bot"])
        else:
            picked.add(gadget.members["z"])
    return picked


# ---------------------------------------------------------------------------
# bare wires

@dataclass(frozen=True)
class Wire:
    graph: Graph
    parts: Tuple[FrozenSet[int], ...]
    gadgets: Tuple[Dict[str, int], ...]


def variable_wire(parents: Sequence[Optional[int]]) -> Wire:
    """A single variable wire shaped by the parent list.

    parents[0] must be None (the root triangle); every later entry
    points at an earlier gadget, which propagates its truth value down
    the tree.
    """
    if not parents or parents[0] is not None:
        raise ValueError("first gadget is the root and has no parent")
    for i, par in enumerate(parents[1:], start=1):
        if par is None or not 0 <= par < i:
            raise ValueError("parent of gadget %d must come earlier" % i)
    gadgets: List[Dict[str, int]] = []
    edges = []
    nxt = 1
    for par in parents:
        names = _MEMBERS["initial" if par is None else "regular"]
        mem = {name: nxt + k for k, name in enumerate(names)}
        nxt += len(names)
        edges += _wire_edges(mem, None if par is None else gadgets[par])
        gadgets.append(mem)
    g = Graph(range(1, nxt), edges)
    parts = tuple(frozenset(mem.values()) for mem in gadgets)
    return Wire(g, parts, tuple(gadgets))