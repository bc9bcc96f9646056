"""The comb cycle as it was before it became a closed form, and the
removal check of a formula family as it was before it bisected.

Kept as the differential reference for twinwidth.gadgets.hamiltonian_cycle:
the cycle's edges are laid into a 2-regular adjacency map, which is then
walked from (1, 1), (1, 2), checking at every step that the walk can
only go one way and, at the end, that it closes.

Kept as the differential reference for LayoutFormula._check_removal:
check_removal scans every variable strictly between a clause's outer
ones against the clause and all later ones, O(m^2 * span) per family.
"""

from typing import Dict, List, Set

from twinwidth.gadgets import LayoutClause, Point, fine_dims


def _link(adj: Dict[Point, Set[Point]], a: Point, b: Point) -> None:
    adj[a].add(b)
    adj[b].add(a)


def hamiltonian_cycle(p: int, q: int) -> List[Point]:
    """Fine-grid points in the order of the comb-shaped hamiltonian cycle."""
    if p < 2 or q < 2:
        raise ValueError("hamiltonian cycle needs p, q >= 2")
    if q % 2:
        raise ValueError("hamiltonian cycle needs q even")
    rows, cols = fine_dims(p, q)
    adj: Dict[Point, Set[Point]] = {(r, c): set()
                                    for r in range(1, rows + 1)
                                    for c in range(1, cols + 1)}
    for c in range(1, cols):
        _link(adj, (1, c), (1, c + 1))
    for c in (1, cols):
        _link(adj, (1, c), (2, c))
    for r in range(2, rows):
        for c in range(1, cols + 1):
            _link(adj, (r, c), (r + 1, c))
    for c in range(1, cols, 2):
        _link(adj, (rows, c), (rows, c + 1))
    for c in range(2, cols - 1, 2):
        _link(adj, (2, c), (2, c + 1))

    if any(len(nb) != 2 for nb in adj.values()):
        raise AssertionError("cycle edges are not 2-regular")
    order = [(1, 1), (1, 2)]
    while len(order) < rows * cols:
        nxt = sorted(adj[order[-1]] - {order[-2]})
        if len(nxt) != 1:
            raise AssertionError("cycle is not hamiltonian")
        order.append(nxt[0])
    if order[0] not in adj[order[-1]]:
        raise AssertionError("cycle does not close")
    return order


def check_removal(family: List[LayoutClause]) -> None:
    """Raise unless the family can be removed by rank."""
    family = sorted(family, key=lambda cl: cl.rank)
    for idx, cl in enumerate(family):
        lo, mid, hi = cl.variables
        later = family[idx + 1:]
        for w in range(lo + 1, hi):
            if w == mid:
                continue
            if any(w in other.variables for other in [cl] + later):
                raise ValueError(
                    "variable %d blocks removal of the rank-%d %s clause"
                    % (w, cl.rank, cl.sign))
        if any(mid in other.variables for other in later):
            raise ValueError(
                "middle variable %d reused after rank %d" % (mid, cl.rank))
