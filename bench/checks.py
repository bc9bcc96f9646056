"""Independent output checks, written from the definitions.

Nothing here calls the library: the benchmark must be able to tell a
wrong answer from a right one even when the code under test is wrong.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

Edge = Tuple[int, int]
Step = Tuple[int, int, int]


class CheckFailed(Exception):
    """An output disagreed with its reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# file formats (graph, sequence) parsed without the library's parser

def _records(text: str, header: str) -> Tuple[int, List[list]]:
    rows = []
    n = None
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if n is None:
            require(tokens[0] == header and len(tokens) == 2, "bad %s header" % header)
            n = int(tokens[1])
        else:
            rows.append([tokens[0]] + [int(x) for x in tokens[1:]])
    require(n is not None, "empty %s file" % header)
    return n, rows


def read_graph(text: str) -> Tuple[int, List[Edge]]:
    n, rows = _records(text, "graph")
    require(all(r[0] == "edge" and len(r) == 3 for r in rows), "graph file has a non-edge line")
    return n, [(r[1], r[2]) for r in rows]


def read_sequence(text: str) -> Tuple[int, List[Step]]:
    n, rows = _records(text, "seq")
    require(all(r[0] == "contract" and len(r) == 4 for r in rows), "sequence file has a non-step line")
    return n, [(r[1], r[2], r[3]) for r in rows]


# ---------------------------------------------------------------------------
# width of a contraction sequence, from the definition

def sequence_width(n: int, edges: Sequence[Edge], steps: Sequence[Step]) -> int:
    """Maximum red degree over the replay of a full sequence.

    Parts are tracked by the number of original edges running between
    them: a pair of parts is red exactly when that count is neither 0
    nor the product of their sizes.  This is the definition of the
    quotient trigraph and shares no code with the library's recolouring
    rule.
    """
    require(len(steps) == n - 1, "sequence has %d steps for %d vertices" % (len(steps), n))
    size = {v: 1 for v in range(1, n + 1)}
    links: Dict[int, Dict[int, int]] = {v: {} for v in range(1, n + 1)}
    for u, v in edges:
        require(1 <= u <= n and 1 <= v <= n and u != v, "bad edge %d-%d" % (u, v))
        require(v not in links[u], "duplicate edge %d-%d" % (u, v))
        links[u][v] = 1
        links[v][u] = 1
    red_deg = {v: 0 for v in range(1, n + 1)}
    width = 0

    def is_red(a: int, b: int, count: int) -> bool:
        return 0 < count < size[a] * size[b]

    for i, (z, u, v) in enumerate(steps):
        require(z == n + i + 1, "step %d creates %d" % (i, z))
        require(u != v and u in size and v in size, "step %d contracts dead vertices" % i)
        merged: Dict[int, int] = {}
        for x in (u, v):
            for y, count in links[x].items():
                if y in (u, v):
                    continue
                if is_red(x, y, count):
                    red_deg[y] -= 1
                merged[y] = merged.get(y, 0) + count
                del links[y][x]
        size[z] = size.pop(u) + size.pop(v)
        del links[u], links[v], red_deg[u], red_deg[v]
        links[z] = merged
        red_deg[z] = 0
        for y, count in merged.items():
            links[y][z] = count
            if is_red(z, y, count):
                red_deg[z] += 1
                red_deg[y] += 1
                width = max(width, red_deg[y])
        width = max(width, red_deg[z])
    return width


# ---------------------------------------------------------------------------
# small exact references

def is_cograph(n: int, edges: Sequence[Edge]) -> bool:
    """Twin-width 0: the graph collapses to one vertex through twins."""
    adj: Dict[int, Set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    alive = set(adj)
    while len(alive) > 1:
        groups: Dict[frozenset, int] = {}
        twin = None
        for x in sorted(alive):
            for key in (frozenset(adj[x]), frozenset(adj[x] | {x})):
                if key in groups:
                    twin = x
                    break
                groups[key] = x
            if twin is not None:
                break
        if twin is None:
            return False
        alive.remove(twin)
        for y in adj.pop(twin):
            adj[y].discard(twin)
    return True


def min_vertex_cover(n: int, edges: Sequence[Edge]) -> int:
    """Branch on a highest-degree vertex: take it, or all its neighbours."""
    adj: Dict[int, Set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    best = [n]

    def solve(graph: Dict[int, Set[int]], taken: int) -> None:
        if taken >= best[0]:
            return
        v = max(graph, key=lambda x: (len(graph[x]), x), default=None)
        if v is None or not graph[v]:
            best[0] = taken
            return
        for cover in ({v}, set(graph[v])):
            rest = {x: nb - cover for x, nb in graph.items() if x not in cover}
            solve(rest, taken + len(cover))

    solve({x: set(nb) for x, nb in adj.items() if nb}, 0)
    return best[0]


def parse_result_line(text: str, keys: Sequence[str]) -> Optional[Dict[str, str]]:
    """Read 'k1 v1 k2 v2 ...' from the single stdout line of a command."""
    tokens = text.split()
    if len(tokens) != 2 * len(keys) or tokens[0::2] != list(keys):
        return None
    return dict(zip(tokens[0::2], tokens[1::2]))
