"""Plain-text file formats for graphs, sequences, formulas, instances.

Every format is line-oriented with '#' comments, 1-based vertex ids,
and a deterministic writer: write followed by parse is the identity,
and equal values serialize to equal bytes.  Parsers raise ParseError
with the offending line number.  A header may declare at most
MAX_HEADER (100000) vertices or variables: every vertex is built
before any edge is read, so the limit keeps a one-line file from
exhausting memory; the writers refuse a header above it too.  It is
separate from the oracles' TWW_SIZE_CAP.

    graph file      graph <n> / edge <u> <v> / cap <v> <c>
    sequence file   seq <n> / contract <z> <u> <v>
    formula file    formula <n> / clause <+|-> <rank> <l1> <l2> <l3>
    instance file   graph section, dims <p> <q>, part <j> <v...>,
                    eta <j> <row> <col>, then a sequence section
"""

from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from .trigraph import Graph
from .sequence import ContractionSequence
from .gadgets import AnnotatedInstance, LayoutClause, LayoutFormula


MAX_HEADER = 100000


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no


def _lines(text: str) -> Iterator[Tuple[int, List[str]]]:
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield no, body.split()


def _ints(no: int, tokens: List[str], what: str) -> List[int]:
    """The tokens as integers, each spelled as the writers spell one:
    ASCII digits after an optional '-'.  int() takes that and, beyond
    it, only non-ASCII digits, underscores and a '+', refused first."""
    spelled = "".join(tokens)
    if spelled.isascii() and "_" not in spelled and "+" not in spelled:
        try:
            return [int(tok) for tok in tokens]
        except ValueError:
            pass
    raise ParseError(no, "%s wants integers, got %r" % (what, " ".join(tokens)))


def _header(no: int, tokens: List[str], keyword: str) -> int:
    if len(tokens) != 2 or tokens[0] != keyword:
        raise ParseError(no, "expected header '%s <n>'" % keyword)
    (n,) = _ints(no, tokens[1:], keyword)
    if n < 1:
        raise ParseError(no, "%s needs at least one vertex" % keyword)
    if n > MAX_HEADER:
        raise ParseError(no, "%s %d exceeds the header limit %d" % (keyword, n, MAX_HEADER))
    return n


def _header_line(keyword: str, n: int) -> str:
    if n > MAX_HEADER:  # the file would not read back
        raise ValueError("%s %d exceeds the header limit %d" % (keyword, n, MAX_HEADER))
    return "%s %d" % (keyword, n)


def _endpoints(no: int, tokens: List[str], n: int, what: str) -> Tuple[int, int]:
    if len(tokens) != 2:
        raise ParseError(no, "%s wants two vertices" % what)
    u, v = _ints(no, tokens, what)
    if not (1 <= u <= n and 1 <= v <= n):
        raise ParseError(no, "%s %d-%d out of range 1..%d" % (what, u, v, n))
    if u == v:
        raise ParseError(no, "self-loop at vertex %d" % u)
    return (u, v) if u < v else (v, u)


def _edge(no: int, tokens: List[str], n: int, edges: Dict[Tuple[int, int], None]) -> None:
    """Add one edge line's edge to edges, a set that keeps file order."""
    e = _endpoints(no, tokens[1:], n, "edge")
    if e in edges:
        raise ParseError(no, "duplicate edge %d-%d" % e)
    edges[e] = None


def _contract(no: int, tokens: List[str], n: int, steps: List[Tuple[int, int, int]]) -> None:
    if len(tokens) != 4:
        raise ParseError(no, "contract wants three vertices")
    z, u, v = _ints(no, tokens[1:], "contract")
    expect = n + len(steps) + 1
    if z != expect:
        raise ParseError(no, "contract creates %d, expected fresh id %d" % (z, expect))
    steps.append((z, u, v))


# ---------------------------------------------------------------------------
# graphs

def parse_graph(text: str) -> Tuple[Graph, Dict[int, int]]:
    """Graph plus capacity map (empty when no cap lines are present)."""
    n = None
    edges: Dict[Tuple[int, int], None] = {}
    caps: Dict[int, int] = {}
    for no, tokens in _lines(text):
        if n is None:
            n = _header(no, tokens, "graph")
        elif tokens[0] == "edge":
            _edge(no, tokens, n, edges)
        elif tokens[0] == "cap":
            if len(tokens) != 3:
                raise ParseError(no, "cap wants a vertex and a capacity")
            v, c = _ints(no, tokens[1:], "cap")
            if not 1 <= v <= n:
                raise ParseError(no, "cap vertex %d out of range 1..%d" % (v, n))
            if v in caps:
                raise ParseError(no, "duplicate capacity for vertex %d" % v)
            caps[v] = c
        else:
            raise ParseError(no, "unknown directive %r in graph file" % tokens[0])
    if n is None:
        raise ParseError(0, "empty graph file")
    return Graph(range(1, n + 1), edges), caps


def write_graph(g: Graph, caps: Optional[Dict[int, int]] = None) -> str:
    _require_compact(g.vertices)
    out = [_header_line("graph", g.n)]
    out += ["edge %d %d" % e for e in g.edges()]
    if caps:
        out += ["cap %d %d" % (v, caps[v]) for v in sorted(caps)]
    return "\n".join(out) + "\n"


def _require_compact(vertices) -> None:
    if set(vertices) != set(range(1, len(vertices) + 1)):
        raise ValueError("serialization needs vertex ids 1..n")


# ---------------------------------------------------------------------------
# contraction sequences

def parse_sequence(text: str) -> ContractionSequence:
    n = None
    steps: List[Tuple[int, int, int]] = []
    for no, tokens in _lines(text):
        if n is None:
            n = _header(no, tokens, "seq")
        elif tokens[0] == "contract":
            _contract(no, tokens, n, steps)
        else:
            raise ParseError(no, "unknown directive %r in sequence file" % tokens[0])
    if n is None:
        raise ParseError(0, "empty sequence file")
    return ContractionSequence(n, steps)


def write_sequence(s: ContractionSequence) -> str:
    out = [_header_line("seq", s.n)]
    out += ["contract %d %d %d" % step for step in s.steps]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# layout formulas

def parse_formula(text: str) -> LayoutFormula:
    n = None
    clauses: List[LayoutClause] = []
    for no, tokens in _lines(text):
        if n is None:
            n = _header(no, tokens, "formula")
        elif tokens[0] == "clause":
            if len(tokens) != 6 or tokens[1] not in ("+", "-"):
                raise ParseError(no, "clause wants a sign, a rank and three literals")
            rank, l1, l2, l3 = _ints(no, tokens[2:], "clause")
            if rank < 1:
                raise ParseError(no, "clause rank must be positive")
            if 0 in (l1, l2, l3):
                raise ParseError(no, "literal 0 is not a variable")
            clauses.append(LayoutClause(tokens[1], rank, (l1, l2, l3)))
        else:
            raise ParseError(no, "unknown directive %r in formula file" % tokens[0])
    if n is None:
        raise ParseError(0, "empty formula file")
    return LayoutFormula(n, clauses)


def write_formula(f: LayoutFormula) -> str:
    out = [_header_line("formula", f.n)]
    out += ["clause %s %d %d %d %d" % ((cl.sign, cl.rank) + cl.literals)
            for cl in f.clauses]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# annotated instances

def parse_instance(text: str) -> AnnotatedInstance:
    """Structural parse; semantic checks live in validate_instance."""
    n = None
    edges: Dict[Tuple[int, int], None] = {}
    dims: Optional[Tuple[int, int]] = None
    parts: Dict[int, FrozenSet[int]] = {}
    eta: Dict[int, Tuple[int, int]] = {}
    owner: Dict[int, int] = {}
    seq_n = None
    steps: List[Tuple[int, int, int]] = []
    for no, tokens in _lines(text):
        if n is None:
            n = _header(no, tokens, "graph")
        elif tokens[0] == "edge":
            _edge(no, tokens, n, edges)
        elif tokens[0] == "dims":
            if dims is not None:
                raise ParseError(no, "duplicate dims line")
            if len(tokens) != 3:
                raise ParseError(no, "dims wants two grid dimensions")
            p, q = _ints(no, tokens[1:], "dims")
            dims = (p, q)
        elif tokens[0] == "part":
            vals = _ints(no, tokens[1:], "part")
            if len(vals) < 2:
                raise ParseError(no, "part wants an index and at least one vertex")
            j, members = vals[0], vals[1:]
            if j < 1 or j in parts:
                raise ParseError(no, "bad or duplicate part index %d" % j)
            for v in members:
                if not 1 <= v <= n:
                    raise ParseError(no, "part vertex %d out of range 1..%d" % (v, n))
                if v in owner:
                    raise ParseError(no, "vertex %d already in part %d" % (v, owner[v]))
                owner[v] = j
            parts[j] = frozenset(members)
        elif tokens[0] == "eta":
            if len(tokens) != 4:
                raise ParseError(no, "eta wants a part index and a grid point")
            j, row, col = _ints(no, tokens[1:], "eta")
            if j in eta:
                raise ParseError(no, "duplicate eta for part %d" % j)
            eta[j] = (row, col)
        elif seq_n is None and tokens[0] == "seq":
            seq_n = _header(no, tokens, "seq")
            if seq_n != n:
                raise ParseError(no, "witness is over %d vertices, graph has %d" % (seq_n, n))
        elif tokens[0] == "contract":
            if seq_n is None:
                raise ParseError(no, "contract before the seq header")
            _contract(no, tokens, seq_n, steps)
        else:
            raise ParseError(no, "unknown directive %r in instance file" % tokens[0])
    if n is None:
        raise ParseError(0, "empty instance file")
    if dims is None:
        raise ParseError(0, "instance file missing dims")
    if seq_n is None:
        raise ParseError(0, "instance file missing the witness sequence")
    count = len(parts)
    if sorted(parts) != list(range(1, count + 1)):
        raise ParseError(0, "part indices must be 1..%d" % count)
    if len(owner) != n:
        missing = min(set(range(1, n + 1)) - set(owner))
        raise ParseError(0, "vertex %d belongs to no part" % missing)
    if sorted(eta) != sorted(parts):
        raise ParseError(0, "eta must cover exactly the part indices")
    return AnnotatedInstance(
        graph=Graph(range(1, n + 1), edges),
        parts=tuple(parts[j] for j in range(1, count + 1)),
        p=dims[0],
        q=dims[1],
        eta={j - 1: eta[j] for j in sorted(eta)},
        witness=ContractionSequence(n, steps),
    )


def write_instance(inst: AnnotatedInstance) -> str:
    out = [write_graph(inst.graph).rstrip("\n")]
    out.append("dims %d %d" % (inst.p, inst.q))
    for j, part in enumerate(inst.parts, start=1):
        out.append("part %d %s" % (j, " ".join(map(str, sorted(part)))))
    for j in range(1, len(inst.parts) + 1):
        out.append("eta %d %d %d" % ((j,) + tuple(inst.eta[j - 1])))
    out.append(write_sequence(inst.witness).rstrip("\n"))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# provenance tags for composed instances

def write_provenance(provenance: Dict[int, Tuple[int, int]]) -> str:
    out = ["tag %d %d %d" % ((v,) + tuple(provenance[v])) for v in sorted(provenance)]
    return "\n".join(out) + "\n"
