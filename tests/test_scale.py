"""Scale guard: commands at 20,000 vertices within a stated time and memory.

Each command runs in its own interpreter, which lowers its address
space limit (RLIMIT_AS) before it starts, so a command that builds a
quadratic structure or keeps a copy of every state dies with a
MemoryError (exit 3) instead of passing.  The inputs are the path
P_20000 with its width-1 path sequence, the cycle C_20000 with the
same growing-bag sequence, which reaches width 2 and red components of
three vertices, and the star K_{1,19999}, which the capacitated kernel
reads with capacity N at its centre and 1 at each leaf.

recognize is left out: on these inputs it still runs out of memory
(the width-1 witness check copies every state, the width-0 walk builds
complements and induces a copy per level), so it waits for
recognition with one walk and no copies.

An annotated instance of 60,000 isolated vertices on dims 2 2, one of
its 16 parts holding all but 15 of them and its witness growing that
part's bag one vertex at a time, is validated in 128 MB and composed,
verified and written in 256 MB, each within 5 s: a sequence's end is
read backwards off its steps, not by a forward union of ever larger
bags.

Inputs that ask for more than the header limit allows are refused with
one line and no file written: an instance whose dims name a grid of
four million points for its 40 parts and a formula whose reduction's
grid has 1.2 million points before any grid is built, and a formula
whose grid fits but whose reduced instance does not after the
reduction, before pipeline composes anything.  So are two formulas on
wide spans whose layout check would rescan every later clause for each
variable of a span: 800 clauses on 1, 2, 100000 reusing a middle, and
a valid nested family of 20,000 clauses whose grid has 3.6 billion
points.
"""

import os
import resource
import subprocess
import sys

import pytest

import twinwidth
from twinwidth import io
from twinwidth.gadgets import reduce_3sat

SRC = os.path.dirname(os.path.dirname(os.path.abspath(twinwidth.__file__)))
N = 20000
# at most about twice what each command needed when this guard was set
# (43 to 59 MB of address space on a 2-core VM), and some ten times its
# wall time there
LIMIT_MB = 128
TIMEOUT_S = 30
INSTANCE_N = 60000
# validate-instance took 0.7-0.9 s and compose 1.4-2.4 s on a 2-core VM
INSTANCE_TIMEOUT_S = 5


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("scale")
    (d / "path.graph").write_text(
        "graph %d\n" % N + "".join("edge %d %d\n" % (i, i + 1) for i in range(1, N)))
    # merge the growing end bag with the next vertex: one red edge at a time
    (d / "path.seq").write_text(
        "seq %d\ncontract %d 1 2\n" % (N, N + 1)
        + "".join("contract %d %d %d\n" % (N + i, N + i - 1, i + 1) for i in range(2, N)))
    (d / "cycle.graph").write_text(
        "graph %d\n" % N + "".join("edge %d %d\n" % (i, i % N + 1) for i in range(1, N + 1)))
    (d / "star.graph").write_text(
        "graph %d\n" % N + "".join("edge 1 %d\n" % i for i in range(2, N + 1)))
    (d / "capstar.graph").write_text(
        (d / "star.graph").read_text() + "cap 1 %d\n" % N
        + "".join("cap %d 1\n" % i for i in range(2, N + 1)))
    formula = io.parse_formula("formula 3\nclause + 1 1 2 -3\n")
    small = io.write_instance(reduce_3sat(formula).instance)
    assert "\ndims 2 4\n" in small
    (d / "huge-dims.inst").write_text(small.replace("\ndims 2 4\n", "\ndims 2000 2000\n"))
    (d / "wide.formula").write_text("formula 100000\nclause + 1 1 2 3\n")
    (d / "long.formula").write_text(
        "formula 2000\nclause + 1 1 2 3\nclause + 2 4 5 6\nclause + 3 7 8 9\n"
        "clause - 1 10 11 12\nclause - 2 13 14 15\n")
    (d / "reused.formula").write_text(
        "formula 100000\n" + "".join("clause + %d 1 2 100000\n" % r for r in range(1, 801)))
    # rank r's outer variables c - r and c + 1 enclose only its middle
    # c - r + 1, the earlier ranks having retired c - r + 2 .. c
    c = 20005
    (d / "nested.formula").write_text(
        "formula 20008\nclause + 1 %d %d %d\n" % (c - 1, c, c + 1)
        + "".join("clause + %d %d %d %d\n" % (r, c - r, c - r + 1, c + 1)
                  for r in range(2, 20001)))
    (d / "bag.inst").write_text(_growing_bag_instance(INSTANCE_N))
    return d


def _growing_bag_instance(n):
    """n isolated vertices on dims 2 2: parts 1..15 are the singletons
    1..15, part 16 is 16..n, and the witness merges 16..n in order."""
    lines = ["graph %d" % n, "dims 2 2"]
    lines += ["part %d %d" % (j, j) for j in range(1, 16)]
    lines.append("part 16 " + " ".join(map(str, range(16, n + 1))))
    lines += ["eta %d %d %d" % (4 * r + c - 4, r, c) for r in range(1, 5) for c in range(1, 5)]
    lines += ["seq %d" % n, "contract %d 16 17" % (n + 1)]
    lines += ["contract %d %d %d" % (n + i, n + i - 1, i + 16) for i in range(2, n - 15)]
    return "\n".join(lines) + "\n"


def _limit_address_space(limit_mb=LIMIT_MB):
    limit = limit_mb << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("args, code, out", [
    (["verify", "-d", "1", "path.graph", "path.seq"], 0, "width 1"),
    (["solve", "--problem", "vc", "--sequence", "path.seq", "--component-bound", "2",
      "path.graph"], 0, "value %d" % (N // 2)),
    (["solve", "--problem", "ds", "--sequence", "path.seq", "--component-bound", "2",
      "path.graph"], 0, "value %d" % -(-N // 3)),
    # on the cycle the bag holds vertex 1, so it keeps a red edge to
    # vertex N beside the one to the next vertex: width 2, red
    # components of three vertices
    (["verify", "-d", "2", "cycle.graph", "path.seq"], 0, "width 2"),
    (["solve", "--problem", "vc", "--sequence", "path.seq", "--component-bound", "3",
      "cycle.graph"], 0, "value %d" % (N // 2)),
    (["solve", "--problem", "ds", "--sequence", "path.seq", "--component-bound", "3",
      "cycle.graph"], 0, "value %d" % -(-N // 3)),
    # the quadratic kernel keeps the centre and k + 1 leaves; the
    # improved one deletes nothing from a star
    (["kernel", "--problem", "cvc2", "--k", "1", "star.graph", "--out", "kernel.graph"],
     0, "n 4 m 3 k 1"),
    (["kernel", "--problem", "cvc15", "--k", "1", "star.graph", "--out", "kernel.graph"],
     0, "n %d m %d k 1" % (N, N - 1)),
    # with room for every edge at the centre, the capacitated kernel
    # also keeps the centre and k + 1 leaves
    (["kernel", "--problem", "capvc", "--k", "1", "capstar.graph", "--out", "kernel.graph"],
     0, "n 4 m 3 k 1"),
], ids=["verify", "solve-vc", "solve-ds", "cycle-verify", "cycle-solve-vc", "cycle-solve-ds",
        "kernel-cvc2", "kernel-cvc15", "kernel-capvc"])
def test_command_finishes_at_scale_within_time_and_memory(inputs, args, code, out):
    proc = subprocess.run(
        [sys.executable, "-m", "twinwidth.cli"] + args, cwd=inputs,
        env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=_limit_address_space,
        capture_output=True, text=True, timeout=TIMEOUT_S)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out + "\n", "")


@pytest.mark.parametrize("args, limit_mb, out", [
    (["validate-instance", "bag.inst"], LIMIT_MB, "ok"),
    (["compose", "bag.inst", "--out", "bag.graph", "--witness", "bag.seq"], 2 * LIMIT_MB,
     "n %d parts 16 width 3" % (INSTANCE_N + 32)),
], ids=["validate-instance", "compose"])
def test_instance_command_finishes_at_scale_within_time_and_memory(inputs, args, limit_mb, out):
    proc = subprocess.run(
        [sys.executable, "-m", "twinwidth.cli"] + args, cwd=inputs,
        env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=lambda: _limit_address_space(limit_mb),
        capture_output=True, text=True, timeout=INSTANCE_TIMEOUT_S)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out + "\n", "")


BIJECTIVE = "eta must map the parts onto the fine grid points bijectively"


@pytest.mark.parametrize("args, limit_mb, code, out, err", [
    (["validate-instance", "huge-dims.inst"], LIMIT_MB, 1, "invalid: %s\n" % BIJECTIVE, ""),
    (["compose", "huge-dims.inst", "--out", "composed.graph", "--witness", "composed.seq"],
     LIMIT_MB, 2, "", "error: %s\n" % BIJECTIVE),
    (["reduce3sat", "wide.formula", "--out", "wide.inst"], LIMIT_MB, 2, "",
     "error: wide.formula: the reduction's grid has 1199992 points, above the header limit"
     " 100000\n"),
    (["pipeline", "wide.formula", "--out", "wide.graph"], LIMIT_MB, 2, "",
     "error: wide.formula: the reduction's grid has 1199992 points, above the header limit"
     " 100000\n"),
    # the grid has 95,968 points, the instance 100,429 vertices: built
    # in about 170 MB, refused after the reduction
    (["reduce3sat", "long.formula", "--out", "long.inst"], 2 * LIMIT_MB, 2, "",
     "error: graph 100429 exceeds the header limit 100000\n"),
    # refused before composing the 292,365-vertex graph that the
    # writer would refuse
    (["pipeline", "long.formula", "--out", "long.graph", "--witness", "long.seq"],
     2 * LIMIT_MB, 2, "", "error: graph 100429 exceeds the header limit 100000\n"),
    # the layout check bisects the live variables instead of scanning
    # each span against every later clause
    (["reduce3sat", "reused.formula", "--out", "reused.inst"], LIMIT_MB, 2, "",
     "error: middle variable 2 reused after rank 1\n"),
    (["pipeline", "nested.formula", "--out", "nested.graph"], LIMIT_MB, 2, "",
     "error: nested.formula: the reduction's grid has 3601380022 points, above the header"
     " limit 100000\n"),
], ids=["validate-dims", "compose-dims", "reduce3sat-grid", "pipeline-grid", "reduce3sat-written",
        "pipeline-written", "reduce3sat-reused", "pipeline-nested"])
def test_oversized_input_is_refused_within_time_and_memory(inputs, args, limit_mb, code, out, err):
    files = sorted(os.listdir(inputs))
    proc = subprocess.run(
        [sys.executable, "-m", "twinwidth.cli"] + args, cwd=inputs,
        env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=lambda: _limit_address_space(limit_mb),
        capture_output=True, text=True, timeout=TIMEOUT_S)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert sorted(os.listdir(inputs)) == files
