"""Every name a library module imports is used, every public name and
public method it defines is used by the library or the benchmark, the
oracles stay independent, and nothing outside the standard library is
needed but pytest."""

import ast
import glob
import os
import sys

import twinwidth

PACKAGE = os.path.dirname(os.path.abspath(twinwidth.__file__))
MODULES = sorted(p for p in glob.glob(os.path.join(PACKAGE, "*.py"))
                 if os.path.basename(p) != "__init__.py")
BENCH = os.path.join(os.path.dirname(os.path.dirname(PACKAGE)), "bench")
TESTS = os.path.dirname(os.path.abspath(__file__))


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_unused_names():
    source = "import itertools\nfrom typing import List, Optional\nx: List[int] = []\n"
    assert _unused_imports(source) == [(1, "itertools"), (2, "Optional")]


def test_library_has_no_unused_imports():
    assert len(MODULES) > 5
    found = []
    for path in MODULES:
        with open(path, encoding="utf-8") as fh:
            for line, name in _unused_imports(fh.read()):
                found.append("%s:%d %s" % (os.path.basename(path), line, name))
    assert found == []


def _asserts(source: str):
    """Lines of the assert statements in a source: python -O strips them."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_scan_finds_assert_statements():
    source = ("def f(x):\n    assert x, 'gone under -O'\n    if not x:\n"
              "        raise AssertionError('kept under -O')\nassert f\n")
    assert _asserts(source) == [2, 5]


def test_library_has_no_assert_statements():
    # the library's checks must hold under python -O, so they raise
    found = []
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        with open(path, encoding="utf-8") as fh:
            found += ["%s:%d" % (os.path.basename(path), line) for line in _asserts(fh.read())]
    assert found == []


def _assertion_raises(source: str):
    """Lines of the raise statements that name AssertionError."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Raise) and node.exc is not None
                  and "AssertionError" in {n.id for n in ast.walk(node.exc)
                                           if isinstance(n, ast.Name)})


def test_scan_finds_assertion_raises():
    source = ("def f(x):\n    if not x:\n        raise AssertionError('bare')\n"
              "    raise AssertionError\n\ndef g():\n    raise InternalError('kept')\n"
              "try:\n    f(0)\nexcept AssertionError:\n    raise\n")
    assert _assertion_raises(source) == [3, 4]


def test_library_raises_internal_errors_by_their_one_type():
    # a broken invariant raises trigraph.InternalError, so that the CLI
    # names it and a test can tell it from any other AssertionError
    found = []
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        with open(path, encoding="utf-8") as fh:
            found += ["%s:%d" % (os.path.basename(path), line)
                      for line in _assertion_raises(fh.read())]
    assert found == []


def _sorted_set_copies(source: str):
    """Lines of set(sorted(...)) and frozenset(sorted(...)) calls."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("set", "frozenset") and len(node.args) == 1
                  and isinstance(node.args[0], ast.Call)
                  and getattr(node.args[0].func, "id", None) == "sorted")


def test_scan_finds_sorted_set_copies():
    source = ("a = set(sorted(x))\nb = frozenset(sorted(y, key=len))\n"
              "c = sorted(set(x))\nd = set(x)\ne = set(s.sorted(x))\nf = {v: set(sorted(w))}\n")
    assert _sorted_set_copies(source) == [1, 2, 6]


def test_library_makes_no_sorted_set_copies():
    # no table has a defined iteration order (trigraph module), so a
    # sorted copy put back into a set only reproduces an order no
    # output may depend on
    found = []
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        with open(path, encoding="utf-8") as fh:
            found += ["%s:%d" % (os.path.basename(path), line)
                      for line in _sorted_set_copies(fh.read())]
    assert found == []


def _graph_calls(source: str, scope=None):
    """Lines of calls to the name Graph: anywhere in a source, or with
    scope given, only inside the top-level classes and functions of
    those names."""
    tree = ast.parse(source)
    roots = [tree] if scope is None else [
        top for top in tree.body if isinstance(top, (ast.ClassDef, ast.FunctionDef))
        and top.name in scope]
    return sorted(node.lineno for root in roots for node in ast.walk(root)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "Graph")


def test_scan_finds_graph_constructor_calls():
    source = ("def f(g):\n    return Graph(g.vertices, [])\n\n"
              "class Graph:\n    def copy(self):\n        return Graph(self.vertices)\n\n"
              "    def view(self):\n        return Graph._of(self.adj), cls([1])\n\n"
              "class Other:\n    def build(self):\n        return Graph([1], [])\n")
    assert _graph_calls(source) == [2, 6, 13]
    assert _graph_calls(source, {"Graph", "Trigraph"}) == [6]
    assert _graph_calls(source, {"f", "Other"}) == [2, 13]


# a graph derived from another takes its rows from the source by set
# operations (trigraph module); the checked edge-list constructor is
# for outside input and constructions that make their own edge lists
# (make_dummy and the gadgets' reduce_3sat, halfgraph_cycle and
# variable_wire among them)
DERIVED_GRAPH_SCOPES = {"recognize.py": None, "modular.py": None,
                        "trigraph.py": {"Graph", "Trigraph"},
                        "compose.py": {"or_cross_compose"},
                        "gadgets.py": {"_numbered", "snaking_grid", "augmented_snaking_grid",
                                       "validate_instance"}}


def test_derived_graphs_take_their_rows_from_the_source():
    found = []
    for name, classes in DERIVED_GRAPH_SCOPES.items():
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            found += ["%s:%d" % (name, line) for line in _graph_calls(fh.read(), classes)]
    assert found == []


# the oracles are the independent ground truth: within the package they
# may lean on graphs and sequences only, never on the code they check
ORACLE_ALLOWED = {"trigraph", "sequence"}


def _package_imports(source: str):
    """Package modules named by the imports of one module's source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "twinwidth":
                    continue
                module = module[len("twinwidth."):]
            found |= {module.split(".")[0]} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("twinwidth."))
    return found


def test_scan_finds_forbidden_oracle_import():
    source = ("import itertools\nfrom .trigraph import Graph\nfrom . import sequence, dpsolve\n"
              "from .kernel import cvc_kernel_quadratic\nimport twinwidth.modular\n"
              "from twinwidth import recognize\nfrom twinwidth.sequence import walk\n")
    assert _package_imports(source) == {"trigraph", "sequence", "dpsolve", "kernel",
                                        "modular", "recognize"}


# the references in tests/ re-implement what they check, so from the
# package they take public names only, and these input checks
REFERENCE_PRIVATE_ALLOWED = {
    "twinwidth.oracle._check_size": "TWW_SIZE_CAP is the one override of every cap, so a"
                                    " reference refuses exactly the sizes its oracle refuses",
    "twinwidth.oracle._check_tww_input": "the twin-width input rules (nonempty, vertices 1..n,"
                                         " the cap) that the searches and their references share",
}


def _private_imports(source: str):
    """module.name for each private name a source takes from the
    package, by a from-import or as an attribute of a package module."""
    tree = ast.parse(source)
    found, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "twinwidth":
            for a in node.names:
                if node.module == "twinwidth":
                    modules[a.asname or a.name] = "twinwidth." + a.name
                elif a.name.startswith("_"):
                    found.add("%s.%s" % (node.module, a.name))
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "twinwidth":
                    modules[a.asname or "twinwidth"] = a.name if a.asname else "twinwidth"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and not node.attr.endswith("__"):
            path, root = [node.attr], node.value
            while isinstance(root, ast.Attribute):
                path.append(root.attr)
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.add(".".join([modules[root.id]] + path[::-1]))
    return found


def test_scan_finds_private_package_imports():
    source = ("from twinwidth.kernel import KernelInstance, _lex_classes\n"
              "from twinwidth import oracle as orc\nimport twinwidth.modular\n"
              "from helpers import _local\nimport random\n"
              "x = orc._part_tables(o, g), orc.TWW_CAP, twinwidth.modular._classes(g)\n"
              "y = orc.__name__, random._inst, _local.attr\n")
    assert _private_imports(source) == {"twinwidth.kernel._lex_classes",
                                        "twinwidth.oracle._part_tables",
                                        "twinwidth.modular._classes"}


def test_references_take_no_private_package_names():
    paths = glob.glob(os.path.join(TESTS, "*_reference.py"))
    assert len(paths) > 5
    found = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for name in _private_imports(fh.read()):
                found.setdefault(name, []).append(os.path.basename(path))
    assert sorted("%s: %s" % (name, found[name])
                  for name in set(found) - set(REFERENCE_PRIVATE_ALLOWED)) == []
    # the allowlist only holds names a reference still takes
    assert set(REFERENCE_PRIVATE_ALLOWED) <= set(found)
    assert all(REFERENCE_PRIVATE_ALLOWED.values())


# label merges are how recognition and the builders write witnesses, so
# the oracle numbers its own fresh ids instead of sharing that code
ORACLE_FORBIDDEN_ATTRS = {"from_merges", "merges"}


def _attributes_used(source: str):
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)}


def test_scan_finds_forbidden_oracle_attribute():
    source = ("seq = ContractionSequence.from_merges(n, pairs)\n"
              "pairs = witness.merges()\nstates = replay(g, seq)\n")
    assert _attributes_used(source) & ORACLE_FORBIDDEN_ATTRS == {"from_merges", "merges"}


def test_oracle_imports_only_graphs_and_sequences():
    with open(os.path.join(PACKAGE, "oracle.py"), encoding="utf-8") as fh:
        source = fh.read()
    assert _package_imports(source) <= ORACLE_ALLOWED
    assert _attributes_used(source) & ORACLE_FORBIDDEN_ATTRS == set()


# public names that nothing in the library or the benchmark calls, each
# kept for a reason beyond its own unit test
UNUSED_ALLOWED = {
    "all_min_dominating_sets": "oracle checker: the wire optima of criterion 7",
    "capacitated_vc_feasible": "oracle checker: certifies a capacitated cover",
    "dominating_transversal": "oracle checker: the reduction's and the composition's"
                              " yes question, criteria 6 and 8",
    "lift_assignment": "the reduction's forward direction, criterion 5",
    "variable_wire": "a bare wire, the input of criterion 7",
    "write_formula": "the formula format's writer, paired with parse_formula",
}


# public methods that nothing in the library or the benchmark reads as
# an attribute, each kept for a reason beyond its own unit test
UNUSED_METHODS_ALLOWED = {
    "Graph.complete": "the complete-graph factory the tests build their width-0 cases from",
    "ComposedInstance.forced_parts": "the composition's forced blocks, the parts"
                                     " dominating_transversal takes in criterion 8",
}


def _public_methods(source: str):
    """Class.method for the public methods of the top-level classes."""
    return {"%s.%s" % (top.name, node.name) for top in ast.parse(source).body
            if isinstance(top, ast.ClassDef) for node in top.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _public_definitions(source: str):
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _references(source: str):
    """Names read as a variable or an attribute, each top-level
    definition's uses of its own name left out."""
    used = set()
    for top in ast.parse(source).body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id != own:
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr != own:
                used.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_parser":
                # cli.main runs a subcommand's cmd_<name>, looked up by name
                used.add("cmd_" + node.args[0].value.replace("-", "_"))
    return used


def test_scan_finds_unreferenced_definitions():
    source = ("import os\nfrom .io import write_graph\n\n"
              "def helper(x):\n    return helper(x - 1) if x else os.sep\n\n"
              "def caller():\n    return Kept(), write_graph, mod.by_attribute\n\n"
              "def by_attribute():\n    pass\n\n"
              "class Kept:\n    pass\n\nclass Orphan:\n    pass\n\n"
              "def _private():\n    pass\n")
    unused = _public_definitions(source) - _references(source)
    assert unused == {"helper", "caller", "Orphan"}


def test_scan_reaches_commands_through_their_subcommand():
    source = ("def cmd_validate_instance(args):\n    pass\n\n"
              "def cmd_orphan(args):\n    pass\n\n"
              "def build(sub):\n    sub.add_parser(\"validate-instance\")\n")
    unused = _public_definitions(source) - _references(source)
    assert unused == {"cmd_orphan", "build"}


def test_scan_finds_unreferenced_methods():
    source = ("class Kept:\n    def read(self):\n        return self.size\n\n"
              "    @property\n    def size(self):\n        return 0\n\n"
              "    def orphan(self):\n        return read()\n\n"
              "    def _private(self):\n        pass\n\n"
              "def helper():\n    return Kept().read\n")
    unused = {m for m in _public_methods(source)
              if m.split(".")[1] not in _attributes_used(source)}
    # a bare name is no method use: only attribute reads count
    assert unused == {"Kept.orphan"}


def test_every_public_name_is_referenced():
    # __init__ re-exports every public name, so it counts as no use
    bench = glob.glob(os.path.join(BENCH, "*.py"))
    assert bench, "no benchmark sources next to the package"
    used, attributes = set(), set()
    for path in MODULES + bench:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        used |= _references(source)
        attributes |= _attributes_used(source)
    unused, unused_methods = {}, {}
    for path in MODULES:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        for name in _public_definitions(source) - used:
            unused[name] = os.path.basename(path)
        for method in _public_methods(source):
            if method.split(".")[1] not in attributes:
                unused_methods[method] = os.path.basename(path)
    assert sorted("%s:%s" % (unused[name], name)
                  for name in set(unused) - set(UNUSED_ALLOWED)) == []
    assert sorted("%s:%s" % (unused_methods[m], m)
                  for m in set(unused_methods) - set(UNUSED_METHODS_ALLOWED)) == []
    # the allowlists only hold names that are still defined and unused
    assert set(UNUSED_ALLOWED) <= set(unused)
    assert set(UNUSED_METHODS_ALLOWED) <= set(unused_methods)
    assert all(UNUSED_ALLOWED.values()) and all(UNUSED_METHODS_ALLOWED.values())


def _top_level_imports(source: str):
    """First components of the absolute imports anywhere in a source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_scan_finds_third_party_imports():
    source = ("import os.path\nfrom . import io\nimport hypothesis.strategies as st\n"
              "def f():\n    from numpy import array\n")
    assert _top_level_imports(source) == {"os", "hypothesis", "numpy"}


def test_only_standard_library_and_pytest_are_imported():
    # hypothesis happens to be installed on some machines but is not a
    # declared dependency; the tests may use pytest and the repository's
    # own helper modules (tests/ and bench/), the library nothing else
    sources = glob.glob(os.path.join(PACKAGE, "*.py")) + glob.glob(os.path.join(TESTS, "*.py"))
    helpers = {os.path.splitext(os.path.basename(p))[0]
               for p in glob.glob(os.path.join(TESTS, "*.py")) + glob.glob(os.path.join(BENCH, "*.py"))}
    allowed = set(sys.stdlib_module_names) | {"pytest", "twinwidth"} | helpers
    found = {}
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            for name in _top_level_imports(fh.read()) - allowed:
                found.setdefault(name, []).append(os.path.basename(path))
    assert found == {}
    library = set()
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        with open(path, encoding="utf-8") as fh:
            library |= _top_level_imports(fh.read())
    assert library <= set(sys.stdlib_module_names)
