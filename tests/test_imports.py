"""Static checks over the package source."""

import ast
import dataclasses
import os
import re

import lazy_sliding
from lazy_sliding.solvers import SolverConfig

PACKAGE_DIR = os.path.dirname(lazy_sliding.__file__)
README = os.path.join(os.path.dirname(os.path.dirname(PACKAGE_DIR)), "README.md")


def _unused_imports(source):
    """Names a module imports but never reads; names in ``__all__`` count as read."""
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
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_scan_finds_dead_names():
    source = ("import math\nimport numpy as np\nfrom typing import List, Optional\n"
              "from .x import kept, exported\n__all__ = ['exported']\n"
              "def f(v: Optional[int]):\n    return np.zeros(kept)\n")
    assert _unused_imports(source) == [(1, "math"), (3, "List")]


def test_package_modules_import_nothing_unused():
    found = {}
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name)) as fh:
                unused = _unused_imports(fh.read())
            if unused:
                found[name] = unused
    assert found == {}


def test_every_solver_config_field_is_set_by_an_experiment_entry():
    # a SolverConfig field that no entry can name is a knob only tests turn
    with open(os.path.join(PACKAGE_DIR, "bench.py")) as fh:
        tree = ast.parse(fh.read())
    prepare = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "_prepare_entry")
    named = {kw.arg for node in ast.walk(prepare)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SolverConfig"
             for kw in node.keywords}
    # _run_one sets the seed of each run
    assert {f.name for f in dataclasses.fields(SolverConfig)} - named == {"seed"}


def _variant_literals(source):
    """(line, literal) of every string a comparison against a ``variant`` name tests."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + node.comparators
        names = {getattr(n, "id", getattr(n, "attr", None))
                 for op in operands for n in ast.walk(op)}
        if "variant" in names:
            found += [(c.lineno, c.value) for op in operands for c in ast.walk(op)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return found


def test_variant_literal_scan_finds_comparisons():
    source = ("if config.variant == 'calgd' or v in ('a', 'b'):\n    pass\n"
              "if variant in RESTARTS and x == 'y':\n    pass\n")
    assert _variant_literals(source) == [(1, "calgd")]


def test_solvers_dispatch_on_no_variant_but_ofw_and_scgs():
    # the schedule decides the gradient; a variant name only picks ofw's own
    # loop in run_solver, and the baselines' settings in SolverConfig
    with open(os.path.join(PACKAGE_DIR, "solvers.py")) as fh:
        source = fh.read()
    literals = _variant_literals(source)
    assert {value for _, value in literals} <= {"ofw", "scgs"}, literals
    run_solver = next(node for node in ast.walk(ast.parse(source))
                      if isinstance(node, ast.FunctionDef) and node.name == "run_solver")
    in_run = [value for line, value in literals
              if run_solver.lineno <= line <= run_solver.end_lineno]
    assert set(in_run) == {"ofw"}, in_run


def _scipy_imports(source):
    """(scope, branch, module) of every import of scipy.optimize or scipy.sparse.

    scope is the dotted name of the enclosing classes and functions ("" at
    module level); branch is the test of the innermost enclosing ``if``, with
    ``not`` for its else part ("" outside any ``if``).
    """
    found = set()

    def visit(node, scope, branch):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + ["%s.%s" % (node.module, a.name) for a in node.names]
        for module in ("scipy.optimize", "scipy.sparse"):
            if any(n == module or n.startswith(module + ".") for n in names):
                found.add((scope, branch, module))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if not scope else scope + "." + node.name
        for field, value in ast.iter_fields(node):
            for child in value if isinstance(value, list) else [value]:
                if not isinstance(child, ast.AST):
                    continue
                if isinstance(node, ast.If) and field in ("body", "orelse"):
                    test = ast.unparse(node.test)
                    visit(child, scope, test if field == "body" else "not " + test)
                else:
                    visit(child, scope, branch)

    visit(ast.parse(source), "", "")
    return found


def test_scipy_import_scan_finds_scope_and_branch():
    source = ("import scipy.sparse as sp\n"
              "class R:\n    def lmo(self):\n        from scipy.optimize import linprog\n"
              "def load(fmt):\n    if fmt == 'csr':\n        from scipy import sparse\n"
              "    else:\n        import scipy.optimize._lsq\n"
              "    import scipy.linalg\n")
    assert _scipy_imports(source) == {
        ("", "", "scipy.sparse"), ("R.lmo", "", "scipy.optimize"),
        ("load", "fmt == 'csr'", "scipy.sparse"), ("load", "not fmt == 'csr'", "scipy.optimize")}


def test_package_loads_scipy_optimize_and_sparse_only_where_needed():
    # Each import costs hundreds of ms and tens of MB.  The Birkhoff LMO and
    # CSR least squares load scipy's compiled modules alone, through
    # compiled.load_extension, which imports a package by name only on a
    # scipy layout without those files; no module imports either package.
    found, by_name = set(), set()
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name)) as fh:
                source = fh.read()
            found |= {(name,) + site for site in _scipy_imports(source)}
            if "import_module" in _references(source):
                by_name.add(name)
    assert found == set()
    assert by_name == {"compiled.py"}


def _references(source):
    """Names a module reads, as a name or an attribute, outside the def or class of that name."""
    found = set()

    def visit(node, defining):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name not in defining:
            found.add(name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(source), frozenset())
    return found


def test_reference_scan_skips_definitions_and_stores():
    source = ("from .x import imported\n__all__ = ['exported']\nCONSTANT = 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Used:\n    def method(self):\n        self.stored = Used\n"
              "def caller():\n    return Used().method(), obj.attr\n")
    assert _references(source) == {"n", "self", "Used", "method", "obj", "attr"}


def test_every_public_name_is_used_by_the_package_or_documented():
    # a public name that only tests call belongs in tests/helpers.py
    used = set()
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name)) as fh:
                used |= _references(fh.read())
    with open(README) as fh:
        documented = set(re.findall(r"\w+", fh.read()))
    assert [n for n in lazy_sliding.__all__ if n not in used | documented] == []


def _extension_attributes(source):
    """{name: (attributes passed to load_extension, attributes read)} of a module.

    ``name`` is what a ``load_extension(name, public, *attrs)`` call is
    assigned to.  The attributes read are those read off ``name`` anywhere
    in the module, or the one read off the call itself when the assignment
    is ``name = load_extension(...).attr``.
    """
    tree = ast.parse(source)

    def is_load(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "load_extension"

    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or not isinstance(node.targets[0], ast.Name):
            continue
        call = node.value.value if isinstance(node.value, ast.Attribute) else node.value
        if is_load(call):
            passed = {arg.value for arg in call.args[2:]}
            read = {node.value.attr} if call is not node.value else set()
            found[node.targets[0].id] = (passed, read)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in found):
            found[node.value.id][1].add(node.attr)
    return found


def test_extension_attribute_scan_pairs_loads_with_reads():
    source = ("_k = None\nf = load_extension('a._b', 'a', 'run').run\n"
              "def g(x):\n    global _k\n    _k = load_extension('a._c', 'a', 'one', 'two')\n"
              "    return _k.one(x) + _k.three(x)\n")
    assert _extension_attributes(source) == {"f": ({"run"}, {"run"}),
                                             "_k": ({"one", "two"}, {"one", "three"})}


def test_every_loaded_kernel_is_called_and_every_called_kernel_loaded():
    # load_extension falls back to the public package when a listed name is
    # missing, so the list must name exactly the kernels the module calls
    found = {}
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name)) as fh:
                found.update({(name, k): v for k, v in _extension_attributes(fh.read()).items()})
    assert found[("objectives.py", "_sparsetools")][0] == {"csr_matvec", "csc_matvec",
                                                          "csr_row_index"}
    assert {k: v for k, v in found.items() if v[0] != v[1]} == {}
