"""Source hygiene: no module imports a name it never uses or imports again
inside a function, no package function imports from a module that its module
already imports from at top level or that does not import its module (only an
import cycle justifies a function-local import), the package imports nothing
outside the standard library, each object verifier runs only in its
class's cached `report` property (or in the CLI's suites), no package code
divides with `/` outside `exactlin.qdiv` (an int / int is a float), no
package code builds a tensor through `from_row_dicts`, package code opens
a file for writing only in `cli._write_json`, the one writer, and no
`functools.cache`/`lru_cache` wraps a module-level function or method (its
entries would live as long as the process; a memo belongs to the value that
owns it), importing the nine layers loads none of the standard-library
modules that only slow every start-up (`dataclasses`, `inspect`, `hashlib`),
no record writes a constructor that only stores its fields, the job of
`Record.__init__`, and no package function filters, normalises and sorts
a cell's entries itself, the job of `exactlin.sorted_cell`.

An AST scan stands in for pyflakes: a name bound by an import counts as used
when it appears anywhere in the module as a name, as the root of an
attribute chain, in a string annotation, or in `__all__`.
"""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src/hopfsmash", "tests", "scripts")
                 for p in (ROOT / d).glob("*.py"))
PACKAGE = sorted((ROOT / "src/hopfsmash").glob("*.py"))


def _imported(tree):
    """(bound name, line) for every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used(tree) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and isinstance(
                node.annotation, ast.Constant) and isinstance(node.annotation.value, str):
            used |= _used(ast.parse(node.annotation.value, mode="eval"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and isinstance(
                node.returns, ast.Constant) and isinstance(node.returns.value, str):
            used |= _used(ast.parse(node.returns.value, mode="eval"))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_unused_and_accepts_used():
    src = ("from __future__ import annotations\n"
           "import os.path\n"
           "from a import b, c as d, e\n"
           "def f(x: 'e') -> None:\n"
           "    from g import h\n"
           "    return os.sep, d\n")
    assert unused_imports(src) == [("b", 3), ("h", 5)]


def local_reimports(source: str) -> list:
    """(name, line) of every import inside a function of a name that the
    module already imports at top level."""
    tree = ast.parse(source)
    top = {name for stmt in tree.body if isinstance(stmt, (ast.Import, ast.ImportFrom))
           for name, _ in _imported(stmt)}
    return sorted({(name, line) for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for name, line in _imported(fn) if name in top})


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_local_reimports(path):
    assert local_reimports(path.read_text()) == []


def test_scan_finds_local_reimports():
    src = ("import os\n"
           "from a import b, c as d\n"
           "def f():\n"
           "    from a import b, e\n"
           "    def g():\n"
           "        import os, sys\n"
           "        from x import d\n"
           "    return b, e, g, os, sys, d\n")
    assert local_reimports(src) == [("b", 4), ("d", 7), ("os", 6)]


def local_imports_of_top_modules(source: str) -> list:
    """(module, line) of every import inside a function from a module that the
    module already imports from at top level: that import cannot be breaking
    an import cycle, so it belongs at the top."""
    tree = ast.parse(source)
    top = {(stmt.level, stmt.module) for stmt in tree.body
           if isinstance(stmt, ast.ImportFrom) and stmt.module}
    return sorted({(node.module, node.lineno) for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, ast.ImportFrom) and (node.level, node.module) in top})


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_local_imports_of_top_modules(path):
    assert local_imports_of_top_modules(path.read_text()) == []


def test_scan_finds_local_imports_of_top_modules():
    src = ("from . import demos\n"
           "from .exactlin import rat\n"
           "def f():\n"
           "    from .exactlin import mat\n"
           "    from .qtriang import transmute\n"
           "    from . import cli\n"
           "    def g():\n"
           "        from .exactlin import vec\n"
           "        from exactlin import basis_vec\n"
           "    return demos, rat, mat, transmute, cli, g\n")
    assert local_imports_of_top_modules(src) == [("exactlin", 4), ("exactlin", 8)]


def _package_imports(nodes) -> list:
    """(module, line) of each relative import among nodes: `from .x import f`
    and `from . import x` both import the package module x."""
    found = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            mods = [node.module] if node.module else [alias.name for alias in node.names]
            found += [(mod, node.lineno) for mod in mods]
    return found


def local_imports_without_cycle(sources: dict) -> list:
    """(module, imported module, line) of every import inside a function of a
    package module whose target does not import the importing module at top
    level: only breaking an import cycle justifies a function-local import.
    sources maps module names to their source."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    top = {name: {mod for mod, _ in _package_imports(tree.body)} for name, tree in trees.items()}
    return sorted((name, mod, line) for name, tree in trees.items()
                  for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for mod, line in _package_imports(ast.walk(fn))
                  if name not in top.get(mod, ()))


def test_local_imports_only_break_cycles():
    assert local_imports_without_cycle({p.stem: p.read_text() for p in PACKAGE}) == []


def test_scan_finds_local_imports_without_cycle():
    sources = {"a": ("from .b import f\n"
                     "def g():\n"
                     "    from .c import h\n"
                     "    return f, h\n"),
               "b": "def f():\n    from .a import g\n    return g\n",
               "c": ("from . import a\n"
                     "def h():\n"
                     "    from .b import f\n"
                     "    from . import a\n"
                     "    return a, f\n")}
    # a -> c and b -> a break cycles, as c and a import a and b at top; c -> b
    # and c -> a do not, as neither b nor a imports c at top
    assert local_imports_without_cycle(sources) == [("c", "a", 4), ("c", "b", 3)]


def foreign_imports(source: str) -> list:
    """(top-level module, line) of every absolute import that is neither in
    the standard library nor hopfsmash itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(top, node.lineno) for top in (n.split(".")[0] for n in names)
                  if top not in sys.stdlib_module_names and top != "hopfsmash"]
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_only_stdlib(path):
    assert foreign_imports(path.read_text()) == []


def test_scan_finds_foreign_imports():
    src = ("import os, numpy.linalg\n"
           "from fractions import Fraction\n"
           "from . import exactlin\n"
           "from hopfsmash.cli import main\n"
           "def f():\n"
           "    from scipy import sparse\n")
    assert foreign_imports(src) == [("numpy", 1), ("scipy", 6)]


# verifier -> the class whose cached `report` property runs it
VERIFIERS = {"verify_algebra": "StructureAlgebra", "verify_hopf": "HopfData",
             "verify_weak_hopf": "WeakHopfData", "verify_module_algebra": "ModuleAlgebraData",
             "verify_qt": "QTStructure", "verify_braided_group": "BraidedGroupData"}


def stray_verifier_calls(source: str, module: str) -> list:
    """(verifier, line) of every call of a VERIFIERS name outside its own
    class's `report`, except, in cli, inside the SUITES table: a suite
    verifies an object loaded from disk under its own subject."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in VERIFIERS and scope != (VERIFIERS[name], "report") \
                        and not (module == "cli" and scope == ("SUITES",)):
                    found.append((name, child.lineno))
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "SUITES" for t in child.targets):
                inner = scope + ("SUITES",)
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_verifiers_run_only_in_report_properties(path):
    assert stray_verifier_calls(path.read_text(), path.stem) == []


def test_scan_finds_stray_verifier_calls():
    src = ("class HopfData:\n"
           "    @cached_property\n"
           "    def report(self):\n"
           "        return verify_hopf(self)\n"
           "class QTStructure:\n"
           "    @cached_property\n"
           "    def report(self):\n"
           "        return verify_hopf(self.host)\n"
           "SUITES = {'qt': lambda ws, t: verify_qt(ws.qt(t), t)}\n"
           "def build(h):\n"
           "    hopfcore.verify_algebra(h.algebra).require()\n")
    assert stray_verifier_calls(src, "cli") == [("verify_hopf", 8), ("verify_algebra", 11)]
    assert stray_verifier_calls(src, "qtriang") == [
        ("verify_hopf", 8), ("verify_qt", 9), ("verify_algebra", 11)]


def divisions(source: str, module: str) -> list:
    """Line of every `/` and `/=` in the module, except inside the function
    qdiv of exactlin, the one division of exact scalars."""
    tree = ast.parse(source)
    allowed = {id(node) for fn in ast.walk(tree)
               if module == "exactlin" and isinstance(fn, ast.FunctionDef) and fn.name == "qdiv"
               for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div) and id(node) not in allowed)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_division_outside_qdiv(path):
    assert divisions(path.read_text(), path.stem) == []


def test_scan_finds_divisions():
    src = ("def qdiv(a, b):\n"
           "    return a / b\n"
           "def f(x, y):\n"
           "    x /= y\n"
           "    return x // y, [c / y for c in (x,)]\n"
           "half = 1 / 2  # a / b\n")
    assert divisions(src, "exactlin") == [4, 5, 6]
    assert divisions(src, "hopfcore") == [2, 4, 5, 6]


def row_dict_builds(source: str) -> list:
    """Line of every call of `from_row_dicts`: package code yields its entries
    straight into `Tensor3.from_entries`, the one builder of tensor rows, and
    holds no second copy of the cells in a {(i, j): {k: v}} dict."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and (node.func.id if isinstance(node.func, ast.Name)
                       else getattr(node.func, "attr", None)) == "from_row_dicts")


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_row_dict_builds(path):
    assert row_dict_builds(path.read_text()) == []


def test_scan_finds_row_dict_builds():
    src = ("from .exactlin import Tensor3\n"
           "def f(n, cells):\n"
           "    t = Tensor3.from_entries((n, n, n), [])\n"
           "    return Tensor3.from_row_dicts((n, n, n), cells), t\n"
           "g = from_row_dicts\n"
           "h = from_row_dicts((1, 1, 1), {})\n")
    assert row_dict_builds(src) == [4, 6]


def plane_map_builds(source: str, module: str) -> list:
    """Line of every `LinearMap(...)` call with a comprehension argument whose
    element is `dict(...)` of one tensor cell, such as
    LinearMap(n, n, [dict(t.row(i, j)) for j in range(n)]), except inside
    exactlin's `plane`: a plane of a tensor is read as a map by
    `Tensor3.plane`, along another leg through `Tensor3.permuted`, in one
    place."""
    tree = ast.parse(source)
    allowed = {id(node) for fn in ast.walk(tree)
               if module == "exactlin" and isinstance(fn, ast.FunctionDef) and fn.name == "plane"
               for node in ast.walk(fn)}

    def cell_dicts(arg) -> bool:
        return (isinstance(arg, (ast.ListComp, ast.GeneratorExp))
                and isinstance(arg.elt, ast.Call) and isinstance(arg.elt.func, ast.Name)
                and arg.elt.func.id == "dict" and len(arg.elt.args) == 1)

    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in allowed
                  and (node.func.id if isinstance(node.func, ast.Name)
                       else getattr(node.func, "attr", None)) == "LinearMap"
                  and any(map(cell_dicts, node.args)))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_plane_map_builds(path):
    assert plane_map_builds(path.read_text(), path.stem) == []


def test_scan_finds_plane_map_builds():
    src = ("from .exactlin import LinearMap, Tensor3\n"
           "def f(n, t, mult, a):\n"
           "    ok = LinearMap(n, n, [t.act({x: 1}, a) for x in range(n)]), t.plane(0)\n"
           "    m = LinearMap(n, n, [dict(t.row(i, j)) for j in range(n)])\n"
           "    return m, ok, exactlin.LinearMap(n, n, (dict(mult[i][a]) for i in range(n)))\n"
           "g = LinearMap(2, 2, [dict(x) for x in ({}, {})]).transpose()\n"
           "h = LinearMap(1, 1, [{k: v for k, v in c} for c in ((),)]), dict(a=1)\n"
           "def plane(t, i):\n"
           "    return LinearMap(2, 2, [dict(cell) for cell in t._rows[i]])\n")
    assert plane_map_builds(src, "exactlin") == [4, 5, 6]
    assert plane_map_builds(src, "qtriang") == [4, 5, 6, 9]


def file_writes(source: str, module: str) -> list:
    """Line of every call that writes a file: `write_text`, `write_bytes`, or
    an `open` whose mode is not a literal without w, a, x and + (the mode is
    the `mode` keyword, else the second argument of `open(...)` and the first
    of `x.open(...)`; no mode reads), except inside cli's `_write_json`, so
    every file the package writes is byte-identical to json.dumps."""
    tree = ast.parse(source)
    allowed = {id(node) for fn in ast.walk(tree)
               if module == "cli" and isinstance(fn, ast.FunctionDef)
               and fn.name == "_write_json" for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in allowed:
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name in ("write_text", "write_bytes"):
            found.append(node.lineno)
        elif name == "open":
            at = 1 if isinstance(f, ast.Name) else 0
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[at] if len(node.args) > at else None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and isinstance(mode.value, str)
                                         and not set("wax+") & set(mode.value)):
                found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_files_are_written_only_by_write_json(path):
    assert file_writes(path.read_text(), path.stem) == []


def test_scan_finds_file_writes():
    src = ("import os\n"
           "def _write_json(path, doc):\n"
           "    with open(path, 'w', encoding='utf-8') as fh:\n"
           "        fh.write(doc)\n"
           "def load(path, p, mode):\n"
           "    open(path), open(path, 'rb'), open(path, mode='r'), p.open()\n"
           "    open(path, 'a'), open(path, mode='r+'), open(path, mode)\n"
           "    p.open('x'), p.write_text(''), os.open(path, os.O_WRONLY)\n")
    assert file_writes(src, "cli") == [7, 7, 7, 8, 8, 8]
    assert file_writes(src, "smashcons") == [3, 7, 7, 7, 8, 8, 8]


CACHES = ("cache", "lru_cache")


def process_caches(source: str) -> list:
    """Line of every `cache`/`lru_cache` (bare, as `functools.` attribute, or
    called as `lru_cache(maxsize=...)`) outside a function body: a decorator
    of a module-level function or method, or a module-level wrap.  A cache
    inside a function dies with the call."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if not isinstance(node, ast.Lambda):
                for dec in node.decorator_list:
                    visit(dec)
            return
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name in CACHES:
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return sorted(found)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_process_lifetime_caches(path):
    assert process_caches(path.read_text()) == []


def test_scan_finds_process_caches():
    src = ("import functools\n"
           "from functools import cache, cached_property, lru_cache\n"
           "@cache\n"
           "def f(x):\n"
           "    @cache\n"
           "    def local(y):\n"
           "        return y\n"
           "    return local(x)\n"
           "@functools.lru_cache(maxsize=None)\n"
           "def g(x):\n"
           "    return x\n"
           "class C:\n"
           "    @cached_property\n"
           "    def memo(self):\n"
           "        return {}\n"
           "    @lru_cache\n"
           "    def m(self):\n"
           "        return 1\n"
           "h = cache(lambda x: x)\n")
    assert process_caches(src) == [3, 9, 16, 19]


LAYERS = ("exactlin", "hopfcore", "qtriang", "modalg", "weakhopf", "smashcons",
          "adjstable", "repdim", "cli")
# dataclasses loads inspect, ast and dis and execs generated methods for each
# record; hashlib loads OpenSSL: milliseconds on every run of every command
STARTUP_FORBIDDEN = ("dataclasses", "inspect", "hashlib")


def startup_imports(src: Path) -> list:
    """The STARTUP_FORBIDDEN modules that importing the nine layers of the
    hopfsmash package under src loads into a fresh interpreter (without site,
    and not counting what the interpreter had loaded before)."""
    code = (f"import sys\nbefore = set(sys.modules)\nsys.path.insert(0, {str(src)!r})\n"
            f"for layer in {LAYERS!r}:\n    __import__('hopfsmash.' + layer)\n"
            f"print(*(m for m in {STARTUP_FORBIDDEN!r} if m in set(sys.modules) - before))")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    return run.stdout.split()


def test_startup_loads_no_slow_modules():
    assert startup_imports(ROOT / "src") == []


def test_startup_scan_finds_a_planted_dataclass(tmp_path):
    shutil.copytree(ROOT / "src/hopfsmash", tmp_path / "hopfsmash",
                    ignore=shutil.ignore_patterns("__pycache__"))
    planted = tmp_path / "hopfsmash" / "repdim.py"
    planted.write_text(planted.read_text() + (
        "\n\nfrom dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass Planted:\n    x: int\n"))
    assert startup_imports(tmp_path) == ["dataclasses", "inspect"]


def store_only_constructors(source: str) -> list:
    """Line of every `__init__` of a Record subclass (a class with `Record`,
    or a Record subclass defined earlier in the module, among its bases)
    whose body is a single `vars(self).update(...)`."""
    records, found = {"Record"}, []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or not any(
                getattr(b, "id", getattr(b, "attr", None)) in records for b in node.bases):
            continue
        records.add(node.name)
        found += [fn.lineno for fn in node.body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
                  and len(fn.body) == 1 and isinstance(fn.body[0], ast.Expr)
                  and isinstance(fn.body[0].value, ast.Call)
                  and ast.unparse(fn.body[0].value.func) == "vars(self).update"]
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_records_write_no_store_only_constructor(path):
    assert store_only_constructors(path.read_text()) == []


def test_scan_finds_store_only_constructors():
    src = ("from .exactlin import Record\n"
           "class A(Record):\n"
           "    x: int\n"
           "    def __init__(self, x):\n"
           "        vars(self).update(x=x)\n"
           "class B(A):\n"
           "    def __init__(self, x):\n"
           "        vars(self).update(x=x)\n"
           "class C(Record):\n"
           "    x: int\n"
           "    def __init__(self, x):\n"
           "        if x < 0:\n"
           "            raise ValueError(x)\n"
           "        vars(self).update(x=x)\n"
           "class D:\n"
           "    def __init__(self, x):\n"
           "        vars(self).update(x=x)\n"
           "class E(exactlin.Record, mutable=True):\n"
           "    def __init__(self, x):\n"
           "        vars(self).update(x=x)\n")
    assert store_only_constructors(src) == [4, 7, 19]


def filtered_sorts(source: str, module: str) -> list:
    """(function, line) of every `sorted` call on a generator or list
    comprehension with an `if` filter, the function named by its dotted
    path, except inside exactlin's `sorted_cell`, the one writer of a
    structure-tensor cell.  A set comprehension, such as the failure keys of
    `module_law_failures`, is no cell and is not matched."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
                if module == "exactlin" and inner == ("sorted_cell",):
                    continue
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id == "sorted" and child.args
                  and isinstance(child.args[0], (ast.GeneratorExp, ast.ListComp))
                  and any(gen.ifs for gen in child.args[0].generators)):
                found.append((".".join(scope), child.lineno))
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_cells_are_written_only_by_sorted_cell(path):
    assert filtered_sorts(path.read_text(), path.stem) == []


def test_scan_finds_filtered_sorts():
    # the four cell writers that sorted_cell replaced, and what stays allowed
    src = ("class Tensor3:\n"
           "    def from_entries(dims, acc):\n"
           "        return tuple(sorted(kc for kc in acc.items() if kc[1]))\n"
           "def sorted_plane(d1, cells):\n"
           "    return [tuple(sorted((k, rat(v)) for k, v in c.items() if v)) for c in cells]\n"
           "class TensorElem:\n"
           "    def from_entries(dims, acc):\n"
           "        return dict(sorted([(k, c) for k, c in acc.items() if c != 0]))\n"
           "def twisted_product(cell):\n"
           "    return sorted((k, v) for k, v in cell.items() for _ in (1,) if v)\n"
           "def sorted_cell(acc):\n"
           "    return tuple(sorted((k, v) for k, v in acc.items() if v))\n"
           "def module_law_failures(acc, nv):\n"
           "    return sorted({key // nv for key, v in acc.items() if v})\n"
           "def unfiltered(acc):\n"
           "    return sorted(acc.items()), sorted(k for k in acc), sorted(x or 0 for x in acc)\n")
    sites = [("Tensor3.from_entries", 3), ("sorted_plane", 5),
             ("TensorElem.from_entries", 8), ("twisted_product", 10)]
    assert filtered_sorts(src, "exactlin") == sites
    assert filtered_sorts(src, "hopfcore") == sites + [("sorted_cell", 12)]
