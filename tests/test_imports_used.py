"""Source gates over the vekg modules, parsed with ``ast`` since no
linter ships with the project.

- Every name a module imports is read somewhere in that module.
  ``__init__`` is skipped: its imports are the package's re-exports.
- No module holds an ``assert`` statement: ``python -O`` strips them, so
  a check the program relies on must raise an exception of its own.
- Every module-level private (``_name``) function, class or constant is
  read somewhere in the package, so a retired helper cannot linger.
- Every parameter of every function is read in that function's body
  (``self`` and ``cls`` exempt), so an argument no caller needs is dropped.
- Every exception class in ``errors`` is named by another module, so an
  error nothing raises or catches is dropped.
- Only ``cli`` imports ``gc``: the collector is turned off around the
  command's stream loop there and nowhere else, so the library never
  changes its caller's collector (see ``tests/test_gc.py``).
- No class assigns ``__slots__`` or defines ``__eq__`` or ``__hash__`` by
  hand: records are ``@dataclass``es, which make these from one field
  list, so no record states its fields twice.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "vekg"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in imported if name not in read)


def test_gate_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Set\n"
                          "x: Set[int] = set()\n") == ["List", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def assert_lines(source: str):
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_gate_sees_an_assert():
    assert assert_lines("x = 1\nif x:\n    assert x, 'x'\n") == [3]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_asserts(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str):
    """``{name: line}`` of the module-level ``_name`` bindings (not dunders)."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        found.update((name, node.lineno) for name in names
                     if name.startswith("_") and not name.startswith("__"))
    return found


def names_read(source: str):
    """Every name a module reads: loaded names, attributes and imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_privates(sources):
    read = set().union(*(names_read(s) for s in sources))
    return sorted(name for s in sources for name in private_definitions(s)
                  if name not in read)


def test_gate_sees_an_unread_private():
    assert unread_privates([
        "_A = 1\n_b, _c = 2, 3\ndef _f():\n    return _A\nclass _K: pass\n",
        "from m import _K\nprint(_b)\n"]) == ["_c", "_f"]


def test_no_unread_private_names():
    assert unread_privates([p.read_text(encoding="utf-8") for p in SOURCES]) == []


def unread_parameters(source: str):
    """``function.parameter`` of each parameter that its function's body
    never reads; ``self`` and ``cls`` are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, args.vararg,
                                  *args.kwonlyargs, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{node.name}.{name}" for name in params
                  if name not in read and name not in ("self", "cls")]
    return sorted(found)


def test_gate_sees_an_unread_parameter():
    assert unread_parameters(
        "def f(a, b, *c, d=1, **e):\n    return a + d\n"
        "class K:\n    def m(self, x):\n        def g(y):\n            return x\n"
        "        return g\n"
        "    @classmethod\n    def n(cls, z=lambda w: w):\n        return 1\n"
    ) == ["f.b", "f.c", "f.e", "g.y", "n.z"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def unnamed_exceptions(errors_source: str, other_sources):
    """The classes ``errors_source`` defines that no other module names,
    so an exception nothing raises or catches cannot linger."""
    named = set().union(*(names_read(s) for s in other_sources))
    return sorted(node.name for node in ast.parse(errors_source).body
                  if isinstance(node, ast.ClassDef) and node.name not in named)


def test_gate_sees_an_unnamed_exception():
    assert unnamed_exceptions(
        "class A(Exception): pass\nclass B(A): pass\nclass C(A): pass\n",
        ["from .errors import A\n", "from . import errors\nraise errors.C()\n"]
    ) == ["B"]


def test_every_exception_is_named_by_another_module():
    errors = SRC / "errors.py"
    assert unnamed_exceptions(
        errors.read_text(encoding="utf-8"),
        [p.read_text(encoding="utf-8") for p in SOURCES if p != errors]) == []


def modules_importing(module: str, sources):
    """The names of the sources (``{name: source}``) that import ``module``."""
    found = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module.split(".")[0]]
            else:
                continue
            if module in imported:
                found.append(name)
                break
    return sorted(found)


def test_gate_sees_a_gc_import():
    assert modules_importing("gc", {
        "a.py": "import os, gc\n", "b.py": "def f():\n    from gc import freeze\n",
        "c.py": "import gcx\nfrom . import gc_util\n", "d.py": "x = 'import gc'\n",
    }) == ["a.py", "b.py"]


def test_only_cli_imports_gc():
    assert modules_importing("gc", {p.name: p.read_text(encoding="utf-8")
                                    for p in SOURCES}) == ["cli.py"]


RECORD_DUNDERS = {"__slots__", "__eq__", "__hash__"}


def hand_made_record_dunders(source: str):
    """``Class.name`` of each ``__slots__``, ``__eq__`` or ``__hash__``
    that a class body assigns or defines."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            found += [f"{node.name}.{name}" for name in names if name in RECORD_DUNDERS]
    return sorted(found)


def test_gate_sees_a_hand_made_record():
    assert hand_made_record_dunders(
        "class A:\n    __slots__ = ('x',)\n    def __eq__(self, o):\n        return 1\n"
        "class B:\n    __hash__ = None\n    __slots__: tuple = ()\n"
        "    def __repr__(self):\n        return 'B'\n"
        "def f():\n    class C:\n        def __hash__(self):\n            return 0\n"
        "    return C\n"
        "@dataclass(slots=True)\nclass D:\n    x: int\n"
    ) == ["A.__eq__", "A.__slots__", "B.__hash__", "B.__slots__", "C.__hash__"]


def test_no_class_makes_its_own_slots_eq_or_hash():
    assert [f"{p.name}: {found}" for p in SOURCES
            for found in hand_made_record_dunders(p.read_text(encoding="utf-8"))] == []
