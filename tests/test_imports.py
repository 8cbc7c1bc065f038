"""Every module-level import in the package is used by its module, every
public module-level name is used somewhere in the repository, every
parameter is read by its function, every record field is read, every
immutable record is a `record` NamedTuple, no module but the engine
unwraps a `SimTime`, and importing the package loads no module that only
an unused path needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "dispo6"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# where a public name may be used: the package, its tests and the benchmark
USING_TREES = ("src", "tests", "perfbench")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = "import os\nfrom typing import Callable, Any\nx: Callable\n"
    assert unused_imports(source) == ["Any (line 2)", "os (line 1)"]


def public_names(source: str) -> list[tuple[str, int]]:
    """Module-level functions, classes and constants not starting with '_'."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        names.extend((name, node.lineno) for name in targets
                     if not name.startswith("_"))
    return names


def referenced_names(source: str) -> set[str]:
    """Names read or attributes looked up; a definition or a bare import is
    not a use."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_name_is_used():
    used = set()
    for tree in USING_TREES:
        for path in (REPO / tree).rglob("*.py"):
            used |= referenced_names(path.read_text())
    dead = [f"{path.name}: {name} (line {line})"
            for path in MODULES if path.name != "__main__.py"
            for name, line in public_names(path.read_text())
            if name not in used]
    assert dead == []


def test_dead_name_checker_flags_an_unused_definition():
    source = "LIMIT = 3\ndef used(): return LIMIT\nclass Dead: pass\n"
    names = [name for name, _ in public_names(source)]
    assert names == ["LIMIT", "used", "Dead"]
    assert "Dead" not in referenced_names(source + "used()\n")
    assert {"LIMIT", "used"} <= referenced_names(source + "used()\n")


def unread_parameters(source: str) -> list[str]:
    """Parameters that a function's body never reads.

    Exempt are signatures that a caller dictates: engine callbacks and
    handlers (`on_*`, `_on_*`), functions listed in a class's dispatch
    table, and empty hooks (a docstring or `pass`) kept for overriders.
    """
    tree = ast.parse(source)
    dispatched = {value.id for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef)
                  for stmt in cls.body if isinstance(stmt, ast.Assign)
                  and isinstance(stmt.value, ast.Dict)
                  for value in stmt.value.values if isinstance(value, ast.Name)}
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        empty_hook = all(isinstance(stmt, ast.Pass) or (
            isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
            for stmt in node.body)
        if (node.name.startswith(("on_", "_on_")) or node.name in dispatched
                or empty_hook):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {name.id for stmt in node.body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        unread.extend(f"{node.name}({param}) (line {node.lineno})"
                      for param in params
                      if param not in ("self", "cls") and param not in read)
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_unread_parameter_checker():
    source = (
        "def f(a, b, *, c=0):\n    return a + (lambda: c)()\n"
        "class N:\n"
        "    def on_packet(self, packet): pass\n"
        "    def _skip(self, x): return None\n"
        "    def hook(self, y):\n        '''for overriders'''\n"
        "    def g(self, z): return self\n"
        "    _handlers = {int: _skip}\n")
    assert unread_parameters(source) == ["f(b) (line 1)", "g(z) (line 8)"]


def record_fields(source: str) -> list[tuple[str, str, int]]:
    """(class, field, line) for each annotated field of a dataclass or
    NamedTuple."""
    fields = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        # `@dataclass`, `@dataclass(...)` or a `NamedTuple` base
        marks = [getattr(d, "func", d) for d in node.decorator_list] + node.bases
        if not any(isinstance(m, ast.Name) and m.id in ("dataclass", "NamedTuple")
                   for m in marks):
            continue
        fields.extend((node.name, stmt.target.id, stmt.lineno)
                      for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name))
    return fields


def read_attributes(source: str) -> set[str]:
    """Attributes looked up for their value; a store is not a read."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_record_field_is_read():
    # `*Counters` records are written out whole (`asdict` into metrics.json)
    read = set()
    for tree in USING_TREES:
        for path in (REPO / tree).rglob("*.py"):
            read |= read_attributes(path.read_text())
    unread = [f"{path.name}: {cls}.{name} (line {line})"
              for path in MODULES
              for cls, name, line in record_fields(path.read_text())
              if not cls.endswith("Counters") and name not in read]
    assert unread == []


def test_unread_field_checker():
    source = (
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "@dataclass(frozen=True)\nclass A:\n    kept: int\n    lost: int\n"
        "class P(NamedTuple):\n    seen: str\n"
        "class Plain:\n    ignored: int\n"
        "def f(a, p):\n    a.lost = 1\n    return a.kept + len(p.seen)\n")
    assert record_fields(source) == [("A", "kept", 5), ("A", "lost", 6),
                                     ("P", "seen", 8)]
    assert read_attributes(source) == {"kept", "seen"}


def non_record_immutables(source: str) -> list[str]:
    """Immutable records not written as `record` NamedTuples: a frozen
    dataclass without a `__post_init__` check, or a NamedTuple without
    `@record`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = node.decorator_list
        frozen = any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                     and d.func.id == "dataclass" and any(
                         k.arg == "frozen" and isinstance(k.value, ast.Constant)
                         and k.value.value is True for k in d.keywords)
                     for d in decorators)
        validated = any(isinstance(stmt, ast.FunctionDef)
                        and stmt.name == "__post_init__" for stmt in node.body)
        named_tuple = any(isinstance(b, ast.Name) and b.id == "NamedTuple"
                          for b in node.bases)
        is_record = any(isinstance(d, ast.Name) and d.id == "record"
                        for d in decorators)
        if (frozen and not validated) or (named_tuple and not is_record):
            found.append(f"{node.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_immutable_records_are_record_named_tuples(path):
    # a frozen dataclass costs ~6x a NamedTuple class at import, and every
    # run imports the package; only a validating one earns that
    assert non_record_immutables(path.read_text()) == []


def test_frozen_record_checker():
    source = (
        "@dataclass(frozen=True, slots=True)\nclass Plain:\n    a: int\n"
        "@dataclass(frozen=True)\nclass Checked:\n    a: int\n"
        "    def __post_init__(self): pass\n"
        "@dataclass(slots=True)\nclass Mutable:\n    a: int\n"
        "class Bare(NamedTuple):\n    a: int\n"
        "@record\nclass Kept(NamedTuple):\n    a: int\n")
    assert non_record_immutables(source) == ["Plain (line 2)",
                                             "Bare (line 11)"]


def micros_reads(source: str) -> list[int]:
    """Lines that read a `.micros` attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "micros"
                  and isinstance(node.ctx, ast.Load))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "engine.py"],
                         ids=lambda p: p.name)
def test_time_is_int_micros_outside_the_engine(path):
    # every layer takes and keeps time as int us; a `SimTime` unwrapped
    # with `.micros` is a wrapper that should not have been built
    assert micros_reads(path.read_text()) == []


def test_micros_read_checker():
    source = ("t = now.micros\nnow.micros = 1\ny = t.microseconds\n"
              "z = f(a.micros)\n")
    assert micros_reads(source) == [1, 4]


def test_package_import_leaves_heavy_modules_out():
    # every run imports the package; these are for `sweep --jobs` > 1 and
    # for key formats the package never reads
    modules = [f"dispo6.{p.stem}" for p in MODULES]
    script = (f"import sys\nfor m in {modules!r}:\n    __import__(m)\n"
              "print(sorted(m for m in sys.modules if m == 'multiprocessing'"
              " or m == 'cryptography.hazmat.primitives.serialization'))\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"
