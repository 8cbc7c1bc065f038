"""Every module-level import in the package is used by its module, every
public module-level name is used somewhere in the repository, no public
name or method but a listed few is used only by the tests, every
parameter is read by its function, every defaulted parameter is passed
and every scenario config field is set by some code outside the tests,
every record field and instance attribute is read, every immutable
record is a `record`, every record built through `tuple.__new__` is
passed whole and has no check, only `messages` binds `tuple.__new__`,
only the engine's one route lookup reads its route tables, no class is
built through a named tuple, only the counters and the config are
dataclasses, no module but the engine unwraps a `SimTime`, and importing
the package loads no module that only an unused path needs."""

import ast
import hashlib
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
    """Imported names the module never reads. `from m import X as X`, the
    explicit re-export form of PEP 484, is left out: the module imports X
    for its own importers."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if isinstance(node, ast.ImportFrom) and alias.asname == alias.name:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = ("import os\nfrom typing import Callable, Any\nx: Callable\n"
              "from json import dumps as dumps, loads as load\n")
    assert unused_imports(source) == ["Any (line 2)", "load (line 4)",
                                      "os (line 1)"]


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


def public_definitions(source: str) -> list[tuple[str, str]]:
    """(qualified name, name) for each public module-level name and each
    public method of a public module-level class."""
    found = [(name, name) for name, _ in public_names(source)]
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found.extend((f"{node.name}.{f.name}", f.name) for f in node.body
                         if isinstance(f, ast.FunctionDef)
                         and not f.name.startswith("_"))
    return found


def unused_by_the_program(package_sources, program_sources) -> list[str]:
    """The public definitions of `package_sources` that no source of the
    program references, sorted. A method counts as used only when an
    attribute of that name is read (`x.method`): a local variable or a
    parameter that shares its name is no use of it."""
    names, attributes = set(), set()
    for source in program_sources:
        names |= referenced_names(source)
        attributes |= read_attributes(source)
    return sorted(qualified for source in package_sources
                  for qualified, name in public_definitions(source)
                  if name not in (attributes if "." in qualified else names))


# Public API that only the tests call, each with its reason to stay.
TEST_ONLY_API = (
    # SAS pairing, which the north star names
    "MobileHost.pair_with",
    # the paper's spam defence
    "MobileHost.spit_block",
    # a host's move, which a planned stateful fuzzer drives
    "MobileHost.move_to_subnet",
    # the way out of a dead battery, for a planned daily recharge
    "EnergyAccount.recharge",
    # a management operation; perfbench/tracing.py wraps it by its name
    "HomeAgent.deconfigure_address",
    # the twin checks' reference count of queued work
    "Simulator.pending",
    # the rejection oracle, for a planned observed-against-expected report
    "expected_daily_rejections",
)


def program_sources() -> list[str]:
    return [path.read_text() for tree in ("src", "perfbench")
            for path in sorted((REPO / tree).rglob("*.py"))]


def test_only_the_listed_api_is_test_only():
    # API that only tests call is behaviour the program does not have;
    # an entry that the program comes to use leaves the list too
    package = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unused_by_the_program(package, program_sources()) == sorted(
        TEST_ONLY_API)


def test_test_only_api_checker_flags_a_planted_method():
    # energy.py ends inside `EnergyAccount`, so the plants are its methods;
    # the program names the second only as a local variable
    energy = (PACKAGE / "energy.py").read_text()
    planted = energy + (
        "\n    def planted(self):\n        return self\n"
        "\n    def shadowed(self):\n        return self\n")
    package = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "energy.py"] + [planted]
    program = program_sources() + [
        "def f(xs):\n    shadowed = len(xs)\n    return shadowed\n"]
    assert unused_by_the_program(package, program) == sorted(
        TEST_ONLY_API + ("EnergyAccount.planted", "EnergyAccount.shadowed"))


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


def defaulted_parameters(source: str) -> list[tuple[str, str, str, int | None]]:
    """(name, callee, parameter, position) for each defaulted parameter of
    a public function or method, `__init__` included. A class is called by
    its name, a method by its own; the position leaves `self` and `cls`
    out, and is None for a keyword-only parameter."""
    found = []

    def visit(body, cls=None):
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                visit(node.body, node.name)
            elif isinstance(node, ast.FunctionDef) and (
                    node.name == "__init__" or not node.name.startswith("_")):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                if cls is not None and positional[:1] in (["self"], ["cls"]):
                    positional = positional[1:]
                name = node.name if cls is None else f"{cls}.{node.name}"
                callee = cls if node.name == "__init__" else node.name
                first = len(positional) - len(args.defaults)
                found.extend((name, callee, arg, i)
                             for i, arg in enumerate(positional) if i >= first)
                found.extend((name, callee, a.arg, None) for a, default
                             in zip(args.kwonlyargs, args.kw_defaults)
                             if default is not None)

    visit(ast.parse(source).body)
    return found


def passed_arguments(source: str) -> set[tuple[str, str | int]]:
    """(callee, keyword) for each keyword a call passes, and (callee, i)
    for each position i it fills; a `*args` fills every position."""
    passed = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = (func.id if isinstance(func, ast.Name)
                  else func.attr if isinstance(func, ast.Attribute) else None)
        if callee is None:
            continue
        passed.update((callee, k.arg) for k in node.keywords if k.arg)
        if any(isinstance(a, ast.Starred) for a in node.args):
            passed.add((callee, "*"))
        passed.update((callee, i) for i in range(len(node.args)))
    return passed


# Defaulted parameters that no caller outside the tests passes, each with
# its reason to stay.
UNPASSED_DEFAULTS = (
    # tests vary latency for the segment tie rules
    ("Simulator.__init__", "latency_s"),
    # the spoofed-flood attack, pinned by the golden `detect_ro_spoofed`
    ("Flooder.flood_between", "spoof"),
    # the seam where tests put the man-in-the-middle attacker
    ("run_pairing", "channel"),
    # tests shrink the SAS to measure failure rates
    ("run_pairing", "sas_bits"),
)


def unpassed_defaults(definitions: str,
                      passed: set[tuple[str, str | int]]) -> list[str]:
    return [f"{name}({param})"
            for name, callee, param, position in defaulted_parameters(definitions)
            if not {(callee, param), (callee, position), (callee, "*")} & passed]


def test_every_defaulted_parameter_is_passed():
    # a default that no caller overrides is a constant; the tests alone
    # varying it do not make it a setting
    passed = set()
    for tree in ("src", "perfbench"):
        for path in (REPO / tree).rglob("*.py"):
            passed |= passed_arguments(path.read_text())
    unpassed = [found for path in MODULES
                for found in unpassed_defaults(path.read_text(), passed)]
    # an exemption that a caller comes to pass leaves the list too
    assert sorted(unpassed) == sorted(f"{name}({param})"
                                      for name, param in UNPASSED_DEFAULTS)


def test_unpassed_default_checker():
    definitions = (
        "def f(a, b=1, c=2, *, d=3): pass\n"
        "def _hidden(x=0): pass\n"
        "class K:\n"
        "    def __init__(self, size=0): pass\n"
        "    def m(self, y=0, z=0): pass\n"
        "    @classmethod\n    def make(cls, w=0): pass\n"
        "class _Private:\n    def n(self, v=0): pass\n")
    assert [(name, param) for name, _, param, _ in
            defaulted_parameters(definitions)] == [
        ("f", "b"), ("f", "c"), ("f", "d"), ("K.__init__", "size"),
        ("K.m", "y"), ("K.m", "z"), ("K.make", "w")]
    passed = passed_arguments("f(0, 1)\nK(size=2).m(*args)\nx.make(0)\n")
    assert unpassed_defaults(definitions, passed) == ["f(c)", "f(d)"]


def set_config_keys(source: str) -> set[str]:
    """Names that `source`, outside the `ScenarioConfig` class body, sets
    as a keyword to `ScenarioConfig` or `replace`, as a string key of a
    dict literal, or as a string subscript key."""
    found = set()
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == "ScenarioConfig":
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Call):
            func = node.func
            callee = getattr(func, "id", getattr(func, "attr", None))
            if callee in ("ScenarioConfig", "replace"):
                found.update(k.arg for k in node.keywords if k.arg)
        keys = (node.keys if isinstance(node, ast.Dict)
                else [node.slice] if isinstance(node, ast.Subscript) else [])
        found.update(k.value for k in keys if isinstance(k, ast.Constant)
                     and isinstance(k.value, str))
    return found


# Config fields that nothing outside the tests sets, each with its reason
# to stay a setting.
UNSET_CONFIG_FIELDS = (
    # tests vary arrivals (p = 0, p = 1) and the oracle's p
    "daily_call_probability",
    # the paper's e-mail/IM channel, checked against the oracle
    "oob_retry_delay_days",
)


def test_every_config_field_is_set():
    # a field that no workload, preset or CLI flag sets is a constant
    scenario = ast.parse((PACKAGE / "scenario.py").read_text())
    [config] = [node for node in scenario.body
                if isinstance(node, ast.ClassDef) and node.name == "ScenarioConfig"]
    fields = [stmt.target.id for stmt in config.body
              if isinstance(stmt, ast.AnnAssign)]
    set_keys = set()
    for tree in ("src", "perfbench"):
        for path in (REPO / tree).rglob("*.py"):
            set_keys |= set_config_keys(path.read_text())
    # an exemption that comes to be set leaves the list too
    assert sorted(f for f in fields if f not in set_keys) == sorted(
        UNSET_CONFIG_FIELDS)


def test_config_key_checker():
    source = (
        "class ScenarioConfig:\n"
        "    def m(self, kwargs):\n        kwargs['inside'] = 1\n"
        "        return ScenarioConfig(hidden=1)\n"
        "config = ScenarioConfig(a=1)\n"
        "dataclasses.replace(config, b=2)\n"
        "updates = {'c': 3, **extra}\n"
        "updates['d'] = 4\n"
        "other(e=5)\nupdates[key] = 6\nupdates[0] = 7\n")
    assert set_config_keys(source) == {"a", "b", "c", "d"}


def record_fields(source: str) -> list[tuple[str, str, int]]:
    """(class, field, line) for each annotated field of a dataclass or a
    `record`."""
    fields = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        # `@dataclass`, `@dataclass(...)` or `@record`
        marks = [getattr(d, "func", d) for d in node.decorator_list]
        if not any(isinstance(m, ast.Name) and m.id in ("dataclass", "record")
                   for m in marks):
            continue
        fields.extend((node.name, stmt.target.id, stmt.lineno)
                      for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name))
    return fields


def self_attributes(source: str) -> list[tuple[str, str, int]]:
    """(class, attribute, line) for each store to an attribute of a
    method's first parameter, `self`: an instance attribute."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not (isinstance(method, ast.FunctionDef) and method.args.args):
                continue
            me = method.args.args[0].arg
            found.extend((cls.name, node.attr, node.lineno)
                         for node in ast.walk(method)
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.ctx, ast.Store)
                         and isinstance(node.value, ast.Name)
                         and node.value.id == me)
    return found


def read_attributes(source: str) -> set[str]:
    """Attributes looked up for their value, by `x.name` or by `getattr`
    with a constant name, or with a loop variable over a literal tuple or
    list of names; a store is not a read."""
    tree = ast.parse(source)
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    looped: dict[str, set[str]] = {}  # loop variable -> the names it takes
    for node in ast.walk(tree):
        if (isinstance(node, (ast.For, ast.comprehension))
                and isinstance(node.target, ast.Name)
                and isinstance(node.iter, (ast.Tuple, ast.List))):
            looped.setdefault(node.target.id, set()).update(
                item.value for item in node.iter.elts
                if isinstance(item, ast.Constant) and isinstance(item.value, str))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) >= 2):
            name = node.args[1]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                read.add(name.value)
            elif isinstance(name, ast.Name):
                read |= looped.get(name.id, set())
    return read


def unread_fields(package_sources, program_sources) -> list[str]:
    """`Class.field` for each field of a record or a dataclass, and each
    instance attribute that a class assigns on `self`, in
    `package_sources` that no source of the program loads as an attribute,
    sorted. `*Counters` records are written out whole (`asdict` into
    metrics.json), so they are left out.

    Two limits. Names are matched bare, as in `referenced_names`: a field
    passes when an attribute of its name is read from any object. And a
    read passes whatever it is for: a field read only to build the next
    copy of itself passes, as `Packet.size_bytes` did while each tunnel
    packet added its header to the size of the packet it carried."""
    read = set()
    for source in program_sources:
        read |= read_attributes(source)
    return sorted({f"{cls}.{name}" for source in package_sources
                   for cls, name, _ in record_fields(source) + self_attributes(source)
                   if not cls.endswith("Counters") and name not in read})


# Record fields that the program writes and never reads, each with its
# reason to stay.
UNREAD_FIELDS = (
    # why a SAS pairing aborted and the two strings its humans compare;
    # pairing is test-only API (`MobileHost.pair_with`)
    "PairResult.abort_reason",
    "PairResult.initiator_sas",
    "PairResult.responder_sas",
    # the variance behind `z`, checked against the textbook value
    "MannKendallResult.var_s",
    # read by position: `write_call_log` unpacks each record into its row
    "CallRecord.had_disposable",
)

# Instance attributes that the program assigns and never reads, each with
# its reason to stay.
UNREAD_ATTRIBUTES = ()
UNREAD = UNREAD_FIELDS + UNREAD_ATTRIBUTES


def test_every_record_field_is_read():
    # a field only the tests read is data the program does not use; an
    # exemption that the program comes to read leaves the list too
    package = [path.read_text() for path in MODULES]
    assert unread_fields(package, program_sources()) == sorted(UNREAD)


def test_unread_field_guard_flags_a_planted_field():
    messages = (PACKAGE / "messages.py").read_text()
    planted = messages.replace('    """The reply to a `Ping`."""\n',
                               '    """The reply to a `Ping`."""\n\n'
                               '    planted: int = 0\n')
    assert planted != messages
    package = [path.read_text() for path in MODULES
               if path.name != "messages.py"] + [planted]
    assert unread_fields(package, program_sources()) == sorted(
        UNREAD + ("Pong.planted",))
    # one load of the attribute anywhere in the program is a read
    reader = "def size(pong):\n    return pong.planted\n"
    assert unread_fields(package, program_sources() + [reader]) == sorted(
        UNREAD)


def test_unread_field_guard_flags_a_planted_attribute():
    # a tally only incremented, as `HipGate.passes` was, is never read
    monitor = (PACKAGE / "monitor.py").read_text()
    planted = monitor.replace(
        "        self.threshold_pps = threshold_pps\n",
        "        self.threshold_pps = threshold_pps\n"
        "        self.planted = 0\n        self.planted += 1\n")
    assert planted != monitor
    package = [path.read_text() for path in MODULES
               if path.name != "monitor.py"] + [planted]
    assert unread_fields(package, program_sources()) == sorted(
        UNREAD + ("IntrusionMonitor.planted",))
    # a read by name, as the benchmark reads the ledger's fields, is a read
    reader = ("def tally(monitor):\n"
              "    return {f: getattr(monitor, f) for f in ('planted',)}\n")
    assert unread_fields(package, program_sources() + [reader]) == sorted(
        UNREAD)


def test_unread_field_checker():
    source = (
        "from dataclasses import dataclass\n"
        "from dispo6.messages import record\n"
        "@dataclass(frozen=True)\nclass A:\n    kept: int\n    lost: int\n"
        "@record\nclass P:\n    seen: str\n"
        "class Plain:\n    ignored: int\n"
        "def f(a, p):\n    a.lost = 1\n    return a.kept + len(p.seen)\n")
    assert record_fields(source) == [("A", "kept", 5), ("A", "lost", 6),
                                     ("P", "seen", 9)]
    assert read_attributes(source) == {"kept", "seen"}
    source = (
        "class K:\n"
        "    def __init__(me, n):\n        me.size = n\n        me.hits = 0\n"
        "    def hit(self, other):\n        self.hits += 1\n"
        "        other.elsewhere = 1\n        self.size.x = 2\n"
        "def f(k):\n    return getattr(k, 'size'), getattr(k, name)\n"
        "rows = [getattr(k, a) for a in ('hits', 'x')]\n")
    assert self_attributes(source) == [("K", "size", 3), ("K", "hits", 4),
                                       ("K", "hits", 6)]
    assert read_attributes(source) == {"size", "hits", "x"}


def record_shapes(sources) -> dict[str, tuple[int, bool] | None]:
    """Each `record` class of `sources`: (field count, whether it defines
    `_check`); None for a name two classes share."""
    shapes = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.ClassDef) and any(
                    isinstance(d, ast.Name) and d.id == "record"
                    for d in node.decorator_list)):
                continue
            fields = sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
            checked = any(isinstance(stmt, ast.FunctionDef)
                          and stmt.name == "_check" for stmt in node.body)
            shapes[node.name] = (None if node.name in shapes
                                 else (fields, checked))
    return shapes


# the record builder's own rebuild from fields already built
BUILDER_FUNCTIONS = ("_replace",)


def frameless_builds(source: str, exempt=()) -> list[ast.Call]:
    """The `_tuple_new(...)` calls of a module, outside the functions
    named in `exempt`."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in exempt:
            node.body = []
    return sorted((node for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   and node.func.id == "_tuple_new"),
                  key=lambda call: (call.lineno, call.col_offset))


def bad_frameless_builds(source: str, shapes, exempt=()) -> list[str]:
    """`_tuple_new` calls that do not pass a `record` without `_check`
    one tuple display of exactly one item per field. Such a build runs no
    `_check` and fills in no default."""
    found = []
    for call in frameless_builds(source, exempt):
        args = call.args
        name = getattr(args[0], "id", None) if args else None
        shape = shapes.get(name)
        display = args[1] if len(args) == 2 else None
        if (shape is None or shape[1] or call.keywords
                or not isinstance(display, ast.Tuple)
                or any(isinstance(item, ast.Starred) for item in display.elts)
                or len(display.elts) != shape[0]):
            found.append(f"{name} (line {call.lineno})")
    return found


def test_every_frameless_build_is_a_whole_unchecked_record():
    sources = {path.name: path.read_text() for path in MODULES}
    shapes = record_shapes(sources.values())
    exempt = {"messages.py": BUILDER_FUNCTIONS}
    bad = [f"{name}: {found}" for name, source in sources.items()
           for found in bad_frameless_builds(source, shapes,
                                             exempt.get(name, ()))]
    assert bad == []
    built = {call.args[0].id for name, source in sources.items()
             for call in frameless_builds(source, exempt.get(name, ()))}
    assert {"Packet", "Encapsulated", "ReverseTunneled", "CallRequest",
            "CallAccept", "CallTimeout", "StartCall",
            "CallRecord", "ManagementMessage", "SessionTimer",
            "RequestResult", "AddressRequest", "AddressResponse"} <= built


def test_frameless_build_checker():
    source = (
        "@record\nclass P:\n    a: int\n    b: int = 0\n"
        "@record\nclass V:\n    a: int\n    def _check(self): pass\n"
        "class Plain:\n    a: int\n"
        "def _make(cls, fields):\n    return _tuple_new(cls, fields)\n"
        "_tuple_new(P, (1, 2))\n"
        "_tuple_new(P, (1,))\n"
        "_tuple_new(V, (1,))\n"
        "_tuple_new(P, (*rest, 2))\n"
        "_tuple_new(P, [1, 2])\n"
        "_tuple_new(Plain, (1,))\n")
    shapes = record_shapes([source])
    assert shapes == {"P": (2, False), "V": (1, True)}
    # short, checked, starred, a list, not a record
    assert bad_frameless_builds(source, shapes, ("_make",)) == [
        "P (line 14)", "V (line 15)", "P (line 16)", "P (line 17)",
        "Plain (line 18)"]
    assert bad_frameless_builds(source, shapes)[0] == "cls (line 12)"
    assert record_shapes([source, "@record\nclass P:\n    a: int\n"])["P"] is None


def tuple_new_reads(source: str) -> list[int]:
    """The lines that read `tuple.__new__`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "__new__"
            and isinstance(node.value, ast.Name) and node.value.id == "tuple"]


def test_only_messages_binds_tuple_new():
    # the other modules import its `_tuple_new`
    found = {path.name: tuple_new_reads(path.read_text()) for path in MODULES}
    assert {name: len(lines) for name, lines in found.items() if lines} == {
        "messages.py": 1}


def test_tuple_new_read_checker():
    source = ("_tuple_new = tuple.__new__\nnew = object.__new__\n"
              "def f(cls):\n    return tuple.__new__(cls, ())\n")
    assert tuple_new_reads(source) == [1, 4]


ROUTE_TABLES = ("_exact_routes", "_prefix_routes")
# the engine's functions that build or change the route tables
ROUTE_TABLE_WRITERS = ("Simulator.__init__", "Simulator.register_route",
                       "Simulator.unregister_route",
                       "Simulator.register_prefix_route")


def route_table_readers(source: str) -> list[str]:
    """The functions and methods of a module, by qualified name, that name
    a route table and are not among its writers."""
    def name_of(node):
        return getattr(node, "name", f"line {node.lineno}")

    found = []
    for node in ast.parse(source).body:
        functions = [(name_of(node), node)]
        if isinstance(node, ast.ClassDef):
            functions = [(f"{node.name}.{name_of(f)}", f) for f in node.body]
        for name, function in functions:
            if name not in ROUTE_TABLE_WRITERS and any(
                    isinstance(n, ast.Attribute) and n.attr in ROUTE_TABLES
                    for n in ast.walk(function)):
                found.append(name)
    return found


def test_only_the_route_lookup_reads_the_route_tables():
    readers = [f"{path.name}: {name}" for path in MODULES
               for name in route_table_readers(path.read_text())]
    assert readers == ["engine.py: Simulator._route"]


def test_route_table_reader_checker():
    source = ("class Simulator:\n"
              "    def __init__(self):\n        self._exact_routes = {}\n"
              "    def register_route(self, a, n):\n"
              "        self._exact_routes[a] = n\n"
              "    def send(self, p):\n"
              "        return self._prefix_routes.get(p.dst >> 64)\n"
              "    def other(self):\n        return 1\n"
              "def peek(sim):\n    return sim._exact_routes\n"
              "TABLE = Simulator()._prefix_routes\n")
    assert route_table_readers(source) == ["Simulator.send", "peek",
                                           "line 12"]


def non_record_immutables(source: str) -> list[str]:
    """Immutable records not written as `record`s: a frozen dataclass
    without a `__post_init__` check."""
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
        if frozen and not validated:
            found.append(f"{node.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_immutable_records_are_record_named_tuples(path):
    # a frozen dataclass costs several times a `record` class at import, and
    # every run imports the package; only a validating one earns that
    assert non_record_immutables(path.read_text()) == []


def test_frozen_record_checker():
    source = (
        "@dataclass(frozen=True, slots=True)\nclass Plain:\n    a: int\n"
        "@dataclass(frozen=True)\nclass Checked:\n    a: int\n"
        "    def __post_init__(self): pass\n"
        "@dataclass(slots=True)\nclass Mutable:\n    a: int\n"
        "@record\nclass Kept:\n    a: int\n")
    assert non_record_immutables(source) == ["Plain (line 2)"]


def named_tuple_classes(source: str) -> list[str]:
    """Classes built through `typing.NamedTuple` or `collections.namedtuple`,
    as a base or by a call, by either spelling."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            builders, name = node.bases, node.name
        elif isinstance(node, ast.Call):
            builders, name = [node.func], "call"
        else:
            continue
        if any(getattr(b, "id", getattr(b, "attr", None))
               in ("NamedTuple", "namedtuple") for b in builders):
            found.append(f"{name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_class_is_a_named_tuple(path):
    # `typing.NamedTuple` compiles each class's `__new__` and type-checks
    # its annotations, several times a `record` class's cost, at every import
    assert named_tuple_classes(path.read_text()) == []


def test_named_tuple_checker():
    source = ("import collections, typing\nfrom typing import NamedTuple\n"
              "class A(NamedTuple):\n    a: int\n"
              "@record\nclass B(typing.NamedTuple):\n    b: int\n"
              "C = collections.namedtuple('C', 'c')\n"
              "D = NamedTuple('D', [('d', int)])\n"
              "@record\nclass E:\n    e: int\n"
              "class F(tuple):\n    pass\n")
    assert named_tuple_classes(source) == ["A (line 3)", "B (line 6)",
                                           "call (line 8)", "call (line 9)"]


def dataclass_names(source: str) -> list[str]:
    """Classes decorated with `dataclass`, called or not, by either name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
                getattr(m, "id", getattr(m, "attr", None)) == "dataclass"
                for m in (getattr(d, "func", d) for d in node.decorator_list)):
            found.append(node.name)
    return found


# the counters, which `asdict` writes out and perfbench/checks.py rebuilds
# from keywords, and the config, which needs `fields` and `replace`
DATACLASSES = {"TrafficCounters", "FloodStats", "AgentCounters", "HostCounters",
               "ScenarioConfig"}


def test_only_the_counters_and_the_config_are_dataclasses():
    # each dataclass execs generated methods at every import (~0.9 ms);
    # a value is a `record`, a mutable object a `__slots__` class
    assert sorted(name for path in MODULES
                  for name in dataclass_names(path.read_text())) == sorted(DATACLASSES)


def test_dataclass_finder():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "@dataclass\nclass A:\n    a: int\n"
              "@dataclasses.dataclass(slots=True)\nclass B:\n    b: int\n"
              "@record\nclass C:\n    c: int\n"
              "class D:\n    __slots__ = ('d',)\n")
    assert dataclass_names(source) == ["A", "B"]


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


# loaded only by the path that needs it: a parallel sweep, a run that
# signs, and reading or writing a YAML config
HEAVY = ("multiprocessing", "cryptography", "yaml")


def fresh_interpreter(script: str, cwd: Path | None = None):
    """The Python literal a fresh interpreter prints last, running `script`."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=cwd,
                         check=True, capture_output=True, text=True,
                         timeout=60).stdout
    return ast.literal_eval(out.splitlines()[-1])


def heavy_modules_after(body: str, cwd: Path | None = None,
                        watched: tuple[str, ...] = HEAVY) -> list[str]:
    """The `watched` modules a fresh interpreter holds after running `body`;
    a package counts as held once any of its submodules is."""
    return fresh_interpreter(
        f"{body}\nimport sys\n"
        f"print(sorted(m for m in {watched!r} if m in sys.modules))\n", cwd)


def test_package_import_leaves_heavy_modules_out():
    # every run imports the package
    modules = [f"dispo6.{p.stem}" for p in MODULES]
    assert heavy_modules_after(f"for m in {modules!r}:\n    __import__(m)") == []


# what the benchmark workloads import; the flood and prime-attack ones
# run no scenario
WORKLOAD_IMPORTS = ("cli", "adversary", "caller", "crypto", "energy", "engine",
                    "home_agent", "mobile_host", "addressing")


def test_workload_imports_leave_the_scenario_runner_out():
    body = "\n".join(f"import dispo6.{name}" for name in WORKLOAD_IMPORTS)
    assert heavy_modules_after(
        body, watched=("dispo6.scenario", "dispo6.stats")) == []


def test_workload_imports_build_no_named_tuple_and_leave_sas_out():
    # every run pays for the classes it imports, and no workload pairs
    script = "\n".join([
        "import sys, typing",
        "built = []",
        "build = typing.NamedTupleMeta.__new__",
        "typing.NamedTupleMeta.__new__ = (",
        "    lambda meta, name, *rest: built.append(name) or build(meta, name, *rest))",
        *(f"import dispo6.{name}" for name in WORKLOAD_IMPORTS),
        "print((built, 'dispo6.sas' in sys.modules))"])
    assert fresh_interpreter(script) == ([], False)


# sha256 of the battery.csv `dispo6 drain idle` writes, pinned byte for
# byte; re-pinned when drain began to read a simulated host's energy
# ledger in place of evaluating the closed-form drain rate on a grid
DRAIN_IDLE_SHA256 = ("b263e71782a068d7177775a54ccdce77"
                     "353c79d079c86eb7c89b9190b95d6e2a")


def test_drain_writes_its_series_without_the_scenario_runner(tmp_path):
    body = ("from dispo6 import cli\ncli.main(['drain', 'idle', '--out-dir', 'out'])\n"
            "cli.main(['drain', 'flood', '--out-dir', 'flood'])")
    assert heavy_modules_after(body, cwd=tmp_path,
                               watched=("dispo6.scenario", "dispo6.stats")) == []
    written = (tmp_path / "out" / "battery.csv").read_bytes()
    assert hashlib.sha256(written).hexdigest() == DRAIN_IDLE_SHA256


SMALL_RUN = ("from dispo6.scenario import ScenarioConfig, run_scenario\n"
             "run_scenario(ScenarioConfig(seed=3, horizon_days=20,"
             " correspondents=20, daily_call_probability=0.2,"
             " pki_enabled={pki}))")


@pytest.mark.parametrize("body, loaded", [
    (SMALL_RUN.format(pki=False), []),
    ("from dispo6 import cli\ncli.main(['drain', 'idle', '--out-dir', 'out'])",
     []),
    # the one path that signs loads the backend when it builds its scheme
    (SMALL_RUN.format(pki=True), ["cryptography"]),
], ids=["pki_off_run", "drain_cli", "pki_on_run"])
def test_a_run_loads_only_the_backends_it_uses(body, loaded, tmp_path):
    assert heavy_modules_after(body, cwd=tmp_path) == loaded
