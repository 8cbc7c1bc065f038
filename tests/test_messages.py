"""Every `record` in the package and in the tests' attackers keeps the
semantics of the frozen dataclass it stands for: equal only to its own
type, hashable, and immutable."""

import ast
import importlib
from pathlib import Path
from typing import NamedTuple

import pytest

from dispo6.messages import record

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "dispo6"
# (source file, module name) of every module that may define records
MODULES = [(path, f"dispo6.{path.stem}") for path in sorted(PACKAGE.glob("*.py"))]
MODULES.append((TESTS / "attackers.py", "attackers"))


def record_classes() -> list[type]:
    """Every class the package or the attackers decorate with `@record`."""
    classes = []
    for path, module_name in MODULES:
        names = [node.name for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.ClassDef) and any(
                     isinstance(d, ast.Name) and d.id == "record"
                     for d in node.decorator_list)]
        if names:
            module = importlib.import_module(module_name)
            classes.extend(getattr(module, name) for name in names)
    return classes


RECORDS = record_classes()


def test_record_discovery_finds_known_records():
    names = {cls.__name__ for cls in RECORDS}
    assert {"Ping", "Packet", "Certificate", "AddressRequest", "StartCall",
            "WindowBlock", "CallRecord"} <= names


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_semantics(cls):
    values = tuple(range(len(cls._fields)))
    value = cls(*values)
    assert value == cls(*values) and not value != cls(*values)
    # a plain tuple and a look-alike record with the same fields differ
    twin = record(NamedTuple(cls.__name__, [(f, int) for f in cls._fields]))
    for other in (values, twin(*values)):
        assert value != other and other != value
        assert not value == other and not other == value
    assert len({value, cls(*values)}) == 1
    assert hash(value) == hash(values)
    with pytest.raises(AttributeError):
        value.unknown = 1
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, -1)
