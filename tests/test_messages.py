"""Every `record` in the package keeps the semantics of the frozen
dataclass it stands for: equal only to its own type, hashable, and
immutable."""

import ast
import importlib
from pathlib import Path
from typing import NamedTuple

import pytest

from dispo6.messages import record

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dispo6"


def record_classes() -> list[type]:
    """Every class the package decorates with `@record`."""
    classes = []
    for path in sorted(PACKAGE.glob("*.py")):
        names = [node.name for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.ClassDef) and any(
                     isinstance(d, ast.Name) and d.id == "record"
                     for d in node.decorator_list)]
        if names:
            module = importlib.import_module(f"dispo6.{path.stem}")
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
