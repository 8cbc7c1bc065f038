"""Every `record` in the package and in the tests' attackers keeps the
semantics of the frozen dataclass it stands for: equal only to its own
type, hashable, immutable and picklable."""

import ast
import importlib
import pickle
from pathlib import Path

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
    # `tuple.__new__` skips a validated record's `_check`, which these
    # values fail
    value = tuple.__new__(cls, values)
    again = tuple.__new__(cls, values)
    assert value == again and not value != again
    # a plain tuple and a look-alike record with the same fields differ
    twin = record(type(cls.__name__, (),
                       {"__annotations__": dict.fromkeys(cls._fields, int)}))
    for other in (values, twin(*values)):
        assert value != other and other != value
        assert not value == other and not other == value
    assert len({value, again}) == 1
    assert hash(value) == hash(values)
    # a parallel sweep sends records across processes
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and copy == value
    with pytest.raises(AttributeError):
        value.unknown = 1
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, -1)


def test_a_record_checks_its_fields_when_built():
    @record
    class Span:
        lo: int
        hi: int = 10

        def _check(self):
            if self.lo > self.hi:
                raise ValueError("lo above hi")

    assert Span(1) == Span(lo=1, hi=10) and repr(Span(1)) == "Span(lo=1, hi=10)"
    for args, kwargs in (((11,), {}), ((), {"lo": 5, "hi": 4})):
        with pytest.raises(ValueError, match="lo above hi"):
            Span(*args, **kwargs)


def test_a_record_is_a_plain_class_body_with_trailing_defaults():
    with pytest.raises(TypeError, match="plain class body"):
        record(type("Based", (tuple,), {"__annotations__": {"a": int}}))
    with pytest.raises(TypeError, match="follows one with a default"):
        @record
        class Gap:
            a: int = 0
            b: int
