"""Application-layer payload types shared by hosts, callers, and attackers."""

import functools
import types
from collections import _tuplegetter

from .addressing import Ipv6Address

_tuple_new = tuple.__new__


def record(cls: type) -> type:
    """Build an immutable record from a plain class body: each annotated
    name is a field, in order, and a value assigned to one is its default.
    The result is a `tuple` subclass with `__slots__ = ()`, `_fields`,
    `_replace` and the repr of a `typing.NamedTuple`, and with the
    equality of a frozen dataclass: equal only to an instance of its own
    type, never to a plain tuple or to another record with the same fields,
    and hashed as the tuple of its fields. Methods, properties and the
    docstring of the body carry over. A `_check(self)` defined in the body
    runs on every instance built by calling the class, and raises
    `ValueError` for bad fields; `_replace` and unpickling rebuild from
    fields already built, and skip it.

    This is the idiom for every immutable value in dispo6, validated ones
    included, and every run pays for its classes at import. On a 2-vCPU
    x86-64 VM, building a 4-field class as a `typing.NamedTuple` costs
    ~140-150 us: `collections.namedtuple` compiles a new `__new__` for it,
    and `typing` type-checks each annotation. Here it costs ~32 us, most of
    it the plain class body and `type()`: the `__new__` is a copy of one
    compiled per field count, with its arguments renamed to the fields.

    Per instance a class call runs that `__new__`, one Python frame. The
    rule: a record built once per event (per call, per relayed packet, per
    handshake or per management message) is built with no frame at all,
    as `_tuple_new(Cls, (field, ...))`, `_tuple_new` being `tuple.__new__`
    bound once, in this module, which the others import it from. That
    form passes every field, defaults included, and is only for a record
    without `_check`, which it would skip; guards in the tests hold all
    three. On the same VM a 4-field record costs about 0.30 us by class
    call and about 0.17 us this way, and building every per-event record
    by class call instead took the `fig3` benchmark's median `wall_s` from
    1.442 to 1.496 s at seed 1 (worse in 4 of 5 alternating pairs, and in
    3 of 3 at seed 7919). Everywhere else, defaults and validation keep
    the class call, and code that runs once, or once a day, keeps its
    keywords for the reader."""
    if cls.__bases__ != (object,):
        raise TypeError(f"record {cls.__name__} must be a plain class body")
    namespace = {name: value for name, value in cls.__dict__.items()
                 if name not in ("__dict__", "__weakref__")}
    fields = tuple(namespace.get("__annotations__", ()))
    defaulted = [name for name in fields if name in namespace]
    if defaulted != list(fields[len(fields) - len(defaulted):]):
        raise TypeError(f"record {cls.__name__}: a field without a default "
                        "follows one with a default")
    check = namespace.get("_check")
    code = _new_code(len(fields), check is not None)
    code = code.replace(
        co_varnames=("_cls", *fields) + code.co_varnames[len(fields) + 1:])
    defaults = tuple(namespace.pop(name) for name in defaulted)
    new = types.FunctionType(code, {"_tuple_new": _tuple_new, "_check": check},
                             "__new__", defaults or None)
    new.__qualname__ = f"{cls.__qualname__}.__new__"
    # the C field reader `collections.namedtuple` uses
    namespace.update({name: _tuplegetter(index, None)
                      for index, name in enumerate(fields)})
    namespace.update(__slots__=(), _fields=fields, __new__=new,
                     _replace=_replace, __repr__=_repr, __reduce__=_reduce,
                     __eq__=_eq, __ne__=_ne, __hash__=tuple.__hash__)
    return type(cls.__name__, (tuple,), namespace)


@functools.cache
def _new_code(size: int, checked: bool) -> types.CodeType:
    """`__new__(_cls, _0, ..., _<size-1>)` building the tuple, then calling
    `_check` on it when `checked`."""
    args = "".join(f"_{index}, " for index in range(size))
    build = f"_tuple_new(_cls, ({args}))"
    body = (f"self = {build}\n    _check(self)\n    return self" if checked
            else f"return {build}")
    scope = {}
    exec(f"def __new__(_cls, {args}):\n    {body}", scope)
    return scope["__new__"].__code__


def _eq(self, other):
    return type(self) is type(other) and tuple.__eq__(self, other)


def _ne(self, other):
    return not _eq(self, other)


def _repr(self):
    items = ", ".join(f"{name}={value!r}"
                      for name, value in zip(self._fields, self))
    return f"{type(self).__name__}({items})"


def _replace(self, /, **changes):
    # one item per field, so it needs no length check
    result = _tuple_new(type(self), map(changes.pop, self._fields, self))
    if changes:
        raise ValueError(f"Got unexpected field names: {list(changes)!r}")
    return result


def _reduce(self):
    return _tuple_new, (type(self), tuple(self))


@record
class Ping:
    """Request that provokes a reply (stand-in for echo/SYN/INVITE floods)."""


@record
class Pong:
    """The reply to a `Ping`."""


@record
class CallRequest:
    """A call; the disposable it is addressed to names the caller."""

    reply_to: Ipv6Address
    call_id: int


@record
class CallAccept:
    call_id: int


@record
class CallReject:
    """Any call placed to a prime home address: request a disposable."""

    call_id: int


@record
class PeerBindingUpdate:
    """Route-optimization care-of address notice sent directly to a peer."""

    home_address: Ipv6Address
    care_of: Ipv6Address


@record
class RouteOptimized:
    """Direct-to-care-of delivery carrying the logical home-address packet."""

    inner: object  # a Packet whose dst is the home address

