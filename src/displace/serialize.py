"""Deterministic text output for reports and solutions.

All floats are rendered with 17 significant digits, enough to round-trip
any double exactly, and object keys keep their construction order, so a
given configuration always produces byte-identical JSON and CSV.  JSON
writes a negative zero as -0.0, which reads back as a float; CSV keeps
the shorter -0, which float() reads back as -0.0 too.
"""

from __future__ import annotations

import json
import math
import numbers
from typing import Any, Callable, Iterable, Sequence

__all__ = ["format_float", "dumps", "csv_lines", "float_csv", "Record",
           "Fresh", "FrozenRecordError"]


def format_float(value: float) -> str:
    """Render a float with 17 significant digits; round-trips exactly."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return "%.17g" % value


def _plain(value: Any) -> Any:
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    return value


class FrozenRecordError(AttributeError):
    """An attempt to assign or delete an attribute of a Record."""


class Fresh:
    """Default of a Record field that is made anew for each instance."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[], Any]):
        self.make = make


class Record:
    """Immutable value with named fields, compared and serialized by value.

    A subclass declares its fields as public class annotations, those of
    its base classes first; a class attribute of the same name is the
    field's default, and a Fresh default is called once per instance.
    Instances take the fields positionally or by keyword, in that order.
    repr is Class(field=value, ...); == holds between instances of one
    class with equal field tuples, and hash is the hash of that tuple;
    to_dict is the fields in order with tuples as lists.
    Assigning or deleting an attribute raises FrozenRecordError.  Every
    method reads the field names __init_subclass__ stores; none is
    generated, so defining a record class costs no code generation.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        names: dict[str, None] = {}
        for klass in reversed(cls.__mro__):
            for name in vars(klass).get("__annotations__", ()):
                if not name.startswith("_"):
                    names[name] = None
        cls._fields = tuple(names)
        cls._defaults = {name: getattr(cls, name) for name in names
                         if hasattr(cls, name)}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} "
                            f"positional arguments but {len(args)} were given")
        state = self.__dict__
        state.update(zip(fields, args))
        for name in fields[len(args):]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif name in self._defaults:
                default = self._defaults[name]
                state[name] = (default.make() if type(default) is Fresh
                               else default)
            else:
                raise TypeError(
                    f"{type(self).__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got an unexpected or "
                            f"repeated argument {next(iter(kwargs))!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        return (type(self).__qualname__ + "("
                + ", ".join(f"{name}={getattr(self, name)!r}"
                            for name in self._fields) + ")")

    def __eq__(self, other: Any) -> Any:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def to_dict(self) -> dict:
        return {name: _plain(getattr(self, name)) for name in self._fields}


def _write(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, numbers.Integral):
        out.append(str(int(obj)))
    elif isinstance(obj, float):
        text = format_float(obj)
        # json reads -0 as the integer 0
        out.append("-0.0" if text == "-0" else text)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _write(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _write(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    """Serialize to JSON with deterministic float text and key order."""
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


def csv_lines(header: Sequence[str], rows: Iterable[Sequence[float]]) -> str:
    """CSV of float rows, each written by format_float; ends with a newline."""
    return float_csv(header, [value for row in rows for value in row])


def float_csv(header: Sequence[str], values: Sequence[float]) -> str:
    """csv_lines of float rows given flat, len(header) values per row.

    One %-format call writes every value with format_float's digits, a
    third faster than a call per value on long tables.  Only the C
    formatter's nan and inf contain an "n"; they get format_float's
    spelling.
    """
    row = ",".join(["%.17g"] * len(header)) + "\n"
    text = (row * (len(values) // len(header))) % tuple(values)
    if "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return ",".join(header) + "\n" + text
