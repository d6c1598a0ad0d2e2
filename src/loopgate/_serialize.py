"""The package's file formats: JSON input, and reports as JSON, key/value CSV or a sweep table.

All emitted angles and reals are rounded to 12 significant digits so repeated
runs with the same inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
from json.encoder import encode_basestring_ascii

from .errors import ConfigError

# Version of every file format: reports, configs and drive documents carry it.
SCHEMA_VERSION = 1


def format_float(value):
    """Round a real to 12 significant digits."""
    value = float(value)
    if not math.isfinite(value):
        return value
    # +0.0 for -0.0, so zero-drive reports are literally all zero
    return float(f"{value:.12g}") + 0.0


def csv_number(value) -> str:
    """Fixed CSV cell formatting: 12 significant digits, empty for None, text as is.

    NaN and infinities are refused, as :func:`json_text` refuses them.
    """
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not CSV compliant: {value!r}")
    return f"{value + 0.0:.12g}"


def of_kind(value, kind: type) -> bool:
    """Whether a decoded JSON value is of ``kind``: a float is any number, and a bool no number."""
    # bool is a subclass of int, so booleans are told apart first.
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def require_schema_version(version, what: str) -> None:
    """Refuse a ``schema_version`` other than the JSON integer 1: not true, not 1.0, not "1"."""
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported {what} schema_version: {version!r}")


def read_json(path: str, what: str):
    """The JSON document in the file ``path``; ``what`` names it in the error."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def json_text(report: dict) -> str:
    """The report as indented JSON with sorted keys, each float rounded by :func:`format_float`.

    The text is that of ``json.dumps(tree, indent=2, sort_keys=True,
    allow_nan=False) + "\\n"`` for the rounded tree, written in one pass: the
    standard library's indented encoder is pure Python before 3.13, and a
    rounded copy of the tree would be walked twice.  Keys must be strings.
    NaN and infinities raise the standard library's ValueError, and any
    other type its TypeError.
    """
    chunks = []
    _write_json(report, "", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _write_json(value, indent: str, write) -> None:
    """Write ``value`` at the nesting ``indent`` through ``write``, for :func:`json_text`.

    A module function, not a closure: a closure that calls itself is a
    reference cycle, which would hold each report's chunks until the
    cyclic garbage collector ran.
    """
    # Floats first, as most leaves are; no float is also a str, None or an int.
    if isinstance(value, float):
        value = format_float(value)
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        write(float.__repr__(value))
    elif isinstance(value, str):
        write(encode_basestring_ascii(value))
    elif value is None:
        write("null")
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = indent + "  "
        separator = "[\n" + inner
        for item in value:
            write(separator)
            _write_json(item, inner, write)
            separator = ",\n" + inner
        write("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = indent + "  "
        separator = "{\n" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            write(separator + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, write)
            separator = ",\n" + inner
        write("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _leaves(prefix: str, value) -> list[tuple[str, object]]:
    """The leaves of a nested structure, each with its dotted path of keys and indices."""
    if isinstance(value, dict):
        items = [(key, value[key]) for key in sorted(value)]
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return [(prefix, value)]
    pairs = []
    for key, item in items:
        pairs.extend(_leaves(f"{prefix}.{key}" if prefix else str(key), item))
    return pairs


def _csv_text(lines) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(lines)
    return buffer.getvalue()


def key_value_csv(report: dict) -> str:
    """The report as CSV lines ``key,value``, one per leaf, in sorted key order; no NaN or inf."""
    pairs = _leaves("", report)
    return _csv_text([["key", "value"], *([key, csv_number(value)] for key, value in pairs)])


def sweep_csv(report: dict) -> str:
    """A sweep report as a CSV table: a line per row, then one per numeric metadata entry.

    NaN and infinities are refused, as in :func:`key_value_csv`.
    """
    columns = list(report["rows"][0])
    lines = [["kind", "parameter", *columns]]
    for row in report["rows"]:
        lines.append(["row", report["parameter"], *map(csv_number, row.values())])
    for key, value in sorted(report["metadata"].items()):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            lines.append(["summary", key, csv_number(value), *[""] * (len(columns) - 1)])
    return _csv_text(lines)
