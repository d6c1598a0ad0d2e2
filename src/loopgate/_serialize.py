"""The package's file formats: JSON input, and reports as JSON, key/value CSV or a sweep table.

All emitted angles and reals are rounded to 12 significant digits so repeated
runs with the same inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .errors import ConfigError

# Version of the report schema; every report carries it as "schema_version".
SCHEMA_VERSION = 1


def format_float(value):
    """Round a real to 12 significant digits."""
    value = float(value)
    if not math.isfinite(value):
        return value
    # +0.0 for -0.0, so zero-drive reports are literally all zero
    return float(f"{value:.12g}") + 0.0


def format_tree(data):
    """Apply :func:`format_float` to every float in a nested structure."""
    if isinstance(data, dict):
        return {k: format_tree(v) for k, v in data.items()}
    if isinstance(data, (list, tuple)):
        return [format_tree(v) for v in data]
    if isinstance(data, float):
        return format_float(data)
    return data


def csv_number(value) -> str:
    """Fixed CSV cell formatting: 12 significant digits, empty for None, text as is."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    return f"{float(value) + 0.0:.12g}"


def read_json(path: str, what: str):
    """The JSON document in the file ``path``; ``what`` names it in the error."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def json_text(report: dict) -> str:
    """The report as indented JSON with sorted keys; NaN and infinities are refused."""
    return json.dumps(format_tree(report), indent=2, sort_keys=True, allow_nan=False) + "\n"


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
    """The report as CSV lines ``key,value``, one per leaf, in sorted key order."""
    pairs = _leaves("", format_tree(report))
    return _csv_text([["key", "value"], *([key, csv_number(value)] for key, value in pairs)])


def sweep_csv(report: dict) -> str:
    """A sweep report as a CSV table: a line per row, then one per numeric metadata entry."""
    report = format_tree(report)
    columns = list(report["rows"][0])
    lines = [["kind", "parameter", *columns]]
    for row in report["rows"]:
        lines.append(["row", report["parameter"], *map(csv_number, row.values())])
    for key, value in sorted(report["metadata"].items()):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            lines.append(["summary", key, csv_number(value), *[""] * (len(columns) - 1)])
    return _csv_text(lines)
