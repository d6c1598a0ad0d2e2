"""Deterministic number formatting for machine-readable outputs.

All emitted angles and reals are rounded to 12 significant digits so repeated
runs with the same inputs produce byte-identical files.
"""

from __future__ import annotations

import math


def format_float(value):
    """Round a real to 12 significant digits; passes None through."""
    if value is None:
        return None
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
    if isinstance(data, bool) or data is None or isinstance(data, (str, int)):
        return data
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
