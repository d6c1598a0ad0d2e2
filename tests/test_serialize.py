"""The report writers against the standard library on generated trees.

``json_text`` writes each report in one pass, rounding floats as it goes.
Its reference here is a rounding walk kept in this file, followed by the
standard library's indented encoder; the CSV writers must give the same
bytes on a raw tree as on that rounded one.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loopgate import gates
from loopgate._serialize import json_text, key_value_csv, sweep_csv

PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)


def rounded(tree):
    """Every float of ``tree`` as a plain float of 12 significant digits, -0.0 as 0.0."""
    if isinstance(tree, dict):
        return {key: rounded(value) for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [rounded(value) for value in tree]
    if isinstance(tree, float):
        tree = float(tree)
        return float(f"{tree:.12g}") + 0.0 if math.isfinite(tree) else tree
    return tree


def stdlib_text(tree) -> str:
    """The standard library's pure-Python indented encoder, which raises its own messages."""
    encoder = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)
    return "".join(encoder.iterencode(rounded(tree))) + "\n"


EDGE_FLOATS = (
    -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-5, -1e-5, 1e-7, 3.0, -7.0,
    1e15, 1e16, 1e17, -1.2345678901234567e16, 0.1 + 0.2, 123456789012.5, 1.7976931348623157e308,
)
KEYS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["a", "b", "ä", "é", "\u2603", "\U0001f600", '"', "\\", "\n", "\x00", "/"]),
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10 ** 40), max_value=10 ** 40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_FLOATS),
    st.text(max_size=8),
)
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=5),
    ),
    max_leaves=40,
)


@PROPERTY
@given(TREES)
@example({"b": -0.0, "a": [1e16, (), {}], "\u00e9\u2603": "\U0001f600\x00\"\\", "c": {"z": None, "y": True}})
def test_json_text_is_the_standard_library_text_of_the_rounded_tree(tree):
    assert json_text(tree) == stdlib_text(tree)
    assert json_text(tree) == json.dumps(rounded(tree), indent=2, sort_keys=True) + "\n"


def test_json_text_sorts_keys_escapes_to_ascii_and_writes_signed_zero_as_zero():
    text = json_text({"b": -0.0, "a": "\u00e9", "c": [], "d": {}})
    assert text == '{\n  "a": "\\u00e9",\n  "b": 0.0,\n  "c": [],\n  "d": {}\n}\n'


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_json_text_refuses_non_finite_floats_with_the_standard_library_message(value):
    tree = {"report": [1.0, {"value": value}]}
    with pytest.raises(ValueError) as ours:
        json_text(tree)
    with pytest.raises(ValueError) as theirs:
        stdlib_text(tree)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("value", [np.int64(3), {1, 2}, object(), 1j, b"bytes"])
def test_json_text_refuses_other_types_with_the_standard_library_message(value):
    tree = {"report": [{"value": value}]}
    with pytest.raises(TypeError) as ours:
        json_text(tree)
    with pytest.raises(TypeError) as theirs:
        stdlib_text(tree)
    assert str(ours.value) == str(theirs.value)


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS), st.integers()
)
CELLS = st.one_of(NUMBERS, st.none(), st.booleans(), st.text(max_size=5))


@PROPERTY
@given(st.recursive(CELLS, lambda children: st.one_of(
    st.lists(children, max_size=3), st.dictionaries(st.text(max_size=4), children, max_size=4)
), max_leaves=25))
def test_key_value_csv_of_the_raw_tree_is_that_of_the_rounded_tree(tree):
    report = {"report": tree}
    assert key_value_csv(report) == key_value_csv(rounded(report))


@PROPERTY
@given(
    st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=4, unique=True).flatmap(
        lambda columns: st.lists(st.fixed_dictionaries({c: CELLS for c in columns}), min_size=1,
                                 max_size=4)
    ),
    st.dictionaries(st.text(max_size=4), CELLS, max_size=4),
)
def test_sweep_csv_of_the_raw_report_is_that_of_the_rounded_report(rows, metadata):
    report = {"parameter": "phi_l", "rows": rows, "metadata": metadata}
    assert sweep_csv(report) == sweep_csv(rounded(report))


# ---------------------------------------------------------------------------
# conditioners and CZ built once


@pytest.mark.parametrize("name", ["odd-parity-projector", "jz", "jy"])
def test_a_standard_conditioner_is_one_shared_immutable_object(name):
    conditioner = gates.standard_conditioner(name)
    assert gates.standard_conditioner(name.upper()) is conditioner
    with pytest.raises(ValueError, match="read-only"):
        conditioner.matrix[0, 0] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        conditioner.name = "other"
    values, vectors = conditioner.eigensystem()
    assert values.flags.writeable and vectors.flags.writeable
    values[:] = 7.0
    vectors[:] = 7.0
    again_values, again_vectors = conditioner.eigensystem()
    assert not np.shares_memory(values, again_values)
    assert not np.any(again_values == 7.0)
    assert not np.shares_memory(vectors, again_vectors)
    assert np.allclose(again_vectors @ np.diag(again_values) @ again_vectors.conj().T,
                       conditioner.matrix)


def test_cz_gate_is_one_shared_immutable_object():
    gate = gates.cz_gate()
    assert gates.cz_gate() is gate
    with pytest.raises(ValueError, match="read-only"):
        gate.matrix[3, 3] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        gate.phases = None
    assert gate.phases == (0.0, 0.0, 0.0, math.pi)
