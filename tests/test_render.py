"""The JSON report writer against the standard library's encoder.

``cli._render(payload, "json")`` writes, in one pass, the bytes that
``json.dumps(indent=2)`` writes for the payload with every float rounded
to 6 significant digits. The oracle below is that rounded copy followed by
``json.dumps``, as the reports were written before the one-pass writer.
"""

import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from holdscan import cli
from holdscan.errors import NonFiniteResult


def rounded(obj):
    """Oracle: ``obj`` with every float rounded to 6 significant digits and arrays as lists."""
    if isinstance(obj, dict):
        return {
            key: float(f"{val:.6g}") if type(val) is float and math.isfinite(val) else rounded(val)
            for key, val in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [
            float(f"{val:.6g}") if type(val) is float and math.isfinite(val) else rounded(val)
            for val in obj
        ]
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise NonFiniteResult(f"a reported value is {obj}")
        return float(f"{float(obj):.6g}")
    if isinstance(obj, (np.ndarray, np.generic)):
        return rounded(obj.tolist())
    return obj


def expected_json(payload):
    full = {"schema_version": cli.SCHEMA_VERSION, **payload}
    return json.dumps(rounded(full), indent=2, allow_nan=False) + "\n"


finite = st.floats(allow_nan=False, allow_infinity=False)
# -0.0, subnormals, floats printed in exponent form at either end, and
# values whose 6-digit rounding carries into a new digit
edge_floats = st.sampled_from(
    [-0.0, 5e-324, 1.5e-310, 2.2250738585072014e-308, 1e16, 1.2345678e16, 9.9999996e22,
     1.7976931348623157e308, 1e-5, 9.9999996e-6, 1.23456789e-7, -0.00012345678]
)
floats = finite | edge_floats
labels = st.text(
    st.characters() | st.sampled_from('%"\\/\x00\x01\x1f\x7f\n\r\t\b\f é€😀'), max_size=8
)
arrays = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
                    elements=floats)
numpy_scalars = (
    floats.map(np.float64) | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
)
leaves = floats | st.integers() | st.booleans() | st.none() | labels | arrays | numpy_scalars


@st.composite
def records(draw):
    """1-4 dicts with the same keys in one order; a key's values: floats, strings or any leaves."""
    keys = draw(st.lists(labels, max_size=4, unique=True))
    kinds = [draw(st.sampled_from([floats, labels, leaves])) for _ in keys]
    count = draw(st.integers(1, 4))
    return [{key: draw(kind) for key, kind in zip(keys, kinds)} for _ in range(count)]


# the columns the writer formats in one pass: lists of floats or of strings,
# dicts of floats and record lists
columns = (
    st.lists(floats, max_size=6) | st.lists(labels, max_size=6)
    | st.dictionaries(labels, floats, max_size=4) | records()
)
values = st.recursive(
    leaves | columns,
    lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(labels, inner, max_size=4)
    ),
    max_leaves=24,
)
payloads = st.dictionaries(labels, values, max_size=5)

non_finite = st.sampled_from(
    [math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("-inf"),
     np.array([1.0, math.nan]), np.array([[0.5], [math.inf]])]
)


@given(payloads)
@settings(deadline=None)
def test_json_report_is_json_dumps_of_the_rounded_payload(payload):
    assert cli._render(payload, "json") == expected_json(payload)


@st.composite
def row_columns(draw):
    """Records as ``_cmd_decompose`` gives them: at least one key, and a column per key."""
    rows = draw(records().filter(lambda rows: rows[0]))
    keys = tuple(rows[0])
    columns = tuple(draw(st.sampled_from([list, tuple]))(row[key] for row in rows) for key in keys)
    return rows, cli._Rows(keys, columns)


@given(st.lists(row_columns(), max_size=3), st.data())
@settings(deadline=None)
def test_rows_given_by_columns_are_written_as_their_dicts(tables, data):
    names = data.draw(st.lists(labels, min_size=len(tables), max_size=len(tables), unique=True))
    payload = {name: columns for name, (_, columns) in zip(names, tables)}
    expected = {name: rows for name, (rows, _) in zip(names, tables)}
    assert cli._render(payload, "json") == expected_json(expected)


def shortest(values):
    """Oracle: each value as the float branch of the writer formats one float."""
    return [repr(float(f"{x:.6g}")) for x in values]


@given(st.lists(floats, max_size=40))
@settings(deadline=None)
def test_the_column_formatter_writes_each_float_as_repr_of_its_6_digits(values):
    assert cli._floats(values) == shortest(values)


def test_the_column_formatter_at_the_edges_of_its_flags():
    # each size where the %g text stops being repr's, or the float stops
    # being normal, with its neighbours
    edges = [0.0, 5e-324, 1.5e-310, sys.float_info.min, 0.9999995, 1e-4, 999999.5, 1e6, 1e16,
             1.7976931348623157e308]
    near = [y for x in edges for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]
    values = [y for x in near for y in (x, -x) if math.isfinite(y)]
    assert cli._floats(values) == shortest(values)
    assert cli._floats([*values, math.inf]) is None


def containers(obj):
    """The dicts and lists in ``obj``, ``obj`` included, outermost first."""
    if isinstance(obj, (dict, list)):
        yield obj
    if isinstance(obj, (dict, list, tuple)):
        for val in obj.values() if isinstance(obj, dict) else obj:
            yield from containers(val)


@given(payloads, non_finite, st.data())
@settings(deadline=None)
def test_a_non_finite_value_anywhere_raises_in_both_formats(payload, bad, data):
    target = data.draw(st.sampled_from(list(containers(payload))))
    if isinstance(target, dict):
        target[data.draw(labels)] = bad
    else:
        target.insert(data.draw(st.integers(0, len(target))), bad)
    for fmt in ("text", "json"):
        with pytest.raises(NonFiniteResult):
            cli._render(payload, fmt)


def test_decompose_render_peak_memory_follows_its_output():
    # the decompose payload of a 3,500-label book, built as _cmd_decompose
    # builds it, from columns: 0.5 MiB of JSON. Rounding a copy of the payload
    # and then running the pure-Python indenting encoder peaked at 8.2 times
    # the output, and writing each row from a dict, then adding the last line
    # break to the joined text, at 3.0 times. Now each container joins its
    # items' text once, line break and all, so the peak is the items' text
    # and the joined text: 2.00 times when this bound was set
    rng = np.random.default_rng(1)

    def side(prefix, count, conc):
        return cli._Rows(("label", "mass", conc, "dependence_contribution"), (
            tuple(f"{prefix}{k:04d}" for k in range(count)),
            rng.dirichlet(np.ones(count)).tolist(),
            rng.random(count).tolist(),
            (rng.random(count) * 1e-3).tolist(),
        ))

    payload = {
        "investors": side("I", 2000, "portfolio_concentration"),
        "stocks": side("S", 1500, "owner_concentration"),
    }
    tracemalloc.start()
    try:
        text = cli._render(payload, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 500_000
    assert peak <= 2.1 * len(text), f"peaked at {peak / len(text):.2f} times the output"
