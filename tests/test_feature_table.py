"""The columnar feature-file reader against the reference reader of ``tests/oracles.py``.

``parse_feature_records`` turns each chunk of lines into numpy columns,
in one go when every row of the chunk has the canonical shape and row by
row otherwise, and checks that every feature is finite on whole columns.
Both readers must give the same records, or the same error message.
"""

import json
import math
from dataclasses import astuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from uqkit import records
from uqkit.records import FeatureTable, RecordError, parse_feature_records

OVERFLOW = 1.2345e300  # written as the literal 1e999, which reads as infinity

# changes spliced into one row, each a dict update of the row (None deletes the key)
VARIANTS = {
    "ragged": lambda row: {"features": row["features"] + [0.5]},
    "short": lambda row: {"features": row["features"][:-1]},
    "empty": lambda row: {"features": []},
    "integer-id": lambda row: {"id": 7},
    "float-id": lambda row: {"id": 2.5},
    "object-id": lambda row: {"id": {"k": 1}},
    "nan": lambda row: {"features": [math.nan] + row["features"][1:]},
    "infinity": lambda row: {"features": row["features"][:-1] + [-math.inf]},
    "overflow": lambda row: {"features": [OVERFLOW] + row["features"][1:]},
    "boolean-feature": lambda row: {"features": [True] + row["features"][1:]},
    "string-feature": lambda row: {"features": ["0.5"] + row["features"][1:]},
    "boolean-label": lambda row: {"true": False},
    "float-label": lambda row: {"true": 2.0},
    "fractional-label": lambda row: {"true": 1.5},
    "string-label": lambda row: {"true": "3"},
    "huge-label": lambda row: {"true": 2**70},
    "missing-id": lambda row: {"id": None},
    "missing-features": lambda row: {"features": None},
    "missing-true": lambda row: {"true": None},
}


@st.composite
def feature_files(draw):
    """(rows, canonical): JSON-ready rows, and whether every row has the canonical shape."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    values = st.one_of(st.integers(-5, 5), st.floats(-1e6, 1e6, allow_nan=False))
    rows = [{"id": f"f{i}", "features": draw(st.lists(values, min_size=d, max_size=d)),
             "true": draw(st.integers(-1, 3))} for i in range(n)]
    canonical = draw(st.booleans())
    for _ in range(0 if canonical else draw(st.integers(1, 2))):
        i = draw(st.integers(0, n - 1))
        variant = draw(st.sampled_from(sorted(VARIANTS) + ["repeated-id"]))
        if variant == "repeated-id":
            rows[i]["id"] = rows[i - 1]["id"]  # the previous row's, or the last row's
        else:
            rows[i].update(VARIANTS[variant](rows[i]))
    rows = [{key: value for key, value in row.items() if value is not None} for row in rows]
    return rows, canonical


def outcome(read):
    try:
        return [astuple(rec) for rec in read()]
    except RecordError as exc:
        return f"RecordError: {exc}"


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(generated=feature_files(), chunk=st.sampled_from([1, 2, 7, 2048]),
       newline=st.sampled_from(["\n", "\r\n"]))
def test_columns_equal_scalar_records(generated, chunk, newline):
    rows, canonical = generated
    text = "".join(json.dumps(row) + newline for row in rows).replace(repr(OVERFLOW), "1e999")
    saved = records._PARSE_CHUNK
    records._PARSE_CHUNK = chunk
    try:
        with oracles.counting(records, "_feature_row") as converted:
            got = outcome(lambda: parse_feature_records(text.encode()))
    finally:
        records._PARSE_CHUNK = saved
    assert got == outcome(lambda: oracles.scalar_feature_records(text))
    if canonical:
        assert not converted  # every chunk was built in one go


def test_ragged_rows_keep_their_features():
    text = ('{"id":"a","features":[0.5,1.5],"true":1}\n'
            '{"id":7,"features":[2,"3.5",4.0],"true":2.0}\n')
    table = parse_feature_records(text)
    assert isinstance(table, FeatureTable) and table.ids == ["a", "7"]
    assert table.feature_counts().tolist() == [2, 3] and math.isnan(table.features[0, 2])
    assert table.true.tolist() == [1, 2]
    assert [astuple(rec) for rec in table] == [("a", (0.5, 1.5), 1), ("7", (2.0, 3.5, 4.0), 2)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(d=st.integers(1, 3), chunk=st.sampled_from([1, 2, 7]),
       names=st.lists(st.sampled_from(sorted(VARIANTS) + ["repeated-id"]), min_size=2,
                      max_size=4, unique=True))
def test_faults_on_one_row_rank_as_the_reference_ranks_them(d, chunk, names):
    rows = [{"id": f"f{i}", "features": [0.5] * d, "true": 1} for i in range(3)]
    for name in names:  # all on the last row; a change to a key already dropped is skipped
        try:
            rows[2].update({"id": "f0"} if name == "repeated-id" else VARIANTS[name](rows[2]))
        except KeyError:
            continue
        rows[2] = {key: value for key, value in rows[2].items() if value is not None}
    text = "".join(json.dumps(row) + "\n" for row in rows).replace(repr(OVERFLOW), "1e999")
    saved = records._PARSE_CHUNK
    records._PARSE_CHUNK = chunk
    try:
        got = outcome(lambda: parse_feature_records(text))
    finally:
        records._PARSE_CHUNK = saved
    assert got == outcome(lambda: oracles.scalar_feature_records(text))


@pytest.mark.parametrize("features", ["12", {"1": 2}, 12], ids=["string", "object", "number"])
def test_features_must_be_a_json_array(features):
    text = ('{"id":"a","features":[1.0,2.0],"true":0}\n'
            + json.dumps({"id": "b", "features": features, "true": 0}) + "\n")
    want = "RecordError: line 2: non-numeric field value"
    assert outcome(lambda: parse_feature_records(text)) == want
    assert outcome(lambda: oracles.scalar_feature_records(text)) == want
