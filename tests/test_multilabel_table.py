"""The columnar multi-label reader against the reference reader of ``tests/oracles.py``.

``parse_multilabel_records`` turns each chunk of lines into numpy
columns, in one go when every row of the chunk has the canonical shape
and row by row otherwise, and checks every record invariant on whole
columns. The reference reader builds one record per line and checks it
with scalar code. Both must give the same records, or the same error
message, and ``binarize_multilabel`` must give the same outcomes, bit for
bit, as a loop over the records.
"""

import json
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from uqkit import records
from uqkit.records import (
    MultiLabelRecord,
    MultiLabelTable,
    RecordError,
    binarize_multilabel,
    parse_multilabel_records,
)

PROBS = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0, 1, 1e-05, 0.9999999999999999]),
                  st.floats(0.0, 1.0))

# changes spliced into one row, each a dict update of the row (None deletes the key)
VARIANTS = {
    "ragged": lambda row: {"probs": row["probs"] + [0.25], "truths": row["truths"] + [1]},
    "empty": lambda row: {"probs": [], "truths": []},
    "boolean-truth": lambda row: {"truths": [True] + row["truths"][1:]},
    "float-truth": lambda row: {"truths": [1.0] + row["truths"][1:]},
    "fractional-truth": lambda row: {"truths": [0.5] + row["truths"][1:]},
    "non-binary-truth": lambda row: {"truths": [2] + row["truths"][1:]},
    "nan-prob": lambda row: {"probs": [math.nan] + row["probs"][1:]},
    "prob-range": lambda row: {"probs": [1.5] + row["probs"][1:]},
    "negative-prob": lambda row: {"probs": [-0.25] + row["probs"][1:]},
    "boolean-prob": lambda row: {"probs": [True] + row["probs"][1:]},
    "string-prob": lambda row: {"probs": ["0.5"] + row["probs"][1:]},
    "length-mismatch": lambda row: {"truths": row["truths"] + [0]},
    "integer-id": lambda row: {"id": 7},
    "missing-id": lambda row: {"id": None},
    "unknown-tag": lambda row: {"tag": "weird"},
    "huge-truth": lambda row: {"truths": [2**70] + row["truths"][1:]},
}


@st.composite
def multilabel_files(draw):
    """(rows, canonical): JSON-ready rows, and whether every row is canonical and valid."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 4))
    rows = []
    for i in range(n):
        row = {"id": f"m{i}",
               "probs": draw(st.lists(PROBS, min_size=k, max_size=k)),
               "truths": draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))}
        tag = draw(st.sampled_from(["id", "ood", "", None]))
        if tag is not None:
            row["tag"] = tag
        rows.append(row)
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
        return read()
    except RecordError as exc:
        return f"RecordError: {exc}"


def reference_outcomes(recs, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Per (record, class) pair, in order: (correct, confidence) as a loop over records gives."""
    correct, confidence = [], []
    for rec in recs:
        for p, truth in zip(rec.per_class_probs, rec.true_labels):
            correct.append((p >= threshold) == bool(truth))
            confidence.append(max(p, 1.0 - p))
    return np.array(correct, dtype=bool), np.array(confidence, dtype=np.float64)


def assert_same_outcomes(table: MultiLabelTable, recs: list, threshold: float) -> None:
    if not any(rec.per_class_probs for rec in recs):
        return  # no (record, class) pair: no outcome set
    correct, confidence = reference_outcomes(recs, threshold)
    for source in (table, recs):
        got = binarize_multilabel(source, threshold)
        assert got.correct.tobytes() == correct.tobytes()
        assert got.confidence.tobytes() == confidence.tobytes()


def check_file(text: str, canonical: bool, threshold: float) -> None:
    with oracles.counting(records, "_multilabel_row") as converted:
        got = outcome(lambda: parse_multilabel_records(text.encode()))
    want = outcome(lambda: oracles.scalar_multilabel_records(text))
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, MultiLabelTable)
    assert [astuple(r) for r in got] == [astuple(r) for r in want] and len(got) == len(want)
    if canonical:
        assert not converted  # every chunk was built in one go
    assert_same_outcomes(got, want, threshold)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(generated=multilabel_files(), chunk=st.sampled_from([1, 2, 7, 2048]),
       newline=st.sampled_from(["\n", "\r\n"]),
       threshold=st.one_of(st.just(0.5), st.floats(0.0, 1.0, exclude_min=True,
                                                   exclude_max=True)))
def test_columns_equal_scalar_records(generated, chunk, newline, threshold):
    rows, canonical = generated
    text = "".join(json.dumps(row) + newline for row in rows)
    saved = records._PARSE_CHUNK
    records._PARSE_CHUNK = chunk
    try:
        check_file(text, canonical, threshold)
    finally:
        records._PARSE_CHUNK = saved


VALID = [{"id": f"m{i}", "probs": [0.25, 0.75], "truths": [0, 1]} for i in range(6)]


@pytest.mark.parametrize("chunk", [1, 2, 7, 2048])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_invariant_fault_before_a_malformed_line(monkeypatch, chunk, newline):
    # line 2 breaks a record invariant, line 3 is not JSON: line 2 is reported
    lines = [json.dumps(row) for row in VALID]
    lines[1] = '{"id":"x","probs":[1.5,0.5],"truths":[0,1]}'
    lines.insert(2, "{")
    text = newline.join(lines) + newline
    monkeypatch.setattr(records, "_PARSE_CHUNK", chunk)
    message = "line 2: record 'x': probability 1.5 out of range"
    with pytest.raises(RecordError, match=f"^{message}$"):
        parse_multilabel_records(text)
    assert outcome(lambda: oracles.scalar_multilabel_records(text)) == f"RecordError: {message}"


@pytest.mark.parametrize("chunk", [1, 2048])
def test_one_truth_too_many_on_every_row(monkeypatch, chunk):
    # the probs and truths columns are each rectangular, but of different widths
    text = "".join(json.dumps({"id": f"m{i}", "probs": [0.5, 0.5], "truths": [0, 1, 1]}) + "\n"
                   for i in range(3))
    monkeypatch.setattr(records, "_PARSE_CHUNK", chunk)
    with pytest.raises(RecordError, match="^line 1: record 'm0': 2 probs vs 3 truths$"):
        parse_multilabel_records(text)


@pytest.mark.parametrize("chunk", [1, 2048])
def test_rows_of_different_class_counts_keep_their_classes(monkeypatch, chunk):
    # one row per chunk: each chunk's columns are rectangular, of different widths
    monkeypatch.setattr(records, "_PARSE_CHUNK", chunk)
    recs = [MultiLabelRecord("a", (0.9, 0.2), (1, 0)),
            MultiLabelRecord("b", (0.4, 0.6, 0.5), (1, 1, 0)),
            MultiLabelRecord("c", (), ())]
    text = "".join(json.dumps({"id": r.instance_id, "probs": list(r.per_class_probs),
                               "truths": list(r.true_labels)}) + "\n" for r in recs)
    table = parse_multilabel_records(text)
    assert table == recs and table.probs.shape == (3, 3)
    assert math.isnan(table.probs[0, 2]) and np.isnan(table.probs[2]).all()
    outcomes = binarize_multilabel(table)
    assert outcomes.correct.tolist() == [True, True, False, True, False]
    assert outcomes.confidence.tolist() == [0.9, 0.8, 0.6, 0.6, 0.5]


def test_table_reads_as_a_record_sequence():
    text = ('{"id":"a","probs":[0.6,0.4],"truths":[1,0]}\n'
            '{"id":"b","probs":[0.2,0.8],"truths":[0,0],"tag":"ood"}\n')
    with oracles.counting(records, "_multilabel_row") as converted:
        table = parse_multilabel_records(text)
    assert not converted
    first = MultiLabelRecord("a", (0.6, 0.4), (1, 0))
    second = MultiLabelRecord("b", (0.2, 0.8), (0, 0), records.DistTag.OUT_OF_DISTRIBUTION)
    assert table[0] == first and table[-1] == second and table[:1] == [first]
    assert list(table) == [first, second] and table != [first]
    assert table.truths.tolist() == [[1, 0], [0, 0]] and table.ood.tolist() == [False, True]
    with pytest.raises(IndexError):
        table[2]


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(k=st.integers(1, 3), chunk=st.sampled_from([1, 2, 7]),
       names=st.lists(st.sampled_from(sorted(VARIANTS) + ["repeated-id"]), min_size=2,
                      max_size=4, unique=True))
def test_faults_on_one_row_rank_as_the_reference_ranks_them(k, chunk, names):
    rows = [{"id": f"m{i}", "probs": [0.5] * k, "truths": [1] * k} for i in range(3)]
    for name in names:  # all on the last row; a change to a key already dropped is skipped
        try:
            rows[2].update({"id": "m0"} if name == "repeated-id" else VARIANTS[name](rows[2]))
        except KeyError:
            continue
        rows[2] = {key: value for key, value in rows[2].items() if value is not None}
    text = "".join(json.dumps(row) + "\n" for row in rows)
    saved = records._PARSE_CHUNK
    records._PARSE_CHUNK = chunk
    try:
        got = outcome(lambda: [astuple(r) for r in parse_multilabel_records(text)])
    finally:
        records._PARSE_CHUNK = saved
    assert got == outcome(lambda: [astuple(r) for r in oracles.scalar_multilabel_records(text)])


# a JSON string or object where an array belongs, which Python would iterate
@pytest.mark.parametrize("row, message", [
    ({"probs": [0.5], "truths": "1"}, "non-numeric field value"),
    ({"probs": "1", "truths": [1]}, "non-numeric field value"),
    ({"probs": {"0.5": 1}, "truths": [1]}, "non-numeric field value"),
    ({"probs": [0.5], "truths": {"1": 0}}, "non-numeric field value"),
    ({"probs": [True], "truths": "1"}, "non-numeric field value"),
    ({"probs": [0.5], "truths": "1", "tag": "x"}, "non-numeric field value"),
], ids=["string-truths", "string-probs", "object-probs", "object-truths", "before-boolean",
        "before-tag"])
def test_probs_and_truths_must_be_json_arrays(row, message):
    text = '{"id":"a","probs":[0.5],"truths":[1]}\n' + json.dumps({"id": "b", **row}) + "\n"
    want = f"RecordError: line 2: {message}"
    assert outcome(lambda: parse_multilabel_records(text)) == want
    assert outcome(lambda: oracles.scalar_multilabel_records(text)) == want


def test_record_tags_follow_the_prediction_record_rule():
    table = MultiLabelTable.from_records([MultiLabelRecord("a", (0.5,), (1,), dist_tag="ood")])
    assert table.ood.tolist() == [True]
    for build in (lambda: MultiLabelRecord("b", (0.5,), (1,), dist_tag="weird"),
                  lambda: records.PredictionRecord("b", 0, true_label=0, dist_tag="weird")):
        with pytest.raises(RecordError) as rejected:
            build()
        assert str(rejected.value) == "unknown tag 'weird' (expected 'id' or 'ood')"


def test_an_empty_file_reads_as_an_empty_table_of_the_column_types():
    table = parse_multilabel_records("\n")
    assert len(table) == 0 and table.ood.dtype == bool and len(table.take(~table.ood)) == 0
