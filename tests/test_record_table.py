"""The columnar record reader against the reference reader of ``tests/oracles.py``.

``parse_records`` turns each chunk of rows into numpy columns, in one go
when every row of the chunk has the canonical shape and row by row
otherwise, and checks every record invariant on whole columns. The
reference reader builds one record per row and checks it with scalar
code. Both must give the same records, or the same error message, on
every file.
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
    ConfidenceSource,
    DistTag,
    PredictionRecord,
    RecordError,
    RecordFormat,
    RecordTable,
    derive_io_outcomes,
    derive_outcomes,
    parse_records,
)

EPS = np.finfo(np.float64).eps


@st.composite
def prob_rows(draw, k: int, edge: bool = False):
    """K probabilities summing to 1 up to rounding, or a few ulp from 1 +- 1e-6 on an edge row."""
    weights = draw(st.lists(st.integers(0, 50), min_size=k, max_size=k))
    weights[draw(st.integers(0, k - 1))] += 1  # at least one positive weight
    target = 1.0
    if edge:
        target = 1.0 + draw(st.sampled_from([-1e-6, 1e-6])) + draw(st.integers(-4, 4)) * EPS
    total = sum(weights)
    return [min(w / total * target, 1.0) for w in weights]


# faults spliced into one row of a valid file, each a dict update (None deletes the key)
FAULTS = {
    "prob-range": lambda row, k: (
        {"probs": [1.5] + row["probs"][1:]} if "probs" in row else {"conf": 2.0}),
    "pred-mismatch": lambda row, k: (
        {"pred": (row.get("pred", 0) + 1) % k} if "probs" in row else {"pred": None}),
    "true-range": lambda row, k: {"true": k if "probs" in row else -1},
    "id-lacks-true": lambda row, k: {"true": None, "tag": "id"},
    "conf-range": lambda row, k: {"conf": 1.0 + 1e-9},
    "conf-nan": lambda row, k: {"conf": float("nan")},
    "boolean-pred": lambda row, k: {"pred": True, "probs": None},
    "unknown-tag": lambda row, k: {"tag": "weird"},
    "missing-id": lambda row, k: {"id": None},
    "empty-probs": lambda row, k: {"probs": []},
    "fractional-label": lambda row, k: {"true": 0.5},
    "negative-pred": lambda row, k: {"pred": -1 - row.get("pred", 0), "probs": None},
}

# shape variants that are valid but leave the canonical path: the scalar path reads them
VARIANTS = ["ragged", "mixed-probs", "string-numbers", "integer-id", "float-label", "no-pred"]


@st.composite
def record_files(draw):
    """(rows, canonical): JSON-ready rows, and whether every row has the canonical shape."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 4))
    with_probs = draw(st.booleans())
    edge_row = draw(st.integers(-3 * n, n - 1))  # a row whose sum sits at the tolerance edge
    rows = []
    for i in range(n):
        row = {"id": f"r{i}"}
        ood = draw(st.integers(0, 4)) == 0
        if with_probs:
            row["probs"] = draw(prob_rows(k, edge=i == edge_row))
            row["pred"] = int(np.argmax(row["probs"]))
        else:
            row["pred"] = draw(st.integers(0, k - 1))
        if not ood or draw(st.booleans()):
            row["true"] = draw(st.integers(0, k - 1))
        if draw(st.booleans()):
            row["conf"] = draw(st.floats(0.0, 1.0))
        tag = "ood" if ood else draw(st.sampled_from(["id", "", None]))
        if tag is not None:
            row["tag"] = tag
        rows.append(row)
    canonical = True
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        variant = draw(st.sampled_from(VARIANTS + ["fault"] * 4 + ["repeated-id"]))
        row = rows[i]
        canonical = False
        if variant == "fault":
            update = FAULTS[draw(st.sampled_from(sorted(FAULTS)))](row, k)
            row.update(update)
        elif variant == "repeated-id":
            row["id"] = rows[draw(st.integers(0, n - 1))]["id"]
        elif variant == "ragged" and "probs" in row:
            row["probs"] = draw(prob_rows(k + 1))
            row["pred"] = int(np.argmax(row["probs"]))
        elif variant == "mixed-probs":
            if "probs" in row:
                del row["probs"]
            else:
                row.update(probs=[1.0] + [0.0] * (k - 1), pred=0)
        elif variant == "string-numbers":
            row.update({key: str(row[key]) for key in ("pred", "true", "conf") if key in row})
        elif variant == "integer-id":
            row["id"] = 1000 + i
        elif variant == "float-label":
            row["pred"] = float(row["pred"])
        elif variant == "no-pred" and "probs" in row:
            del row["pred"]
    rows = [{key: value for key, value in row.items() if value is not None} for row in rows]
    return rows, canonical


def as_jsonl(rows) -> bytes:
    return "".join(json.dumps(row) + "\n" for row in rows).encode()


def as_csv(rows) -> bytes | None:
    """The rows as CSV, or None when a row cannot be written as one (a non-list ``probs``)."""
    k = max((len(r["probs"]) for r in rows if isinstance(r.get("probs"), list)), default=0)
    lines = ["id,pred,true,conf,tag" + "".join(f",p{j}" for j in range(k))]
    for row in rows:
        probs = row.get("probs", [""] * k)
        if not isinstance(probs, list):
            return None
        cells = [row.get(key, "") for key in ("id", "pred", "true", "conf", "tag")] + probs
        lines.append(",".join("" if c is None else repr(c) if isinstance(c, float) else str(c)
                              for c in cells))
    return ("\n".join(lines) + "\n").encode()


def outcome(read):
    try:
        return read()
    except RecordError as exc:
        return f"RecordError: {exc}"


def rows_of(recs) -> list[tuple]:
    """Each record's fields in order: uqkit's records and the reference reader's compare so."""
    return [astuple(rec) for rec in recs]


def reference_outcomes(recs: list[PredictionRecord], source: ConfidenceSource):
    """Per-record (correct, confidence), as a loop over records defines them."""
    correct = [rec.dist_tag is DistTag.IN_DISTRIBUTION and rec.pred_label == rec.true_label
               for rec in recs]
    confidence = [rec.confidence if source is ConfidenceSource.EXPLICIT_FIELD else max(rec.probs)
                  for rec in recs]
    return np.array(correct, dtype=bool), np.array(confidence, dtype=np.float64)


def assert_same_outcomes(table: RecordTable, recs: list[PredictionRecord]) -> None:
    for derive in (derive_outcomes, derive_io_outcomes):
        for source in ConfidenceSource:
            got = outcome(lambda: derive(table, source))
            want = outcome(lambda: derive(recs, source))
            if isinstance(want, str):
                assert got == want
                continue
            assert got.correct.tobytes() == want.correct.tobytes()
            assert got.confidence.tobytes() == want.confidence.tobytes()
            if derive is derive_outcomes:
                correct, confidence = reference_outcomes(recs, source)
                assert got.correct.tobytes() == correct.tobytes()
                assert got.confidence.tobytes() == confidence.tobytes()


def check_file(data: bytes, fmt: RecordFormat, canonical: bool) -> None:
    with oracles.counting(records, "_prediction_row") as converted:
        got = outcome(lambda: parse_records(data, fmt))
    want = outcome(lambda: oracles.scalar_records(data.decode(), fmt.value))
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, RecordTable)
    assert rows_of(got) == rows_of(want) and len(got) == len(want)
    if canonical:
        assert not converted  # every chunk was built in one go
    assert_same_outcomes(got, want)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(generated=record_files(), chunk=st.sampled_from([1, 2, 7, 2048]))
def test_columns_equal_scalar_records(generated, chunk):
    rows, canonical = generated
    saved = records._PARSE_CHUNK
    records._PARSE_CHUNK = chunk
    try:
        check_file(as_jsonl(rows), RecordFormat.JSON_LINES, canonical)
        csv_data = as_csv(rows)
        if csv_data is not None:
            check_file(csv_data, RecordFormat.CSV, canonical)
    finally:
        records._PARSE_CHUNK = saved


VALID = [{"id": f"r{i}", "probs": [0.25, 0.75], "pred": 1, "true": i % 2, "conf": 0.5}
         for i in range(20)]
# one faulty line per kind of fault the reader or the record checks find
LINE_FAULTS = {
    "malformed": "{",
    "not-object": "[1]",
    "invariant": '{"id":"x","probs":[0.25,0.75],"pred":0,"true":0}',
    "duplicate": json.dumps(VALID[0]),
    "boolean": '{"id":"x","probs":[0.25,0.75],"pred":1,"true":true}',
}


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("fault", sorted(LINE_FAULTS))
def test_fault_on_a_chunks_last_line(monkeypatch, chunk, fault):
    lines = [json.dumps(row) for row in VALID]
    lines.insert(1, "")  # a blank line does not count toward a chunk
    # the fault is the last non-blank line of the second chunk, on line 2 * chunk + 1
    text = "\n".join(lines[: 2 * chunk] + [LINE_FAULTS[fault]] + lines[2 * chunk :])
    want = outcome(lambda: oracles.scalar_records(text))
    assert want.startswith(f"RecordError: line {2 * chunk + 1}: ")
    assert outcome(lambda: parse_records(text)) == want
    monkeypatch.setattr(records, "_PARSE_CHUNK", chunk)
    assert outcome(lambda: parse_records(text)) == want
    assert outcome(lambda: parse_records(text.replace("\n", "\r\n"))) == want


CSV_HEADER = "id,pred,true,conf,tag,p0\n"


@pytest.mark.parametrize("n", [0, 1, 2048])
@pytest.mark.parametrize("tail", ["\n", "\n\n", "\r\n"])
def test_csv_blank_rows_after_the_last_chunk_add_nothing(n, tail):
    # a trailing blank row after the header, or after a full chunk, is a chunk of blank rows alone
    assert records._PARSE_CHUNK == 2048
    text = CSV_HEADER + "".join(f"r{i},0,0,0.5,id,1\n" for i in range(n))
    want = rows_of(parse_records(text, RecordFormat.CSV))
    assert len(want) == n
    assert rows_of(parse_records(text + tail, RecordFormat.CSV)) == want


def test_csv_chunk_of_blank_rows_alone_keeps_line_numbers(monkeypatch):
    monkeypatch.setattr(records, "_PARSE_CHUNK", 2)
    text = CSV_HEADER + "a,0,0,0.5,id,1\nb,0,0,0.5,id,1\n\n\nc,0,0,0.5,id,1\n"
    assert [rec.instance_id for rec in parse_records(text, RecordFormat.CSV)] == ["a", "b", "c"]
    faulty = text.replace("c,0,0,0.5,id,1", "c,0,0,0.5,id,2")
    with pytest.raises(RecordError, match="^line 6: "):
        parse_records(faulty, RecordFormat.CSV)


def test_probability_sums_at_the_tolerance_edge():
    rows = [[half + j * EPS / 2, 0.5, tiny * EPS, tiny * EPS]
            for half in (0.5 - 1e-6, 0.5 + 1e-6) for j in range(-8, 9) for tiny in (0.3, 0.6, 0.9)]
    probs = np.array(rows)
    by_numpy_sum = np.abs(probs.sum(axis=1) - 1.0) <= records.PROB_SUM_TOLERANCE
    by_fsum = np.array([abs(math.fsum(row) - 1.0) <= records.PROB_SUM_TOLERANCE for row in rows])
    assert (by_numpy_sum != by_fsum).any()  # rows where a plain numpy sum would decide wrongly
    for row in rows:
        line = json.dumps({"id": "a", "probs": row, "true": 0, "conf": 0.5})
        want = outcome(lambda: rows_of(oracles.scalar_records(line)))
        assert outcome(lambda: rows_of(parse_records(line))) == want


@pytest.mark.parametrize(
    "lines",
    [
        # each line alone is not one JSON value, but joined by commas the lines parse to
        # one object per line
        ['{"a":[{}', '{}]}', '{},{}'],
        ['{"a":"}', '{"}', '{"b":1},{"c":1}'],
        ['{"a":1},{"b":2', '"c":3}'],
    ],
    ids=["brackets", "string", "split-object"],
)
def test_lines_that_only_parse_joined_are_malformed(lines):
    assert RecordError in map(type, map(records._json_row, lines))
    text = "\n".join(lines)
    want = outcome(lambda: list(oracles.jsonl_objects(text)))
    assert want.startswith("RecordError: line 1: malformed JSON")
    assert outcome(lambda: parse_records(text)) == want


def test_escaped_quotes_take_the_column_path():
    rows = [{"id": f'say "{i}" \\', "probs": [0.25, 0.75], "true": i % 2, "conf": 0.5}
            for i in range(5)]
    text = as_jsonl(rows)
    assert b'\\"' in text
    with oracles.counting(records, "_prediction_row") as converted:
        table = parse_records(text)
    assert not converted
    assert rows_of(table) == rows_of(oracles.scalar_records(text.decode()))


# line bodies around valid records: JSON whitespace and other padding, escaped quotes, values
# that are not objects, and halves of objects that parse only when lines are joined
LINE_BODIES = [
    '{"id":"a\\"b","pred":0,"true":0,"conf":0.5}',
    '{"id":"c\\\\","probs":[0.5,0.5],"true":1,"conf":NaN}',
    '{"id":"\\"d\\"","pred":1,"true":1}',
    '[{"id":"e","pred":0,"true":0}]', '1', '"s"', 'null', '{"id":',
    '{"a":[{}', '{}]}', '{},{}', '{"b":1},{"c":1}', '{"a":1},{"b":2', '"c":3}',
]
PADDING = st.text(st.sampled_from(" \t\r\x0b\x0c"), max_size=2)


@st.composite
def padded_lines(draw):
    """JSON Lines text: valid records with distinct ids, among the bodies above, padded."""
    lines = []
    for i in range(draw(st.integers(1, 8))):
        body = draw(st.one_of(
            st.builds(lambda q: json.dumps({"id": f'r{i}{q}', "pred": 0, "true": 0, "conf": 0.5}),
                      st.sampled_from(["", '"', "\\", '\\"'])),
            st.sampled_from(LINE_BODIES), st.just("")))
        lines.append(draw(PADDING) + body + draw(PADDING))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=padded_lines(), chunk=st.sampled_from([1, 2, 3]))
def test_each_line_decodes_as_the_reference_decodes_it(text, chunk):
    saved = records._PARSE_CHUNK
    records._PARSE_CHUNK = chunk
    try:
        want = outcome(lambda: rows_of(oracles.scalar_records(text)))
        assert outcome(lambda: rows_of(parse_records(text))) == want
    finally:
        records._PARSE_CHUNK = saved


def test_table_reads_as_a_record_sequence():
    text = ('{"id":"a","probs":[0.6,0.4],"pred":0,"true":1,"conf":0.7}\n'
            '{"id":"b","probs":[0.2,0.8],"true":1,"tag":"ood"}\n')
    with oracles.counting(records, "_prediction_row") as converted:
        table = parse_records(text)
    assert not converted
    first = PredictionRecord("a", 0, (0.6, 0.4), 1, 0.7)
    second = PredictionRecord("b", 1, (0.2, 0.8), 1, None, DistTag.OUT_OF_DISTRIBUTION)
    assert len(table) == 2
    assert table[0] == first and table[-1] == second and table[:1] == [first]
    assert list(table) == [first, second] and table == [first, second]
    assert table != [first]
    with pytest.raises(IndexError):
        table[2]
    assert table.take(~table.ood) == [first]
    assert table.take(np.array([1, 0])) == [second, first]
    assert table.true.tolist() == [1, 1] and np.isnan(table.conf[1])


def test_record_with_an_unknown_tag_is_rejected():
    with pytest.raises(RecordError, match="^unknown tag 'weird'"):
        PredictionRecord("a", 0, true_label=0, dist_tag="weird")
    assert PredictionRecord("b", 0, confidence=0.5, dist_tag="ood").true_label is None


def test_ragged_and_mixed_rows_keep_their_probabilities():
    recs = [
        PredictionRecord("a", 0, (0.7, 0.3), 0, 0.7),
        PredictionRecord("b", 1, (0.25, 0.5, 0.25), 2),
        PredictionRecord("c", 0, None, None, 0.1, DistTag.OUT_OF_DISTRIBUTION),
    ]
    table = parse_records(records.write_records_jsonl(recs))
    assert table == recs
    assert table.prob_counts().tolist() == [2, 3, 0]
    assert math.isnan(table.probs[0, 2])


@pytest.mark.parametrize("chunk", [2048, 2])
@pytest.mark.parametrize("fmt", list(RecordFormat))
def test_a_file_without_probabilities_has_no_probability_columns(monkeypatch, fmt, chunk):
    monkeypatch.setattr(records, "_PARSE_CHUNK", chunk)
    rows = [(f"r{i}", i % 2, i % 3, 0.25 * i) for i in range(5)]
    if fmt is RecordFormat.CSV:
        text = "id,pred,true,conf,tag\n" + "".join(f"{r},{p},{t},{c},id\n" for r, p, t, c in rows)
    else:
        text = "".join(json.dumps({"id": r, "pred": p, "true": t, "conf": c}) + "\n"
                       for r, p, t, c in rows)
    table = parse_records(text, fmt)
    assert table.probs.shape == (5, 0) and table.probs.dtype == np.float64
    assert table.take(table.true > 0).probs.shape == (3, 0)
    assert [rec.probs for rec in table[1:3]] == [None, None]
    assert table.prob_counts().tolist() == [0] * 5
    assert parse_records("", fmt).probs.shape == (0, 0)
    assert parse_records(records.write_records_jsonl(table)) == table
    assert derive_outcomes(table).confidence.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(RecordError, match="^record 'r0': no probability vector$"):
        derive_outcomes(table, ConfidenceSource.MAX_SOFTMAX)


@pytest.mark.parametrize(
    "data, fmt, message",
    [('{"id":"a","pred":0,"true":0,"conf":0.5}\n{"id":"b","pred":-5,"true":0,"conf":0.9}\n',
      RecordFormat.JSON_LINES, "line 2: record 'b': pred -5 out of range"),
     ("id,pred,true,conf,tag\na,0,0,0.5,id\nb,-5,0,0.9,id\n",
      RecordFormat.CSV, "line 3: record 'b': pred -5 out of range")],
    ids=["jsonl", "csv"],
)
def test_negative_pred_without_probabilities(data, fmt, message):
    assert outcome(lambda: parse_records(data, fmt)) == f"RecordError: {message}"
    assert outcome(lambda: oracles.scalar_records(data, fmt.value)) == f"RecordError: {message}"


@pytest.mark.parametrize("tail", [
    "e,1,1,0.5,id",  # a last row with no line feed
    "e,1,1,0.5,i\rd\n",  # a malformed last row: an unquoted carriage return
], ids=["unended", "malformed"])
def test_csv_cells_keep_all_but_line_feeds(tail):
    # quoted cells keep \r, U+2028 and \x0b, which str.splitlines would split at
    text = ('id,pred,true,conf,tag\n"a\r\u2028\x0bb",0,0,0.5,id\r\n"c\nd",1,1,0.25,ood\n\n'
            + tail)
    want = outcome(lambda: rows_of(oracles.scalar_records(text, "csv")))
    assert outcome(lambda: rows_of(parse_records(text, RecordFormat.CSV))) == want
    if tail.endswith("\n"):
        assert want.startswith("RecordError: line 6: malformed CSV (new-line character seen")
    else:
        assert [row[0] for row in want] == ["a\r\u2028\x0bb", "c\nd", "e"]


def test_listing_a_table_checks_its_rows_once():
    text = "".join(json.dumps({"id": f"r{i}", "probs": [0.25, 0.75], "true": i % 2}) + "\n"
                   for i in range(2048))
    table = parse_records(text)
    with oracles.counting(records, "_checked") as checked:
        listed, sliced = list(table), table[5::7]
    assert not checked  # the columns were checked once, and no record checked itself
    assert rows_of(listed) == rows_of(oracles.scalar_records(text))
    assert sliced == listed[5::7] and table[-1] == listed[-1]
    # a slice is checked on its own rows: a faulty row outside it does not raise
    faulty = RecordTable(ids=["a", "b"], pred=np.array([0, 0]), true=np.array([0, 0]),
                         conf=np.array([0.5, 2.0]), ood=np.array([False, False]),
                         probs=np.empty((2, 0)))
    assert faulty[:1] == [PredictionRecord("a", 0, None, 0, 0.5)]
    with pytest.raises(RecordError, match="record 'b': confidence out of range"):
        list(faulty)


def test_a_float_label_converts_its_own_chunk_only(monkeypatch):
    monkeypatch.setattr(records, "_PARSE_CHUNK", 7)
    rows = [{"id": f"r{i}", "pred": i % 3, "true": i % 3, "conf": 0.5} for i in range(70)]
    rows[17]["true"] = 2.0  # chunk 3 of 10 holds rows 14 to 20
    text = "".join(json.dumps(row) + "\n" for row in rows)
    with oracles.counting(records, "_prediction_row") as converted:
        table = parse_records(text)
    assert [args[0] for args in converted] == [f"r{i}" for i in range(14, 21)]
    assert rows_of(table) == rows_of(oracles.scalar_records(text))


# faults that only ``faulty_rows`` splices in: labels past 64 bits, a negative true label, a repeat
EXTRA_FAULTS = {
    "huge-true": lambda row, k: {"true": 2**70},
    "huge-negative-pred": lambda row, k: {"pred": -(2**70), "probs": None},
    "negative-true": lambda row, k: {"true": -3},
    "repeated-id": lambda row, k: {"id": "r0"},
}


@st.composite
def faulty_rows(draw):
    """Three rows, the last with two to four faults at once, so their ranking shows."""
    k = draw(st.integers(2, 4))
    with_probs = draw(st.booleans())
    rows = []
    for i in range(3):
        row = {"id": f"r{i}", "true": draw(st.integers(0, k - 1)), "conf": draw(st.floats(0, 1))}
        if with_probs:
            row["probs"] = draw(prob_rows(k))
            row["pred"] = int(np.argmax(row["probs"]))
        else:
            row["pred"] = draw(st.integers(0, k - 1))
        rows.append(row)
    faults = {**FAULTS, **EXTRA_FAULTS}
    for name in draw(st.lists(st.sampled_from(sorted(faults)), min_size=2, max_size=4,
                              unique=True)):
        rows[2].update(faults[name](rows[2], k))
        rows[2] = {key: value for key, value in rows[2].items() if value is not None}
    return rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=faulty_rows(), chunk=st.sampled_from([1, 2, 7]))
def test_faults_on_one_row_rank_as_the_reference_ranks_them(rows, chunk):
    saved = records._PARSE_CHUNK
    records._PARSE_CHUNK = chunk
    try:
        for data, fmt in ((as_jsonl(rows), RecordFormat.JSON_LINES), (as_csv(rows), RecordFormat.CSV)):
            if data is not None:
                want = outcome(lambda: rows_of(oracles.scalar_records(data.decode(), fmt.value)))
                assert outcome(lambda: rows_of(parse_records(data, fmt))) == want
    finally:
        records._PARSE_CHUNK = saved


# rows that break two neighbouring rules at once, and the message of the one ranked first
TWO_FAULTS = {
    "range-sum": ({"probs": [1.5, 0.2], "pred": 0, "true": 0}, "probability 1.5 out of range"),
    "sum-argmax": ({"probs": [0.2, 0.9], "pred": 0, "true": 0},
                   "probability sum 1.1 exceeds tolerance"),
    "argmax-true": ({"probs": [0.3, 0.7], "pred": 0, "true": 5},
                    "pred 0 is not the argmax of probs (expected 1)"),
    "true-fit": ({"pred": 2**70, "true": -1}, "true label -1 out of range"),
    "fit-pred-true": ({"pred": 2**70, "true": 2**71}, f"label {2**70} does not fit in 64 bits"),
    "fit-true-pred": ({"pred": -1, "true": 2**70}, f"label {2**70} does not fit in 64 bits"),
    "pred-conf": ({"pred": -1, "true": 0, "conf": 2.0}, "pred -1 out of range"),
    "conf-true": ({"pred": 0, "conf": 2.0}, "confidence out of range"),
    "true-repeat": ({"id": "a", "pred": 0}, "in-distribution record lacks a true label"),
    "tag-conf": ({"pred": 0, "true": 0, "conf": 2.0, "tag": "x"}, "unknown tag 'x'"),
    "empty-conf": ({"probs": [], "pred": 0, "true": 0, "conf": 2.0}, "empty probability vector"),
}


@pytest.mark.parametrize("name", sorted(TWO_FAULTS))
def test_two_faults_on_one_row(name):
    row, message = TWO_FAULTS[name]
    text = '{"id":"a","pred":0,"true":0}\n' + json.dumps({"id": "b", **row}) + "\n"
    want = outcome(lambda: oracles.scalar_records(text))
    assert want.startswith("RecordError: line 2: ") and message in want
    assert outcome(lambda: parse_records(text)) == want


# a JSON string or object where an array belongs, which Python would iterate
@pytest.mark.parametrize("row, message", [
    ({"probs": "1", "true": 0}, "non-numeric field value"),
    ({"probs": "01", "pred": 0, "true": 0}, "non-numeric field value"),
    ({"probs": {"1.0": 5}, "true": 0}, "non-numeric field value"),
    ({"probs": 1.0, "true": 0}, "non-numeric field value"),
    ({"probs": "1", "true": 0, "tag": "x"}, "non-numeric field value"),
    ({"probs": "1", "true": True}, "boolean where a number is expected"),
], ids=["string", "digits", "object", "number", "before-tag", "after-boolean"])
def test_probs_must_be_a_json_array(row, message):
    text = '{"id":"a","pred":0,"true":0,"conf":0.5}\n' + json.dumps({"id": "b", **row}) + "\n"
    want = f"RecordError: line 2: {message}"
    assert outcome(lambda: parse_records(text)) == want
    assert outcome(lambda: oracles.scalar_records(text)) == want


def test_sum_error_prints_the_sum_that_failed():
    text = '{"id":"a","probs":[0.5,0.500002],"true":0}\n'
    want = "RecordError: line 1: record 'a': probability sum 1.0000019999999998 exceeds tolerance"
    assert outcome(lambda: parse_records(text)) == want
    assert outcome(lambda: oracles.scalar_records(text)) == want
