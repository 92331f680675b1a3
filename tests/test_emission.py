"""The array emitters against the per-point and per-record emitters they replace.

``eval`` and ``curve`` write curves from whole arrays and format each
distinct coordinate once. Their bytes must equal those of the reference
emitters in ``oracles.py``: ``json.dumps`` of ``AucccReport.to_dict``
plus the two scores, and one ``repr`` per value in the CSV. Record and
feature files are written from columns too, and must equal one compact
``json.dumps`` per record.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from uqkit.ccc import CCCCurve, ccc_curve, coordinate_text, curve_to_csv, evaluate, points_json
from uqkit.cli import main
from uqkit.records import (
    DistTag,
    OutcomeSet,
    PredictionRecord,
    RecordError,
    RecordTable,
    first_argmax,
    parse_records,
    write_records_csv,
    write_records_jsonl,
)
from uqkit.scoring import score_outcomes
from uqkit.records import FeatureRecord
from uqkit.records import parse_feature_records, write_feature_records

# confidences whose repr takes an exponent, a sign or the most digits
SPECIAL = [0.0, -0.0, 1.0, 1e-05, 5e-324, 2.5e-08, 0.5, 1 / 3, 0.1, 0.9999999999999999]


@st.composite
def outcome_lists(draw, max_size=60):
    """(correct, confidence) lists with both classes: tied, all distinct, special or one value."""
    n = draw(st.integers(2, max_size))
    kind = draw(st.sampled_from(["ties", "distinct", "special", "one-value"]))
    if kind == "ties":
        conf = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n))
    elif kind == "distinct":
        conf = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n, unique=True))
    elif kind == "special":
        value = st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1.0))
        conf = draw(st.lists(value, min_size=n, max_size=n))
    else:
        conf = [draw(st.sampled_from(SPECIAL))] * n
    correct = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    correct[:2] = [True, False]
    return correct, conf


def assert_library_emitters_match(curve: CCCCurve) -> None:
    want_points = json.dumps([[float(x), float(y)] for x, y in zip(curve.x, curve.y)])
    coordinates = coordinate_text(curve)
    assert points_json(coordinates) == want_points
    assert curve_to_csv(curve) == oracles.curve_csv(curve)
    assert curve_to_csv(curve, coordinates) == oracles.curve_csv(curve)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(outcome_lists(max_size=200))
def test_curve_emitters_match_per_point_emitters(generated):
    assert_library_emitters_match(ccc_curve(OutcomeSet(*generated)))


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def check_cli(correct, conf) -> None:
    outcomes = OutcomeSet(correct, conf)
    report = evaluate(outcomes)
    rows = [{"id": f"r{i}", "pred": 0 if c else 1, "true": 0, "conf": s}
            for i, (c, s) in enumerate(zip(correct, conf))]
    with tempfile.TemporaryDirectory() as tmp:
        path, csv_path = Path(tmp) / "in.jsonl", Path(tmp) / "curve.csv"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        code, out = run_cli(["eval", str(path), "--curve-out", str(csv_path)])
        assert code == 0
        assert out == oracles.eval_json(report, score_outcomes(outcomes))
        assert csv_path.read_text() == oracles.curve_csv(report.curve)
        assert run_cli(["curve", str(path)]) == (0, oracles.curve_csv(report.curve))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(outcome_lists())
def test_eval_and_curve_commands_match_reference_bytes(generated):
    check_cli(*generated)


def test_degenerate_tie_gives_the_two_point_curve():
    check_cli([True, False, True], [0.5, 0.5, 0.5])
    curve = ccc_curve(OutcomeSet([True, False], [-0.0, -0.0]))
    assert len(curve) == 2
    assert_library_emitters_match(curve)
    assert curve_to_csv(curve).splitlines()[2] == "-0.0,1.0,1.0"


def test_coordinates_in_exponent_form():
    # x steps by 1/20000, whose repr is 5e-05; the confidences add 5e-324 and 1e-05
    n = 20_000
    conf = np.linspace(0.0, 1.0, n + 3)
    conf[:3] = [5e-324, 1e-05, 2.5e-08]
    correct = np.zeros(n + 3, dtype=bool)
    correct[-3:] = True
    curve = ccc_curve(OutcomeSet(correct, conf))
    assert "5e-05" in points_json(coordinate_text(curve)) and "5e-324," in curve_to_csv(curve)
    assert_library_emitters_match(curve)


def test_hand_built_curve_with_infinite_thresholds():
    # -0.0 beside 0.0 in one column: formatting keyed on values would merge them
    curve = CCCCurve(
        x=[-0.0, 0.0, 5e-324, 1e-05, 0.5, 1.0],
        y=[0.0, -0.0, 0.0, 2.5e-08, 0.5, 1.0],
        thresholds=[math.inf, -math.inf, 0.0, -0.0, 5e-324, -math.inf],
    )
    assert_library_emitters_match(curve)
    rows = curve_to_csv(curve).splitlines()
    assert rows[1:4] == [",-0.0,0.0", ",0.0,-0.0", "0.0,5e-324,0.0"] and rows[6] == ",1.0,1.0"
    points = points_json(coordinate_text(curve))
    assert points.startswith("[[-0.0, 0.0], [0.0, -0.0], [5e-324, 0.0]")


def test_nan_coordinate_is_rejected():
    with pytest.raises(ValueError, match="unit square"):
        CCCCurve(x=[0.0, math.nan, 1.0], y=[0.0, 0.5, 1.0], thresholds=[math.inf, 0.5, 0.1])


# ids that json.dumps escapes: quotes, backslashes, control characters,
# non-ASCII text and U+2028, which JSON allows raw but ensure_ascii escapes
ID_TEXT = st.text(st.sampled_from(
    ['a', '7', '"', '\\', '\n', '\x00', 'é', '\u2028', '\U0001f600']
))
SMALL = [0.0, -0.0, 5e-324, 1e-05, 2.5e-08]


@st.composite
def probability_vectors(draw):
    """Valid probability vectors: small or special values and one that makes the sum 1."""
    small = draw(st.lists(st.one_of(st.sampled_from(SMALL), st.floats(0.0, 0.1)),
                          max_size=5))
    at = draw(st.integers(0, len(small)))
    return tuple(small[:at] + [1.0 - math.fsum(small)] + small[at:])


@st.composite
def prediction_records(draw):
    """Records with or without probabilities (ragged across rows), labels, confidences and tags."""
    rows = []
    for i in range(draw(st.integers(0, 12))):
        probs = draw(st.one_of(st.none(), probability_vectors()))
        ood = draw(st.booleans())
        bound = len(probs) if probs is not None else 1000
        true = draw(st.one_of(st.none(), st.integers(0, bound - 1)) if ood
                    else st.integers(0, bound - 1))
        rows.append(PredictionRecord(
            instance_id=f"{i}:" + draw(ID_TEXT),  # unique: the text holds no colon
            pred_label=(first_argmax(probs) if probs is not None
                        else draw(st.integers(0, 2**63 - 1))),
            probs=probs,
            true_label=true,
            confidence=draw(st.one_of(st.none(), st.sampled_from(SMALL + [1.0]),
                                      st.floats(0.0, 1.0))),
            dist_tag=DistTag.OUT_OF_DISTRIBUTION if ood else DistTag.IN_DISTRIBUTION,
        ))
    return rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(prediction_records())
def test_record_writer_matches_per_record_dumps(records):
    want = oracles.records_jsonl(records)
    assert write_records_jsonl(records) == want
    assert write_records_jsonl(RecordTable.from_records(records)) == want
    if want:
        assert write_records_jsonl(parse_records(want)) == want
    if len({len(r.probs) for r in records if r.probs is not None}) <= 1:  # one CSV width
        assert write_records_csv(records) == oracles.records_csv(records)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(
    ID_TEXT,
    st.lists(st.one_of(st.sampled_from(SMALL + [1.0, -1e300]), st.floats(allow_nan=False)),
             min_size=1, max_size=6),
    st.integers(0, 2**63 - 1),
), max_size=12))
def test_feature_writer_matches_per_record_dumps(rows):
    records = [FeatureRecord(instance_id=rid, features=tuple(map(float, features)), true_label=y)
               for rid, features, y in rows]
    bad = next((rec for rec in records if not all(map(math.isfinite, rec.features))), None)
    if bad is None:
        text = oracles.features_jsonl(records)
        if len({rec.instance_id for rec in records}) == len(records):
            assert write_feature_records(records) == text
            return
        # a repeated id raises what reading the file raises
        with pytest.raises(RecordError) as written:
            write_feature_records(records)
        with pytest.raises(RecordError) as read:
            parse_feature_records(text)
        assert str(written.value) == str(read.value)
        return
    # the first record with a feature that is not finite raises what reading it raises
    with pytest.raises(RecordError) as written:
        write_feature_records(records)
    with pytest.raises(RecordError) as read:
        parse_feature_records(oracles.features_jsonl([bad]))
    assert str(read.value) == f"line 1: {written.value}"


def test_feature_writer_rejects_what_the_reader_rejects():
    for value, label, message in [
        (math.nan, 1, "record 'a': feature nan is not finite"),
        (math.inf, 1, "record 'a': feature inf is not finite"),
        (-math.inf, 1, "record 'a': feature -inf is not finite"),
        (0.5, 2**70, "record 'a': label 1180591620717411303424 does not fit in 64 bits"),
    ]:
        records = [FeatureRecord("b", (-0.0, 1.0), 0), FeatureRecord("a", (-0.0, value), label)]
        with pytest.raises(RecordError) as written:
            write_feature_records(records)
        assert str(written.value) == message
    # a finite row spells -0.0 as json.dumps does
    assert write_feature_records(records[:1]) == oracles.features_jsonl(records[:1]) == (
        '{"id":"b","features":[-0.0,1.0],"true":0}\n'
    )


def test_invalid_table_row_raises_the_record_error():
    table = RecordTable(ids=["a", "b"], pred=np.array([0, 0]), true=np.array([0, 0]),
                        conf=np.array([np.nan, 0.5]), ood=np.array([False, False]),
                        probs=np.array([[1.0, 0.0], [0.6, 0.5]]))
    with pytest.raises(RecordError) as today:
        oracles.records_jsonl(table)
    for write in (write_records_jsonl, write_records_csv):
        with pytest.raises(RecordError) as written:
            write(table)
        assert str(written.value) == str(today.value) == (
            "record 'b': probability sum 1.1 exceeds tolerance"
        )


def test_table_row_with_a_gap_writes_the_probabilities_it_has():
    # a hand-built row whose NaN is not trailing padding reads as the record (1.0,)
    table = RecordTable(ids=["a"], pred=np.array([0]), true=np.array([0]),
                        conf=np.array([np.nan]), ood=np.array([False]),
                        probs=np.array([[np.nan, 1.0, np.nan]]))
    assert write_records_jsonl(table) == oracles.records_jsonl(table) == (
        '{"id":"a","probs":[1.0],"pred":0,"true":0,"tag":"id"}\n'
    )
