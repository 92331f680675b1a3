"""The array emitters against the per-point emitters they replace.

``eval`` and ``curve`` write curves from whole arrays and format each
distinct coordinate once. Their bytes must equal those of the reference
emitters in ``oracles.py``: ``json.dumps`` of ``AucccReport.to_dict``
plus the two scores, and one ``repr`` per value in the CSV.
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
from uqkit.records import OutcomeSet
from uqkit.scoring import score_outcomes

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
