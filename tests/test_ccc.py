import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pairwise_auccc
from uqkit import ccc
from uqkit.ccc import (
    CCCCurve,
    DegenerateOutcomesError,
    auccc_rank,
    auccc_trapezoid,
    ccc_curve,
    curve_to_csv,
    evaluate,
)
from uqkit.records import OutcomeSet

FOUR = OutcomeSet([True, False, True, False], [0.9, 0.8, 0.7, 0.6])


@st.composite
def outcome_sets(draw, max_size=300):
    """Random outcome sets with both classes present and frequent ties."""
    n = draw(st.integers(min_value=2, max_value=max_size))
    quantize = draw(st.sampled_from([0, 2, 5, 20]))
    if quantize:
        conf = draw(
            st.lists(
                st.integers(0, quantize).map(lambda k: k / quantize),
                min_size=n, max_size=n,
            )
        )
    else:
        conf = draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
                min_size=n, max_size=n,
            )
        )
    correct = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    correct[0], correct[1] = True, False  # both classes present
    return OutcomeSet(correct, conf)


class TestCccCurve:
    def test_perfect_separation_passes_through_top_left(self):
        s = OutcomeSet([True, True, False, False], [0.9, 0.8, 0.7, 0.6])
        curve = ccc_curve(s)
        assert (0.0, 1.0) in curve.points

    def test_interleaved_example_has_expected_points(self):
        curve = ccc_curve(FOUR)
        assert curve.points == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5, 1.0), (1.0, 1.0)]
        assert curve.thresholds[0] == math.inf
        assert list(curve.thresholds[1:]) == [0.9, 0.8, 0.7, 0.6]

    def test_all_correct_is_degenerate(self):
        with pytest.raises(DegenerateOutcomesError, match="all outcomes are correct"):
            ccc_curve(OutcomeSet([True, True], [0.9, 0.8]))

    def test_all_incorrect_is_degenerate(self):
        with pytest.raises(DegenerateOutcomesError, match="all outcomes are incorrect"):
            ccc_curve(OutcomeSet([False, False], [0.9, 0.8]))

    def test_tied_confidences_collapse_to_one_point(self):
        s = OutcomeSet([True, False], [0.5, 0.5])
        assert ccc_curve(s).points == [(0.0, 0.0), (1.0, 1.0)]

    @given(outcome_sets())
    @settings(max_examples=60, deadline=None)
    def test_curve_invariants(self, s):
        curve = ccc_curve(s)
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        assert np.all(np.diff(curve.x) >= 0)
        assert np.all(np.diff(curve.y) >= 0)
        assert np.all((curve.x >= 0) & (curve.x <= 1) & (curve.y >= 0) & (curve.y <= 1))

    @pytest.mark.parametrize(
        "x, y, thresholds, message",
        [
            ([0.0, 1.0], [0.0, 1.0], [math.inf], "curve arrays must have equal length"),
            ([0.0], [0.0], [math.inf], "curve needs at least the two endpoints"),
            ([0.0, 0.5], [0.0, 1.0], [math.inf, 0.5], r"curve must run from \(0, 0\) to \(1, 1\)"),
            ([0.5, 1.0], [0.0, 1.0], [math.inf, 0.5], r"curve must run from \(0, 0\) to \(1, 1\)"),
            ([0.0, 0.6, 0.4, 1.0], [0.0, 0.5, 0.5, 1.0], [math.inf, 0.7, 0.6, 0.5],
             "curve coordinates must be non-decreasing"),
            ([0.0, 0.5, 0.5, 1.0], [0.0, 0.6, 0.4, 1.0], [math.inf, 0.7, 0.6, 0.5],
             "curve coordinates must be non-decreasing"),
        ],
        ids=["lengths", "one-point", "end", "start", "x-falls", "y-falls"],
    )
    def test_constructor_rejects_malformed_curves(self, x, y, thresholds, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CCCCurve(x, y, thresholds)


class TestAuccc:
    def test_perfect_separation_is_one(self):
        s = OutcomeSet([True, True, False, False], [0.9, 0.8, 0.7, 0.6])
        assert auccc_trapezoid(ccc_curve(s)) == 1.0
        assert auccc_rank(s) == 1.0

    def test_constant_confidence_is_half(self):
        s = OutcomeSet([True, False, True], [0.4, 0.4, 0.4])
        assert auccc_trapezoid(ccc_curve(s)) == 0.5
        assert auccc_rank(s) == 0.5

    def test_interleaved_example_is_three_quarters(self):
        # pairwise oracle by hand: (.9,.8) win, (.9,.6) win, (.7,.8) loss,
        # (.7,.6) win -> 3/4
        assert auccc_trapezoid(ccc_curve(FOUR)) == 0.75
        assert auccc_rank(FOUR) == 0.75

    def test_single_tied_pair_counts_half(self):
        assert auccc_rank(OutcomeSet([True, False], [0.5, 0.5])) == 0.5

    def test_fully_separated_two_hundred(self):
        correct = [True] * 100 + [False] * 100
        conf = [0.6 + i * 1e-3 for i in range(100)] + [0.4 - i * 1e-3 for i in range(100)]
        assert auccc_rank(OutcomeSet(correct, conf)) == 1.0

    def test_adversarial_confidence_scores_below_half(self):
        # reversed ordering: nothing guarantees AUCCC >= 0.5
        s = OutcomeSet([True, False], [0.1, 0.9])
        assert auccc_rank(s) == 0.0

    @given(outcome_sets())
    @settings(max_examples=100, deadline=None)
    def test_equivalence_with_bruteforce(self, s):
        oracle = pairwise_auccc(s.correct, s.confidence)
        rank = auccc_rank(s)
        trap = auccc_trapezoid(ccc_curve(s))
        assert abs(rank - oracle) <= 1e-12
        assert abs(trap - oracle) <= 1e-12

    @given(outcome_sets(max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_complement_symmetry(self, s):
        flipped = OutcomeSet(~s.correct, s.confidence)
        assert abs(auccc_rank(flipped) - (1.0 - auccc_rank(s))) <= 1e-12


    def test_rank_sum_overflow_is_an_error(self, monkeypatch):
        # four outcomes have a doubled rank sum of at most 4 * 5 = 20
        monkeypatch.setattr(ccc, "_RANK_SUM_LIMIT", 20)
        assert auccc_rank(FOUR) == 0.75
        monkeypatch.setattr(ccc, "_RANK_SUM_LIMIT", 19)
        with pytest.raises(ValueError, match="4 outcomes overflow the 64-bit rank sum"):
            auccc_rank(FOUR)


class TestInvariances:
    def setup_method(self):
        rng = np.random.default_rng(1234)
        conf = np.round(rng.uniform(0.05, 0.95, size=80), 3)  # ties via rounding
        correct = rng.random(80) < 0.5
        correct[0], correct[1] = True, False
        self.s = OutcomeSet(correct, conf)

    def test_monotone_maps_leave_rank_unchanged(self):
        base = auccc_rank(self.s)
        for transform in (
            lambda x: 0.5 * x + 0.2,
            lambda x: x**3,
            lambda x: 1.0 / (1.0 + np.exp(-4.0 * (x - 0.5))),
        ):
            mapped = OutcomeSet(self.s.correct, transform(self.s.confidence))
            assert auccc_rank(mapped) == base

    def test_constant_shift_leaves_rank_unchanged(self):
        shift = (1.0 - self.s.confidence.max()) / 2
        shifted = OutcomeSet(self.s.correct, self.s.confidence + shift)
        assert auccc_rank(shifted) == auccc_rank(self.s)

    def test_duplicating_incorrect_entries_leaves_rank_unchanged(self):
        base = auccc_rank(self.s)
        for k in (2, 5):
            correct = list(self.s.correct)
            conf = list(self.s.confidence)
            for c, v in zip(self.s.correct, self.s.confidence):
                if not c:
                    correct.extend([False] * (k - 1))
                    conf.extend([v] * (k - 1))
            assert auccc_rank(OutcomeSet(correct, conf)) == base

    def test_random_confidences_score_near_half(self):
        rng = np.random.default_rng(7)
        n = 10_000
        correct = np.concatenate([np.ones(n, dtype=bool), np.zeros(n, dtype=bool)])
        conf = rng.uniform(0.0, 1.0, size=2 * n)
        assert 0.48 <= auccc_rank(OutcomeSet(correct, conf)) <= 0.52


class TestEvaluate:
    def test_report_contents(self):
        two = OutcomeSet([True, False], [0.9, 0.3])
        report = evaluate(two)
        assert report.auccc == 1.0
        assert report.n_correct == 1
        assert report.n_incorrect == 1
        assert report.curve.points[0] == (0.0, 0.0)

    def test_routes_agree(self):
        report = evaluate(FOUR)
        assert abs(report.auccc - auccc_rank(FOUR)) <= 1e-12

    def test_degenerate_propagates(self):
        with pytest.raises(DegenerateOutcomesError):
            evaluate(OutcomeSet([True], [0.9]))

    def test_disagreeing_routes_are_a_bug(self, monkeypatch):
        monkeypatch.setattr(ccc, "auccc_rank", lambda outcomes: 0.75 + 1e-9)
        with pytest.raises(RuntimeError, match="^AUCCC computations disagree: trapezoid 0.75 vs "
                                               "rank 0.750000001$"):
            evaluate(FOUR)

    def test_to_dict(self):
        d = evaluate(FOUR).to_dict()
        assert set(d) == {"auccc", "n_correct", "n_incorrect", "points"}
        assert d["points"][0] == [0.0, 0.0]


class TestCurveCsv:
    def test_header_and_infinite_threshold_cell(self):
        text = curve_to_csv(ccc_curve(FOUR))
        lines = text.strip().split("\n")
        assert lines[0] == "threshold,one_minus_crejr,caccr"
        assert lines[1].startswith(",")  # +inf endpoint rendered empty
        assert lines[2] == "0.9,0.0,0.5"

    def test_values_parse_back(self):
        text = curve_to_csv(ccc_curve(FOUR))
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        xs = [float(r[1]) for r in rows]
        ys = [float(r[2]) for r in rows]
        assert xs == [0.0, 0.0, 0.5, 0.5, 1.0]
        assert ys == [0.0, 0.5, 0.5, 1.0, 1.0]
