"""Confidence-classification characteristic (CCC) analysis.

Treats confidence evaluation as a binary ranking problem: correct
predictions are the positive class, incorrect ones the negative class,
and the confidence score is the ranking statistic. Sweeping an acceptance
threshold over the scores yields a curve exactly analogous to a ROC
curve; the area under it (AUCCC) is the probability that a randomly
chosen correct prediction outranks a randomly chosen incorrect one, with
ties counting one half.

Two independent computations of AUCCC are provided and must agree to
1e-12: the trapezoidal area under the curve, and an O(n log n) rank-sum
statistic computed in exact integer arithmetic. Their agreement is
asserted by :func:`evaluate` on every call.

Curves are written from their arrays: :func:`curve_to_csv` and
:func:`points_json` give the bytes that ``repr`` per value and
``json.dumps`` of :meth:`AucccReport.to_dict` give, but format each
distinct coordinate once (:func:`coordinate_text`). A curve of n outcomes
has up to n + 1 points, but its coordinates take at most n_incorrect + 1
and n_correct + 1 distinct values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .records import OutcomeSet, _float_text, _interleaved

AUCCC_CONSISTENCY_TOL = 1e-12
# the doubled rank sum of n outcomes reaches n(n + 1), computed in int64
_RANK_SUM_LIMIT = int(np.iinfo(np.int64).max)


class DegenerateOutcomesError(ValueError):
    """All outcomes share one correctness class; the curve rates are undefined."""


class CCCCurve:
    """Acceptance trade-off curve: x = 1 - CRejR, y = CAccR, one point per threshold.

    Points are ordered by increasing x, start at (0, 0) (threshold +inf,
    nothing accepted) and end at (1, 1) (minimum confidence, everything
    accepted). Tied confidence values collapse to a single point, so ties
    appear as diagonal segments.
    """

    __slots__ = ("x", "y", "thresholds")

    def __init__(self, x, y, thresholds):
        self.x = np.asarray(x, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.thresholds = np.asarray(thresholds, dtype=np.float64)
        if not (len(self.x) == len(self.y) == len(self.thresholds)):
            raise ValueError("curve arrays must have equal length")
        if len(self.x) < 2:
            raise ValueError("curve needs at least the two endpoints")
        if self.x[0] != 0.0 or self.y[0] != 0.0 or self.x[-1] != 1.0 or self.y[-1] != 1.0:
            raise ValueError("curve must run from (0, 0) to (1, 1)")
        if np.any(np.diff(self.x) < 0) or np.any(np.diff(self.y) < 0):
            raise ValueError("curve coordinates must be non-decreasing")
        if not np.all((self.x >= 0) & (self.x <= 1) & (self.y >= 0) & (self.y <= 1)):
            raise ValueError("curve coordinates must lie in the unit square")

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.x.tolist(), self.y.tolist()))

    def __len__(self) -> int:
        return len(self.x)


def _class_counts(outcomes: OutcomeSet) -> tuple[int, int]:
    n_correct = int(np.sum(outcomes.correct))
    n_incorrect = len(outcomes) - n_correct
    if n_correct == 0:
        raise DegenerateOutcomesError(
            "all outcomes are incorrect: correct-accept rate is undefined"
        )
    if n_incorrect == 0:
        raise DegenerateOutcomesError(
            "all outcomes are correct: correct-reject rate is undefined"
        )
    return n_correct, n_incorrect


def ccc_curve(outcomes: OutcomeSet) -> CCCCurve:
    """Build the CCC curve, one point per distinct confidence value.

    Thresholds sweep the distinct confidences in descending order; each
    point accepts everything at or above its threshold. Raises
    :class:`DegenerateOutcomesError` when the outcomes contain only one
    correctness class.
    """
    n_correct, n_incorrect = _class_counts(outcomes)
    order = np.argsort(-outcomes.confidence, kind="stable")
    conf_desc = outcomes.confidence[order]
    correct_desc = outcomes.correct[order]

    # last index of each tied group = the prefix accepted at that threshold
    group_ends = np.flatnonzero(np.diff(conf_desc) != 0)
    group_ends = np.concatenate([group_ends, [len(conf_desc) - 1]])

    cum_correct = np.cumsum(correct_desc)
    accepted_correct = cum_correct[group_ends]
    accepted_total = group_ends + 1
    accepted_incorrect = accepted_total - accepted_correct

    x = np.concatenate([[0.0], accepted_incorrect / n_incorrect])
    y = np.concatenate([[0.0], accepted_correct / n_correct])
    thresholds = np.concatenate([[math.inf], conf_desc[group_ends]])
    return CCCCurve(x, y, thresholds)


def auccc_trapezoid(curve: CCCCurve) -> float:
    """Trapezoidal area under the curve over x in [0, 1]."""
    dx = curve.x[1:] - curve.x[:-1]
    return float(0.5 * np.sum(dx * (curve.y[1:] + curve.y[:-1])))


def auccc_rank(outcomes: OutcomeSet) -> float:
    """AUCCC as a rank statistic: wins plus half-ties over all correct/incorrect pairs.

    Computed in O(n log n) by sorting and summing midranks of the correct
    entries. All intermediate arithmetic is on exact integers (doubled
    midranks), so the single final division is the only rounding step;
    order-preserving transformations of the confidences therefore leave
    the result bit-identical.
    """
    n_correct, n_incorrect = _class_counts(outcomes)
    n = len(outcomes)
    if n * (n + 1) > _RANK_SUM_LIMIT:
        raise ValueError(f"{n} outcomes overflow the 64-bit rank sum")
    order = np.argsort(outcomes.confidence, kind="stable")
    conf = outcomes.confidence[order]
    correct = outcomes.correct[order]

    boundaries = np.flatnonzero(np.diff(conf) != 0)
    starts = np.concatenate([[0], boundaries + 1])
    ends = np.concatenate([boundaries + 1, [len(conf)]])

    cum = np.concatenate([[0], np.cumsum(correct)])
    correct_per_group = cum[ends] - cum[starts]
    twice_midrank = 2 * starts + (ends - starts) + 1  # ranks are 1-based

    twice_rank_sum = int(np.dot(correct_per_group, twice_midrank))
    twice_u = twice_rank_sum - n_correct * (n_correct + 1)
    return twice_u / (2 * n_correct * n_incorrect)


@dataclass(frozen=True)
class AucccReport:
    """AUCCC with class counts and the curve it was integrated from."""

    auccc: float
    n_correct: int
    n_incorrect: int
    curve: CCCCurve

    def to_dict(self) -> dict:
        return {
            "auccc": self.auccc,
            "n_correct": self.n_correct,
            "n_incorrect": self.n_incorrect,
            "points": [[x, y] for x, y in self.curve.points],
        }


def evaluate(outcomes: OutcomeSet) -> AucccReport:
    """Curve plus AUCCC, with the two AUCCC routes cross-checked.

    The trapezoidal area and the rank statistic are computed independently
    and must agree within 1e-12; disagreement indicates a bug rather than
    a data condition, so it raises RuntimeError.
    """
    n_correct, n_incorrect = _class_counts(outcomes)
    curve = ccc_curve(outcomes)
    area = auccc_trapezoid(curve)
    rank = auccc_rank(outcomes)
    if abs(area - rank) > AUCCC_CONSISTENCY_TOL:
        raise RuntimeError(
            f"AUCCC computations disagree: trapezoid {area!r} vs rank {rank!r}"
        )
    return AucccReport(auccc=area, n_correct=n_correct, n_incorrect=n_incorrect, curve=curve)


def coordinate_text(curve: CCCCurve) -> tuple[np.ndarray, np.ndarray]:
    """The ``repr`` text of the curve's x and y, for the curve's two writers."""
    return _float_text(curve.x), _float_text(curve.y)


def points_json(coordinates: tuple[np.ndarray, np.ndarray]) -> str:
    """A curve's points as ``json.dumps`` writes them, from its :func:`coordinate_text`.

    That is ``[[x, y], [x, y], ...]`` with the ``repr`` of each value.
    """
    x_text, y_text = coordinates
    return "[[" + _interleaved([x_text, ", ", y_text, "], ["])[: -len("], [")] + "]]"


def curve_to_csv(curve: CCCCurve, coordinates=None) -> str:
    """Render the curve as CSV; infinite endpoint thresholds become empty cells.

    ``coordinates`` is the curve's :func:`coordinate_text`, if already formatted.
    """
    x_text, y_text = coordinate_text(curve) if coordinates is None else coordinates
    thresholds = _float_text(curve.thresholds)
    thresholds[np.isinf(curve.thresholds)] = ""
    rows = _interleaved([thresholds, ",", x_text, ",", y_text, "\n"])
    return "threshold,one_minus_crejr,caccr\n" + rows
