import json
import math

import numpy as np
import pytest

from uqkit.ccc import auccc_rank
from uqkit.records import ConfidenceSource, OutcomeSet, derive_outcomes, parse_records
from uqkit.scoring import brier_score, cross_entropy, score_outcomes


def max_softmax(probs):
    """The max-softmax confidence that ``eval --confidence-source max-softmax`` reads."""
    line = json.dumps({"id": "a", "probs": probs, "true": 0})
    return derive_outcomes(parse_records(line), ConfidenceSource.MAX_SOFTMAX).confidence[0]


class TestMaxSoftmax:
    @pytest.mark.parametrize(
        "probs,expected",
        [([0.7, 0.3], 0.7), ([0.25, 0.25, 0.25, 0.25], 0.25), ([1.0, 0.0], 1.0)],
    )
    def test_examples(self, probs, expected):
        assert max_softmax(probs) == expected

    def test_empty_vector(self):
        with pytest.raises(ValueError, match="empty"):
            max_softmax([])


class TestCrossEntropy:
    def test_perfect_confidence_is_near_zero(self):
        assert cross_entropy(OutcomeSet([True], [1.0])) == pytest.approx(0.0, abs=1e-6)

    def test_half_confidence_is_ln_two(self):
        assert cross_entropy(OutcomeSet([True], [0.5])) == pytest.approx(math.log(2), abs=1e-12)

    def test_symmetric_at_half(self):
        s = OutcomeSet([False, True], [0.5, 0.5])
        assert cross_entropy(s) == pytest.approx(math.log(2), abs=1e-12)

    def test_finite_at_confident_mistake(self):
        assert math.isfinite(cross_entropy(OutcomeSet([False], [1.0])))


class TestBrier:
    def test_examples(self):
        assert brier_score(OutcomeSet([True], [1.0])) == 0.0
        assert brier_score(OutcomeSet([False], [1.0])) == 1.0
        s = OutcomeSet([True, False], [0.7, 0.2])
        assert brier_score(s) == pytest.approx(0.065, abs=1e-12)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(3)
        s = OutcomeSet(rng.random(50) < 0.5, rng.uniform(0, 1, 50))
        assert 0.0 <= brier_score(s) <= 1.0


def test_permutation_invariance():
    rng = np.random.default_rng(11)
    correct = rng.random(30) < 0.5
    conf = rng.uniform(0, 1, 30)
    s = OutcomeSet(correct, conf)
    perm = rng.permutation(30)
    p = OutcomeSet(correct[perm], conf[perm])
    assert cross_entropy(p) == pytest.approx(cross_entropy(s), abs=1e-12)
    assert brier_score(p) == pytest.approx(brier_score(s), abs=1e-12)


class TestShiftCritique:
    """Proper scoring rules move under an order-preserving shift; the rank metric does not."""

    def build_sets(self):
        correct = [False, False, False, True, True, True]
        base = [0.15, 0.25, 0.4, 0.55, 0.7, 0.85]
        shifted = [c + 0.1 for c in base]
        perturbed = list(base)
        perturbed[0] -= 0.05  # nudge the extremes, order unchanged
        perturbed[-1] += 0.05
        return (
            OutcomeSet(correct, base),
            OutcomeSet(correct, shifted),
            OutcomeSet(correct, perturbed),
        )

    def test_cross_entropy_and_brier_differ_under_shift(self):
        u, m, _ = self.build_sets()
        assert cross_entropy(u) != cross_entropy(m)
        assert brier_score(u) != brier_score(m)

    def test_auccc_identical_across_all_three(self):
        u, m, b = self.build_sets()
        assert auccc_rank(u) == auccc_rank(m) == auccc_rank(b)


def test_score_report_bundles_values():
    s = OutcomeSet([True, False], [0.9, 0.2])
    report = score_outcomes(s)
    assert report.cross_entropy == pytest.approx(cross_entropy(s))
    assert report.brier == pytest.approx(brier_score(s))
