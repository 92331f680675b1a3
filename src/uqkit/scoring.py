"""Classical scoring rules for confidence scores.

Cross entropy and the Brier score grade confidence values directly, so
they move when all confidences shift by a constant even though the
ranking (and hence the accept/reject behaviour at any swept threshold)
is unchanged. They are computed here so AUCCC can be reported alongside
them for comparison. The clamped log loss behind ``cross_entropy`` is also
the confidence distillation loss of :mod:`uqkit.distill`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .records import OutcomeSet

LOG_CLAMP = 1e-7


@dataclass(frozen=True)
class ScoreReport:
    cross_entropy: float
    brier: float


def _clamped_log_loss(s, t) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise binary cross entropy of scores ``s`` against targets ``t``, and its d/ds.

    The scores are clipped once to [1e-7, 1 - 1e-7], so the loss stays finite
    at 0 and 1; the derivative is taken at the clipped score. ``eval``'s
    cross entropy and the distillation loss both come from here.
    """
    sc = np.minimum(np.maximum(s, LOG_CLAMP), 1.0 - LOG_CLAMP)  # np.clip's bits, NaN included
    t_not = 1.0 - t
    sc_not = 1.0 - sc
    loss = -(t * np.log(sc) + t_not * np.log(sc_not))
    return loss, -t / sc + t_not / sc_not


def cross_entropy(outcomes: OutcomeSet) -> float:
    """Mean binary cross entropy of confidence against correctness (the clamped log loss)."""
    loss, _ = _clamped_log_loss(outcomes.confidence, outcomes.correct.astype(np.float64))
    return float(np.mean(loss))


def brier_score(outcomes: OutcomeSet) -> float:
    """Mean squared gap between confidence and the correctness indicator."""
    c = outcomes.correct.astype(np.float64)
    return float(np.mean((outcomes.confidence - c) ** 2))


def score_outcomes(outcomes: OutcomeSet) -> ScoreReport:
    return ScoreReport(
        cross_entropy=cross_entropy(outcomes),
        brier=brier_score(outcomes),
    )
