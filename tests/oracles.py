"""Independent reference computations the production code is checked against.

These deliberately avoid the library's own code paths: the pairwise AUCCC
is a direct O(n*n) comparison count, the temperature closed form uses the
power identity rather than softmax-of-logs, gradients come from
central finite differences, SplitMix64 words are computed one at a
time in Python integers, and curves are written one point at a time.
"""

from __future__ import annotations

import json
import math

import numpy as np


def pairwise_auccc(correct, confidence) -> float:
    """Brute-force rank statistic: wins plus half-ties over all pairs.

    Counted in exact integers; the single division at the end is the only
    rounding step, matching how an exact rational would round.
    """
    correct = np.asarray(correct, dtype=bool)
    confidence = np.asarray(confidence, dtype=np.float64)
    pos = confidence[correct]
    neg = confidence[~correct]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("need both correct and incorrect entries")
    wins = int(np.sum(pos[:, None] > neg[None, :]))
    ties = int(np.sum(pos[:, None] == neg[None, :]))
    return (2 * wins + ties) / (2 * len(pos) * len(neg))


def power_temperature(p, temperature: float) -> np.ndarray:
    """Closed form for temperature scaling: p_i**(1/T) / sum_j p_j**(1/T)."""
    arr = np.asarray(p, dtype=np.float64)
    powered = arr ** (1.0 / temperature)
    return powered / np.sum(powered)


def central_difference(f, x: float, step: float = 1e-5) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def relative_error(a: float, b: float, floor: float = 1e-8) -> float:
    return abs(a - b) / max(abs(a) + abs(b), floor)


def splitmix64_words(key: int, n: int) -> list[int]:
    """Scalar SplitMix64 (Steele, Lea & Flood): the n words after ``key``, one at a time."""
    mask = (1 << 64) - 1
    words = []
    for _ in range(n):
        key = (key + 0x9E3779B97F4A7C15) & mask
        z = ((key ^ (key >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        words.append(z ^ (z >> 31))
    return words


def eval_json(report, scores) -> str:
    """The ``eval`` report as ``json.dumps`` of the report's dict and the two scores."""
    payload = report.to_dict()
    payload["cross_entropy"] = scores.cross_entropy
    payload["brier"] = scores.brier
    return json.dumps(payload) + "\n"


def curve_csv(curve) -> str:
    """The curve CSV, one ``repr`` per value; infinite thresholds are empty cells."""
    lines = ["threshold,one_minus_crejr,caccr"]
    for tau, x, y in zip(curve.thresholds, curve.x, curve.y):
        cell = "" if math.isinf(tau) else repr(float(tau))
        lines.append(f"{cell},{float(x)!r},{float(y)!r}")
    return "\n".join(lines) + "\n"
