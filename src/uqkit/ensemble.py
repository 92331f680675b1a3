"""Ensemble probability averaging and temperature softening.

Averaging the probability outputs of independently trained models gives
better-calibrated confidence than any single member; dividing the log
probabilities by a temperature T before re-normalizing then softens the
remaining over-confidence. T = 1 is the identity, T > 1 flattens toward
uniform, T < 1 sharpens. The softened probability of the true class is
the training target for confidence distillation.

Every function works on whole arrays: the last axis holds the K class
probabilities, the axis before it the M members, and any leading axes
index rows. ``temperature_scale(average_probs(P), T)`` turns an (n, M, K)
array into n softened (K,) rows in one call; a single (M, K) ensemble or
a single (K,) vector is the same call without the row axis.
"""

from __future__ import annotations

import numpy as np

from .records import PROB_SUM_TOLERANCE

LOG_FLOOR = 1e-12


def _locate(index: tuple[int, ...], last: str) -> str:
    """Name the vector at ``index``: leading axes are rows, the last one is ``last``."""
    names = ["row"] * (len(index) - 1) + [last]
    return ", ".join(f"{name} {i}" for name, i in zip(names, index)) or "probability vector"


def _first(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(int(i) for i in np.argwhere(mask)[0])


def _validate_distributions(p: np.ndarray, last: str) -> None:
    """Raise ValueError unless every vector along the last axis is a distribution."""
    if p.ndim == 0 or p.shape[-1] == 0:
        raise ValueError("probability vectors must be non-empty")
    in_range = np.all((p >= 0.0) & (p <= 1.0), axis=-1)
    if not np.all(in_range):
        raise ValueError(f"{_locate(_first(~in_range), last)} has entries outside [0, 1]")
    totals = np.sum(p, axis=-1)
    off = np.abs(totals - 1.0) > PROB_SUM_TOLERANCE
    if np.any(off):
        at = _first(off)
        raise ValueError(f"{_locate(at, last)} sums to {totals[at]:g}, not 1 within tolerance")


def average_probs(members) -> np.ndarray:
    """Arithmetic mean over the member axis: (..., M, K) -> (..., K)."""
    try:
        arr = np.asarray(members, dtype=np.float64)
    except ValueError:
        raise ValueError("ensemble members differ in length") from None
    if arr.ndim < 2 or arr.shape[-2] == 0:
        raise ValueError(f"no ensemble members given: expected (..., M, K), got shape {arr.shape}")
    _validate_distributions(arr, "member")
    return np.mean(arr, axis=-2)


def temperature_scale(p, temperature: float) -> np.ndarray:
    """Soften distributions: softmax of the log probabilities divided by T.

    Works row-wise on (..., K). Entries are floored at 1e-12 and
    re-normalized before the log so exact zeros (e.g. from one-hot
    ensemble members) stay finite. The ordering of entries within a row
    is preserved for every T > 0.
    """
    if not temperature > 0.0:  # also rejects NaN
        raise ValueError(f"temperature must be positive, got {temperature}")
    arr = np.asarray(p, dtype=np.float64)
    _validate_distributions(arr, "row")
    floored = np.maximum(arr, LOG_FLOOR)
    floored = floored / np.sum(floored, axis=-1, keepdims=True)
    z = np.log(floored) / temperature
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def actual_class_confidence(softened, true_label):
    """The softened probability of the actual class: (..., K) and (...) -> (...).

    A single (K,) vector with one label gives a float.
    """
    arr = np.asarray(softened, dtype=np.float64)
    labels = np.asarray(true_label, dtype=np.int64)
    k = arr.shape[-1]
    bad = (labels < 0) | (labels >= k)
    if np.any(bad):
        at = _first(bad)
        where = f"{_locate(at, 'row')}: " if at else ""
        raise ValueError(f"{where}true label {labels[at]} out of range for {k} classes")
    picked = np.take_along_axis(arr, labels[..., None], axis=-1)[..., 0]
    return float(picked) if picked.ndim == 0 else picked
