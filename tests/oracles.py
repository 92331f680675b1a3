"""Independent reference computations the production code is checked against.

These deliberately avoid the library's own code paths: the pairwise AUCCC
is a direct O(n*n) comparison count, the temperature closed form uses the
power identity rather than softmax-of-logs, gradients come from
central finite differences, SplitMix64 words are computed one at a
time in Python integers, curves and record files are written one
point or record at a time, and the synthetic split is drawn one row at a time.
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


def gen_split_per_row(n: int, means, config, rng):
    """A synthetic split drawn and computed one row at a time, as ``synth`` once did.

    Returns (features, labels, member_probs). The softmax runs once over all
    rows, through the library's own ``_softmax``.
    """
    from uqkit.ensemble import _softmax

    n_struct = config.feature_dim - 1
    k = config.n_classes
    features = np.empty((n, config.feature_dim))
    labels = np.empty(n, dtype=np.int64)
    logits = np.empty((n, config.ensemble_size, k))
    for i in range(n):
        y = rng.randint(k)
        struct = np.array([means[y, j] + rng.normal() for j in range(n_struct)])
        signal = rng.random()
        wrong = (y + 1 + rng.randint(k - 1)) % k
        base = np.array([-0.5 * float(np.sum((struct - means[c]) ** 2)) for c in range(k)])
        base[wrong] += config.error_signal_strength * signal * signal
        labels[i] = y
        features[i, :n_struct] = struct
        features[i, n_struct] = signal
        jitter = [[config.noise_scale * rng.normal() for _ in range(k)]
                  for _ in range(config.ensemble_size)]
        logits[i] = base + np.array(jitter)
    return features, labels, _softmax(logits)


def record_object(rec) -> dict:
    """A prediction record as the dict the JSON Lines writer serializes."""
    obj: dict = {"id": rec.instance_id}
    if rec.probs is not None:
        obj["probs"] = list(rec.probs)
    obj["pred"] = rec.pred_label
    if rec.true_label is not None:
        obj["true"] = rec.true_label
    if rec.confidence is not None:
        obj["conf"] = rec.confidence
    obj["tag"] = rec.dist_tag.value
    return obj


def records_jsonl(records) -> str:
    """Prediction-record JSON Lines, one compact ``json.dumps`` per record."""
    return "".join(json.dumps(record_object(rec), separators=(",", ":")) + "\n"
                   for rec in records)


def features_jsonl(records) -> str:
    """Feature-file JSON Lines, one compact ``json.dumps`` per record."""
    return "".join(
        json.dumps({"id": rec.instance_id, "features": list(rec.features),
                    "true": rec.true_label}, separators=(",", ":")) + "\n"
        for rec in records
    )


def records_csv(records) -> str:
    """Prediction-record CSV, one ``repr`` per number, through the csv module row by row."""
    import csv
    import io

    n_probs = max((len(r.probs) for r in records if r.probs is not None), default=0)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "pred", "true", "conf", "tag"] + [f"p{k}" for k in range(n_probs)])
    for rec in records:
        optional = [rec.true_label, rec.confidence]
        writer.writerow([rec.instance_id, repr(rec.pred_label)]
                        + ["" if value is None else repr(value) for value in optional]
                        + [rec.dist_tag.value]
                        + ([repr(p) for p in rec.probs] if rec.probs else [""] * n_probs))
    return buf.getvalue()
