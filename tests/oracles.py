"""Independent reference computations the production code is checked against.

These deliberately avoid the library's own code paths: the pairwise AUCCC
is a direct O(n*n) comparison count, the temperature closed form uses the
power identity rather than softmax-of-logs, gradients come from
central finite differences, SplitMix64 words are computed one at a
time in Python integers, curves and record files are written one
point or record at a time, the synthetic split is drawn one row at a time,
and training gathers each batch on its own and updates each parameter
array on its own, with every intermediate in a fresh array.
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


def loss_and_grads_allocating(model, x, t):
    """Mean clamped log loss and per-layer ``(dw, db)``, every intermediate a fresh array.

    ``x`` is (n, d) and ``t`` is (n, outputs), both float64.
    """
    activations = [x]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        activations.append(np.tanh(activations[-1] @ w + b))
    z = activations[-1] @ model.weights[-1] + model.biases[-1]
    s = 1.0 / (1.0 + np.exp(-z))
    clamp = 1e-7
    sc = np.clip(s, clamp, 1.0 - clamp)
    losses = -(t * np.log(sc) + (1.0 - t) * np.log(1.0 - sc))
    dloss_dsc = -t / sc + (1.0 - t) / (1.0 - sc)
    inside_clamp = (s > clamp) & (s < 1.0 - clamp)
    dz = dloss_dsc * (1.0 / t.size) * inside_clamp * s * (1.0 - s)
    grads = []
    for layer in range(len(model.weights) - 1, -1, -1):
        grads.append((activations[layer].T @ dz, dz.sum(axis=0)))
        if layer > 0:
            da = dz @ model.weights[layer].T
            dz = da * (1.0 - activations[layer] ** 2)
    grads.reverse()
    return float(np.mean(losses)), grads


def train_per_parameter(data, config):
    """``train_confidence_model`` as a loop of gathered batches and per-array updates.

    Uses the library's Glorot init and epoch shuffles, so only the training
    arithmetic is independent. Returns the trained model.
    """
    from uqkit.distill import DEFAULT_HIDDEN, TARGET_CLAMP, init_confidence_model
    from uqkit.rng import PortableRng

    x, t = (np.asarray(a, dtype=np.float64) for a in data)
    t = np.clip(t.reshape(-1, 1), TARGET_CLAMP, 1.0 - TARGET_CLAMP)
    rng = PortableRng(config.seed)
    model = init_confidence_model(x.shape[1], DEFAULT_HIDDEN, 1, rng)
    n = x.shape[0]
    lr = config.learning_rate
    decay_points = {config.epochs // 2, (3 * config.epochs) // 4}
    for epoch in range(config.epochs):
        if epoch in decay_points and epoch > 0:
            lr *= config.lr_decay
        order = rng.permutation(n)
        epoch_loss_total = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = loss_and_grads_allocating(model, x[batch], t[batch])
            epoch_loss_total += loss * len(batch)
            for (w, b), (dw, db) in zip(zip(model.weights, model.biases), grads):
                w -= lr * dw
                b -= lr * db
        model.epoch_losses.append(epoch_loss_total / n)
    return model
