"""Output checks that share no code with uqkit.

Each check returns a list of failure messages for one command; an empty
list means the command's outputs are right. AUCCC values are compared
with the Mann-Whitney statistic counted by binary search, probabilities
with a vectorized average-then-temperature formula, and confidences with
a forward pass read straight from the model file.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from gen import Predictions
from workloads import UDIST_MEMBERS

TOL = 1e-12
PREDICT_TEMPERATURE = 3.0  # the CLI default for ensemble and distill --predict
MARGIN_GATE = 0.02  # acceptance criterion 7
UDIST_FEATURE_DIM, UDIST_CLASSES = 8, 4  # synth udist defaults


def auc_u(correct: np.ndarray, conf: np.ndarray) -> float:
    """P(correct outranks incorrect) + half the ties, by counting pairs exactly."""
    pos = np.sort(conf[correct])
    neg = np.sort(conf[~correct])
    below = np.searchsorted(neg, pos, side="left")
    upto = np.searchsorted(neg, pos, side="right")
    twice_wins = 2 * int(below.sum(dtype=np.int64)) + int((upto - below).sum(dtype=np.int64))
    return twice_wins / (2 * len(pos) * len(neg))


def soften(members: np.ndarray, temperature: float) -> np.ndarray:
    """(n, M, K) member probabilities -> (n, K) averaged, temperature-scaled."""
    floored = np.maximum(members.mean(axis=1), 1e-12)
    floored /= floored.sum(axis=1, keepdims=True)
    z = np.log(floored) / temperature
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def forward(model: dict, x: np.ndarray) -> np.ndarray:
    sizes = model["layer_sizes"]
    a = x
    for i in range(len(sizes) - 1):
        w = np.asarray(model["weights"][i], dtype=np.float64).reshape(sizes[i], sizes[i + 1])
        z = a @ w + np.asarray(model["biases"][i], dtype=np.float64)
        a = np.tanh(z) if i < len(sizes) - 2 else 1.0 / (1.0 + np.exp(-z))
    return a[:, 0]


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def read_predictions(path: Path) -> Predictions:
    rows = read_jsonl(path)
    got = Predictions(
        ids=[r["id"] for r in rows],
        probs=np.array([r["probs"] for r in rows], dtype=np.float64),
        true=np.array([r.get("true", -1) for r in rows]),
        conf=np.array([r["conf"] for r in rows], dtype=np.float64),
        ood=np.array([r.get("tag") == "ood" for r in rows]),
    )
    if not np.array_equal([r["pred"] for r in rows], got.pred):
        raise ValueError(f"{path.name}: a pred field is not the first argmax of its probs")
    return got


def read_members(paths: list[Path]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Ids, (n, M, K) probabilities and labels of aligned member files."""
    members = [read_jsonl(p) for p in paths]
    ids = [r["id"] for r in members[0]]
    probs = np.stack([np.array([r["probs"] for r in m]) for m in members], axis=1)
    return ids, probs, np.array([r["true"] for r in members[0]])


def read_features(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    rows = read_jsonl(path)
    return ([r["id"] for r in rows], np.array([r["features"] for r in rows], dtype=np.float64),
            np.array([r["true"] for r in rows]))


def _close(name: str, got, want, tol: float = TOL) -> list[str]:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [] if err <= tol else [f"{name}: max error {err:.3g} > {tol:g}"]


def check_synth(out: Path, n: int) -> list[str]:
    fails = []
    for split in ("train", "test"):
        want = [f"{split}-{i:05d}" for i in range(n)]
        ids, feats, true = read_features(out / "task" / f"{split}.features.jsonl")
        if ids != want or feats.shape != (n, UDIST_FEATURE_DIM):
            fails.append(f"{split} features: wrong ids or shape {feats.shape}")
        m_ids, probs, m_true = read_members(
            [out / "task" / f"{split}.member{m}.jsonl" for m in range(UDIST_MEMBERS)])
        if m_ids != want or not np.array_equal(m_true, true):
            fails.append(f"{split} members: ids or labels differ from the feature file")
        fails += _close(f"{split} member prob sums", probs.sum(axis=2), np.ones(probs.shape[:2]), 1e-9)
    return fails


def check_train(out: Path) -> list[str]:
    model = json.loads((out / "model.json").read_text())
    want = [UDIST_FEATURE_DIM + UDIST_CLASSES, 32, 32, 1]
    if model.get("format") != "udist-model-v1" or model.get("layer_sizes") != want:
        return [f"model header {model.get('format')!r} {model.get('layer_sizes')}"]
    flat = np.concatenate([np.ravel(w) for w in model["weights"] + model["biases"]])
    sizes = sum(a * b + b for a, b in zip(want[:-1], want[1:]))
    if flat.size != sizes or not np.all(np.isfinite(flat)):
        return ["model parameters have the wrong count or are not finite"]
    return []


def check_ensemble(path: Path, ids, members, true) -> list[str]:
    got = read_predictions(path)
    fails = [] if got.ids == ids else ["ensemble: ids differ from the members"]
    want = soften(members, PREDICT_TEMPERATURE)
    fails += _close("ensemble probs", got.probs, want)
    if not np.array_equal(got.pred, want.argmax(axis=1)) or not np.array_equal(got.true, true):
        fails.append("ensemble: pred or true differs")
    fails += _close("ensemble conf", got.conf, got.probs.max(axis=1), 0.0)
    return fails


def check_predict(path: Path, model_path: Path, ids, features, members, true) -> list[str]:
    got = read_predictions(path)
    fails = [] if got.ids == ids else ["predict: ids differ from the feature file"]
    softened = soften(members, PREDICT_TEMPERATURE)
    fails += _close("predict probs", got.probs, softened)
    model = json.loads(model_path.read_text())
    fails += _close("predict conf", got.conf, forward(model, np.hstack([features, softened])))
    if not np.array_equal(got.true, true):
        fails.append("predict: true labels differ")
    return fails


def read_curve_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return (np.array([float(r[1]) for r in rows]), np.array([float(r[2]) for r in rows]))


def check_curve_csv(name: str, path: Path, correct, conf) -> list[str]:
    x, y = read_curve_csv(path)
    fails = []
    if len(x) != len(np.unique(conf)) + 1:
        fails.append(f"{name}: {len(x)} points, want {len(np.unique(conf)) + 1}")
    area = float(0.5 * np.sum(np.diff(x) * (y[1:] + y[:-1])))
    return fails + _close(f"{name} area", area, auc_u(correct, conf))


def check_report(name: str, stdout: bytes, correct, conf) -> tuple[list[str], float | None]:
    try:
        report = json.loads(stdout)
    except ValueError:
        return [f"{name}: stdout is not one JSON report"], None
    n_correct = int(correct.sum())
    fails = []
    if (report.get("n_correct"), report.get("n_incorrect")) != (n_correct, len(correct) - n_correct):
        fails.append(f"{name}: counts {report.get('n_correct')}/{report.get('n_incorrect')}")
    if len(report.get("points", ())) != len(np.unique(conf)) + 1:
        fails.append(f"{name}: wrong number of curve points")
    fails += _close(f"{name} auccc", report.get("auccc", np.nan), auc_u(correct, conf))
    s = np.clip(conf, 1e-7, 1 - 1e-7)
    c = correct.astype(np.float64)
    fails += _close(f"{name} cross_entropy", report.get("cross_entropy", np.nan),
                    -np.mean(c * np.log(s) + (1 - c) * np.log(1 - s)))
    fails += _close(f"{name} brier", report.get("brier", np.nan), np.mean((conf - c) ** 2))
    return fails, report.get("auccc")


def standard_outcomes(p: Predictions, source: str) -> tuple[np.ndarray, np.ndarray]:
    keep = ~p.ood
    conf = p.conf if source == "explicit" else p.probs.max(axis=1)
    return (p.pred == p.true)[keep], conf[keep]


def unified_max_softmax(p: Predictions) -> tuple[np.ndarray, np.ndarray]:
    return (p.pred == p.true) & ~p.ood, p.probs.max(axis=1)


def multilabel_outcomes(ml) -> tuple[np.ndarray, np.ndarray]:
    p = ml.probs.ravel()
    return (p >= 0.5) == (ml.truths.ravel() == 1), np.maximum(p, 1.0 - p)
