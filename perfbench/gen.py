"""Seeded input generators for the benchmark workloads.

Everything here draws from numpy's ``default_rng`` and never from uqkit's
own generator, so a change to the program's RNG streams cannot change
what the generated workloads feed it. Floats are written with ``repr``,
which round-trips exactly, so the oracles can use the in-memory arrays
as the values the program parsed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import LARGE_K, WIDE_D, WIDE_K, WIDE_MEMBERS

HIDDEN = (32, 32)


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class Predictions:
    """Single-label prediction records as parallel arrays."""

    ids: list[str]
    probs: np.ndarray  # (n, K)
    true: np.ndarray  # (n,), meaningless where ood
    conf: np.ndarray  # (n,) explicit confidence
    ood: np.ndarray  # (n,) bool

    @property
    def pred(self) -> np.ndarray:
        return self.probs.argmax(axis=1)  # first maximum, like the program


@dataclass
class MultiLabel:
    ids: list[str]
    probs: np.ndarray  # (n, K)
    truths: np.ndarray  # (n, K) in {0, 1}


@dataclass
class Inputs:
    """What one set-up wrote: file paths plus the arrays behind them."""

    files: dict[str, Path] = field(default_factory=dict)
    large: Predictions | None = None
    multilabel: MultiLabel | None = None
    wide_members: np.ndarray | None = None  # (n, M, K)
    wide_features: np.ndarray | None = None  # (n, d)
    wide_true: np.ndarray | None = None
    wide_ids: list[str] | None = None


def _floats(row) -> str:
    return ",".join(map(repr, row))


def write_predictions(p: Predictions, jsonl: Path | None = None, csv: Path | None = None) -> None:
    """Write the records as JSON Lines and/or CSV; both share the formatted probabilities."""
    pred = p.pred.tolist()
    probs = [_floats(row) for row in p.probs.tolist()]
    true = ["" if o else str(t) for t, o in zip(p.true.tolist(), p.ood.tolist())]
    conf = [repr(c) for c in p.conf.tolist()]
    tags = ["ood" if o else "id" for o in p.ood.tolist()]
    if jsonl is not None:
        lines = [
            f'{{"id":"{rid}","probs":[{probs[i]}],"pred":{pred[i]}'
            + (f',"true":{true[i]}' if true[i] else "")
            + f',"conf":{conf[i]},"tag":"{tags[i]}"}}'
            for i, rid in enumerate(p.ids)
        ]
        jsonl.write_text("\n".join(lines) + "\n")
    if csv is not None:
        k = p.probs.shape[1]
        lines = ["id,pred,true,conf,tag," + ",".join(f"p{j}" for j in range(k))]
        lines += [f"{rid},{pred[i]},{true[i]},{conf[i]},{tags[i]},{probs[i]}"
                  for i, rid in enumerate(p.ids)]
        csv.write_text("\n".join(lines) + "\n")


def predictions(rng: np.random.Generator, n: int, k: int, ood_share: float) -> Predictions:
    """Records from a classifier of varying skill, with an informative explicit confidence."""
    true = rng.integers(k, size=n)
    logits = rng.normal(size=(n, k))
    logits[np.arange(n), true] += rng.gamma(2.0, 1.0, size=n)
    probs = softmax(logits)
    ood = rng.random(n) < ood_share
    correct = (probs.argmax(axis=1) == true) & ~ood
    conf = 1.0 / (1.0 + np.exp(-(1.5 * correct - 0.75 + rng.normal(size=n))))
    ids = [f"r{i:07d}" for i in range(n)]
    return Predictions(ids=ids, probs=probs, true=true, conf=conf, ood=ood)


def multilabel(rng: np.random.Generator, n: int, k: int) -> MultiLabel:
    probs = 1.0 / (1.0 + np.exp(-2.0 * rng.normal(size=(n, k))))
    truths = (rng.random(size=(n, k)) < 0.1 + 0.8 * probs).astype(np.int64)
    return MultiLabel(ids=[f"m{i:07d}" for i in range(n)], probs=probs, truths=truths)


def write_multilabel(path: Path, m: MultiLabel) -> None:
    probs = m.probs.tolist()
    truths = m.truths.tolist()
    lines = [
        f'{{"id":"{rid}","probs":[{_floats(probs[i])}],"truths":[{",".join(map(str, truths[i]))}],"tag":"id"}}'
        for i, rid in enumerate(m.ids)
    ]
    path.write_text("\n".join(lines) + "\n")


def wide_ensemble(rng: np.random.Generator, n: int, n_members: int, k: int, d: int):
    """Members sharing base logits plus per-member jitter; features that carry the logits."""
    true = rng.integers(k, size=n)
    features = rng.normal(size=(n, d))
    base = features[:, :k] * 0.8
    base[np.arange(n), true] += rng.gamma(2.0, 1.0, size=n)
    jitter = 0.3 * rng.normal(size=(n, n_members, k))
    members = softmax(base[:, None, :] + jitter)
    return members, features, true


def glorot_model(rng: np.random.Generator, sizes: list[int]) -> dict:
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=fan_in * fan_out).tolist())
        biases.append((0.1 * rng.normal(size=fan_out)).tolist())
    return {
        "format": "udist-model-v1",
        "layer_sizes": sizes,
        "activation": "tanh",
        "weights": weights,
        "biases": biases,
    }


def make_inputs(profile, seed: int, out: Path) -> Inputs:
    """Write every generated input file of a workload profile into ``out``."""
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)
    inputs = Inputs()
    if profile.large_n:
        large = predictions(rng, profile.large_n, LARGE_K, ood_share=0.1)
        inputs.large = large
        inputs.files["large.jsonl"] = out / "large.jsonl"
        inputs.files["large.csv"] = out / "large.csv"
        write_predictions(large, inputs.files["large.jsonl"], inputs.files["large.csv"])
    ml = multilabel(rng, profile.ml_n, profile.ml_k)
    inputs.multilabel = ml
    inputs.files["ml.jsonl"] = out / "ml.jsonl"
    write_multilabel(inputs.files["ml.jsonl"], ml)
    if profile.wide_n:
        k, d, m = WIDE_K, WIDE_D, WIDE_MEMBERS
        members, features, true = wide_ensemble(rng, profile.wide_n, m, k, d)
        ids = [f"w{i:07d}" for i in range(profile.wide_n)]
        inputs.wide_members, inputs.wide_features = members, features
        inputs.wide_true, inputs.wide_ids = true, ids
        for j in range(m):
            rec = Predictions(ids=ids, probs=members[:, j, :], true=true,
                              conf=members[:, j, :].max(axis=1), ood=np.zeros(len(ids), bool))
            path = inputs.files[f"wide.member{j}.jsonl"] = out / f"wide.member{j}.jsonl"
            write_predictions(rec, jsonl=path)
        feats = features.tolist()
        lines = [
            f'{{"id":"{rid}","features":[{_floats(feats[i])}],"true":{int(true[i])}}}'
            for i, rid in enumerate(ids)
        ]
        path = inputs.files["wide.features.jsonl"] = out / "wide.features.jsonl"
        path.write_text("\n".join(lines) + "\n")
        model = glorot_model(rng, [d + k, *HIDDEN, 1])
        path = inputs.files["wide_model.json"] = out / "wide_model.json"
        path.write_text(json.dumps(model))
    return inputs
