"""Workload profiles and the CLI command script every workload runs.

Every workload runs the same eight commands, one per CLI stage, so that
each run reports every end-to-end metric. The profiles differ in input
shape, which decides the layers that dominate:

- ``udist_pipeline``: the README pipeline on the default synthetic task;
  RNG draws and training dominate and ingest is tiny.
- ``eval_large``: large generated prediction and multi-label files; record
  parsing, outcome derivation, ``evaluate`` and curve/JSON emission
  dominate, and the distillation chain runs at a token size.
- ``ensemble_wide``: many wide ensemble members and a generated model;
  member alignment, per-row softening and record writing dominate, and
  training runs at a token size.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

METRICS = ("synth", "train", "predict", "ensemble", "eval", "curve", "eval_multilabel")
UDIST_MEMBERS = 4  # the synth udist default ensemble size
DEFAULT_UDIST_N = 2000  # the synth udist default rows per split
LARGE_K = 10  # classes of the generated single-label records
WIDE_K, WIDE_D, WIDE_MEMBERS = 10, 16, 8  # classes, features and members of the wide ensemble


@dataclass(frozen=True)
class Profile:
    udist_n: int  # rows per split of the synthetic distillation task
    epochs: int
    ml_n: int  # multi-label records
    ml_k: int
    large_n: int = 0  # generated single-label records; 0: eval the predict output
    wide_n: int = 0  # rows per generated ensemble member; 0: use the synthetic task
    light: tuple[str, ...] = ()  # short commands, repeated within a pass


PROFILES = {
    "udist_pipeline": Profile(
        udist_n=2000, epochs=200, ml_n=400, ml_k=10,
        light=("eval", "curve", "eval_multilabel"),
    ),
    "eval_large": Profile(
        udist_n=200, epochs=20, ml_n=4000, ml_k=50, large_n=40_000,
        light=("synth", "train", "predict", "ensemble"),
    ),
    "ensemble_wide": Profile(
        udist_n=200, epochs=20, ml_n=400, ml_k=10, wide_n=5000,
        light=("synth", "train", "eval", "curve", "eval_multilabel"),
    ),
}

# tiny sizes for checking the benchmark itself
SMOKE = {
    "udist_pipeline": Profile(udist_n=60, epochs=2, ml_n=50, ml_k=5),
    "eval_large": Profile(udist_n=60, epochs=2, ml_n=50, ml_k=6, large_n=500),
    "ensemble_wide": Profile(udist_n=60, epochs=2, ml_n=50, ml_k=5, wide_n=120),
}


@dataclass(frozen=True)
class Command:
    metric: str  # end-to-end metric the command's time counts toward
    name: str  # unique within the script
    argv: tuple[str, ...]  # arguments after ``python -m uqkit.cli``
    outputs: tuple[str, ...] = ()  # files or directories it writes, relative to ``out``


def script(profile: Profile, seed: int, inputs: Path, out: Path) -> list[Command]:
    """The workload's commands; outputs go under ``out``, generated inputs sit in ``inputs``."""
    task = out / "task"
    train_members = [str(task / f"train.member{m}.jsonl") for m in range(UDIST_MEMBERS)]
    if profile.wide_n:
        members = [str(inputs / f"wide.member{m}.jsonl") for m in range(WIDE_MEMBERS)]
        model, data = inputs / "wide_model.json", inputs / "wide.features.jsonl"
    else:
        members = [str(task / f"test.member{m}.jsonl") for m in range(UDIST_MEMBERS)]
        model, data = out / "model.json", task / "test.features.jsonl"
    if profile.large_n:
        eval_input, curve_input = inputs / "large.jsonl", inputs / "large.csv"
    else:
        eval_input = curve_input = out / "preds.jsonl"
    n = str(profile.udist_n)
    return [
        Command("synth", "synth", (
            "synth", "udist", "--out-dir", str(task), "--seed", str(seed),
            "--n-train", n, "--n-test", n), ("task",)),
        Command("train", "train", (
            "distill", "--train", str(task / "train.features.jsonl"),
            "--ensemble-dirs", *train_members, "--seed", str(seed),
            "--epochs", str(profile.epochs), "--out", str(out / "model.json")), ("model.json",)),
        Command("predict", "predict", (
            "distill", "--predict", "--model", str(model), "--data", str(data),
            "--ensemble-dirs", *members, "--out", str(out / "preds.jsonl")), ("preds.jsonl",)),
        Command("ensemble", "ensemble", (
            "ensemble", *members, "--out", str(out / "ensemble.jsonl")), ("ensemble.jsonl",)),
        Command("eval", "eval_explicit", (
            "eval", str(eval_input), "--curve-out", str(out / "eval_curve.csv")), ("eval_curve.csv",)),
        Command("eval", "eval_maxsoftmax", (
            "eval", str(eval_input), "--confidence-source", "max-softmax")),
        Command("curve", "curve", (
            "curve", str(curve_input), "--mode", "ood-unified",
            "--confidence-source", "max-softmax", "--out", str(out / "curve.csv")), ("curve.csv",)),
        Command("eval_multilabel", "eval_multilabel", (
            "eval", str(inputs / "ml.jsonl"), "--mode", "multi-label")),
    ]


def criterion_script(out: Path) -> list[Command]:
    """Acceptance criterion 7's default pipeline: no seed, sizes or epochs given."""
    task = out / "task"
    model, preds = str(out / "model.json"), str(out / "preds.jsonl")
    return [
        Command("synth", "c7_synth", ("synth", "udist", "--out-dir", str(task))),
        Command("train", "c7_train", (
            "distill", "--train", str(task / "train.features.jsonl"), "--ensemble-dirs",
            *(str(task / f"train.member{m}.jsonl") for m in range(UDIST_MEMBERS)), "--out", model)),
        Command("predict", "c7_predict", (
            "distill", "--predict", "--model", model, "--data", str(task / "test.features.jsonl"),
            "--ensemble-dirs", *(str(task / f"test.member{m}.jsonl") for m in range(UDIST_MEMBERS)),
            "--out", preds)),
        Command("eval", "c7_eval_explicit", ("eval", preds)),
        Command("eval", "c7_eval_maxsoftmax", ("eval", preds, "--confidence-source", "max-softmax")),
    ]
