"""Command-line front end.

Subcommands: ``eval`` (AUCCC report), ``curve`` (CCC curve CSV),
``ensemble`` (average + temperature-scale member record files),
``distill`` (train / apply a confidence model), ``synth`` (seeded data
generation). Machine-readable results go to standard output, diagnostics
to standard error. Exit codes: 0 success, 1 I/O or parse errors, 2
well-formed but degenerate inputs (outcomes with a single correctness
class).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ccc import DegenerateOutcomesError, ccc_curve, curve_to_csv, evaluate
from .distill import (
    ConfidenceModel,
    TrainConfig,
    cascade_inputs,
    make_cascade_examples,
    train_confidence_model,
)
from .ensemble import average_probs, temperature_scale
from .records import (
    ConfidenceSource,
    DistTag,
    PredictionRecord,
    RecordError,
    RecordFormat,
    binarize_multilabel,
    derive_io_outcomes,
    derive_outcomes,
    first_argmax,
    parse_multilabel_records,
    parse_records,
    write_records_jsonl,
)
from .scoring import score_outcomes
from .synth import (
    ConfidenceDist,
    DEFAULT_UDIST_CONFIG,
    SynthOutcomeConfig,
    SynthUdistConfig,
    gen_outcomes,
    gen_udist_task,
)
from .taskio import (
    FeatureRecord,
    align_members,
    collect_member_paths,
    load_member_records,
    parse_feature_records,
    write_feature_records,
)

MODES = ("standard", "ood-unified", "io-auroc", "multi-label")


def _infer_format(path: Path, explicit: str | None) -> RecordFormat:
    if explicit:
        return RecordFormat(explicit)
    return RecordFormat.CSV if path.suffix == ".csv" else RecordFormat.JSON_LINES


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_outcomes(args):
    path = Path(args.input)
    data = path.read_bytes()
    if args.mode == "multi-label":
        recs = parse_multilabel_records(data)
        return binarize_multilabel(recs, args.threshold)
    fmt = _infer_format(path, args.input_format)
    recs = parse_records(data, fmt)
    source = ConfidenceSource(args.confidence_source)
    if args.mode == "standard":
        recs = [r for r in recs if r.dist_tag is DistTag.IN_DISTRIBUTION]
        if not recs:
            raise RecordError("no in-distribution records in input")
        return derive_outcomes(recs, source)
    if args.mode == "ood-unified":
        return derive_outcomes(recs, source)
    if args.mode == "io-auroc":
        return derive_io_outcomes(recs, source)
    raise ValueError(f"unknown mode: {args.mode!r}")


def cmd_eval(args) -> int:
    outcomes = _load_outcomes(args)
    report = evaluate(outcomes)
    scores = score_outcomes(outcomes)
    if args.curve_out:
        Path(args.curve_out).write_text(curve_to_csv(report.curve))
    if args.format == "csv":
        sys.stdout.write(curve_to_csv(report.curve))
    else:
        payload = report.to_dict()
        payload["cross_entropy"] = scores.cross_entropy
        payload["brier"] = scores.brier
        sys.stdout.write(json.dumps(payload) + "\n")
    return 0


def cmd_curve(args) -> int:
    outcomes = _load_outcomes(args)
    _emit(curve_to_csv(ccc_curve(outcomes)), args.out)
    return 0


def _softened_records(ids, softened, trues, tags, confidence=None) -> list[PredictionRecord]:
    """One record per softened (n, K) row; confidence defaults to the row maximum."""
    records = []
    for i, row in enumerate(softened.tolist()):
        vec = tuple(row)
        records.append(
            PredictionRecord(
                instance_id=ids[i],
                pred_label=first_argmax(vec),
                probs=vec,
                true_label=trues[i],
                confidence=max(vec) if confidence is None else float(confidence[i]),
                dist_tag=tags[i],
            )
        )
    return records


def cmd_ensemble(args) -> int:
    members = load_member_records([Path(p) for p in args.inputs])
    ids, probs, trues, tags = align_members(members)
    softened = temperature_scale(average_probs(probs), args.temperature)
    _emit(write_records_jsonl(_softened_records(ids, softened, trues, tags)), args.out)
    return 0


def _aligned_task(feature_path: str, member_paths: list[str]):
    feats = parse_feature_records(Path(feature_path).read_bytes())
    if not feats:
        raise RecordError(f"no feature records in {feature_path}")
    members = load_member_records(collect_member_paths(member_paths))
    ids, probs, trues, member_tags = align_members(members)
    row_of = {rid: i for i, rid in enumerate(ids)}
    feat_dim = len(feats[0].features)
    features = np.empty((len(feats), feat_dim))
    member_probs = np.empty((len(feats), probs.shape[1], probs.shape[2]))
    labels = np.empty(len(feats), dtype=np.int64)
    tags = []
    for i, rec in enumerate(feats):
        j = row_of.get(rec.instance_id)
        if j is None:
            raise RecordError(f"instance {rec.instance_id!r} missing from ensemble members")
        if len(rec.features) != feat_dim:
            raise RecordError(f"instance {rec.instance_id!r} has inconsistent feature length")
        if trues[j] is not None and trues[j] != rec.true_label:
            raise RecordError(f"instance {rec.instance_id!r}: label disagrees with members")
        features[i] = rec.features
        member_probs[i] = probs[j]
        labels[i] = rec.true_label
        tags.append(member_tags[j])
    return feats, features, member_probs, labels, tags


def cmd_distill(args) -> int:
    if args.predict:
        if args.model is None or args.data is None:
            raise ValueError("--predict needs --model and --data")
        model = ConfidenceModel.from_json(Path(args.model).read_text())
        feats, features, member_probs, _labels, tags = _aligned_task(args.data, args.ensemble_dirs)
        inputs = cascade_inputs(features, member_probs, args.temperature)
        conf = model.forward(inputs)[:, 0]
        softened = inputs[:, -member_probs.shape[-1] :]
        ids = [rec.instance_id for rec in feats]
        trues = [rec.true_label for rec in feats]
        _emit(write_records_jsonl(_softened_records(ids, softened, trues, tags, conf)), args.out)
        return 0

    if args.train is None:
        raise ValueError("either --train or --predict is required")
    if args.out is None:
        raise ValueError("--train needs --out for the model file")
    _feats, features, member_probs, labels, _tags = _aligned_task(args.train, args.ensemble_dirs)
    data = make_cascade_examples(features, member_probs, labels, args.temperature_train)
    config = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=_resolve_seed(args, default=0),
    )
    model = train_confidence_model(data, config)
    for epoch, loss in enumerate(model.epoch_losses):
        print(f"epoch {epoch}: mean confidence loss {loss:.6f}", file=sys.stderr)
    Path(args.out).write_text(model.to_json())
    print(f"wrote model to {args.out}", file=sys.stderr)
    return 0


def _resolve_seed(args, default: int) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if getattr(args, "global_seed", None) is not None:
        return args.global_seed
    return default


def cmd_synth_outcomes(args) -> int:
    config = SynthOutcomeConfig(
        n_correct=args.n_correct,
        n_incorrect=args.n_incorrect,
        correct_conf_dist=ConfidenceDist.parse(args.correct_dist),
        incorrect_conf_dist=ConfidenceDist.parse(args.incorrect_dist),
        seed=_resolve_seed(args, default=0),
    )
    outcomes = gen_outcomes(config)
    recs = [
        PredictionRecord(
            instance_id=f"s{i:06d}",
            pred_label=0,
            true_label=0 if correct else 1,
            confidence=float(conf),
            dist_tag=DistTag.IN_DISTRIBUTION,
        )
        for i, (correct, conf) in enumerate(outcomes.entries)
    ]
    _emit(write_records_jsonl(recs), args.out)
    return 0


def cmd_synth_udist(args) -> int:
    config = SynthUdistConfig(
        n_train=args.n_train,
        n_test=args.n_test,
        feature_dim=args.feature_dim,
        n_classes=args.classes,
        ensemble_size=args.members,
        noise_scale=args.noise_scale,
        error_signal_strength=args.signal_strength,
        seed=_resolve_seed(args, default=DEFAULT_UDIST_CONFIG.seed),
    )
    task = gen_udist_task(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, split in (("train", task.train), ("test", task.test)):
        feats = [
            FeatureRecord(
                instance_id=f"{name}-{i:05d}",
                features=tuple(float(v) for v in split.features[i]),
                true_label=int(split.labels[i]),
            )
            for i in range(len(split))
        ]
        fpath = out_dir / f"{name}.features.jsonl"
        fpath.write_text(write_feature_records(feats))
        written.append(fpath)
        for m in range(config.ensemble_size):
            recs = []
            for i in range(len(split)):
                vec = tuple(float(v) for v in split.member_probs[i, m])
                recs.append(
                    PredictionRecord(
                        instance_id=f"{name}-{i:05d}",
                        pred_label=first_argmax(vec),
                        probs=vec,
                        true_label=int(split.labels[i]),
                        confidence=max(vec),
                        dist_tag=DistTag.IN_DISTRIBUTION,
                    )
                )
            mpath = out_dir / f"{name}.member{m}.jsonl"
            mpath.write_text(write_records_jsonl(recs))
            written.append(mpath)
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqkit",
        description="Confidence evaluation (CCC/AUCCC) and confidence distillation toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"uqkit {__version__}")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format for eval"
    )
    parser.add_argument(
        "--seed", dest="global_seed", type=int, default=None, help="default seed for subcommands"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_eval_flags(p):
        p.add_argument("input", help="record file (JSON Lines or CSV)")
        p.add_argument(
            "--input-format", choices=("jsonl", "csv"), default=None,
            help="input format (default: by file extension)",
        )
        p.add_argument(
            "--confidence-source", choices=("explicit", "max-softmax"), default="explicit",
            help="take confidence from the record field or from max softmax probability",
        )
        p.add_argument(
            "--mode", choices=MODES, default="standard",
            help="standard: in-distribution records only; ood-unified: everything with "
            "out-of-distribution forced incorrect; io-auroc: rank in- vs out-of-distribution; "
            "multi-label: pooled per-class outcomes",
        )
        p.add_argument(
            "--threshold", type=float, default=0.5, help="multi-label decision threshold"
        )

    p_eval = sub.add_parser("eval", help="AUCCC report with cross entropy and Brier score")
    add_eval_flags(p_eval)
    p_eval.add_argument("--curve-out", default=None, help="also write the curve CSV here")
    p_eval.set_defaults(func=cmd_eval)

    p_curve = sub.add_parser("curve", help="CCC curve as CSV")
    add_eval_flags(p_curve)
    p_curve.add_argument("--out", default=None, help="output path (default: stdout)")
    p_curve.set_defaults(func=cmd_curve)

    p_ens = sub.add_parser(
        "ensemble", help="average member record files and temperature-scale the result"
    )
    p_ens.add_argument("inputs", nargs="+", help="member record files, aligned by instance id")
    p_ens.add_argument("--temperature", type=float, default=3.0, help="softening temperature")
    p_ens.add_argument("--out", default=None, help="output path (default: stdout)")
    p_ens.set_defaults(func=cmd_ensemble)

    p_dist = sub.add_parser("distill", help="train or apply a cascade confidence model")
    p_dist.add_argument("--train", default=None, help="feature file for training")
    p_dist.add_argument("--predict", action="store_true", help="apply a trained model")
    p_dist.add_argument("--model", default=None, help="model JSON (predict mode)")
    p_dist.add_argument("--data", default=None, help="feature file to score (predict mode)")
    p_dist.add_argument(
        "--ensemble-dirs", nargs="+", required=True,
        help="ensemble member record files or directories of them",
    )
    p_dist.add_argument(
        "--temperature-train", type=float, default=TrainConfig.train_temperature,
        help="softening temperature for targets and training inputs",
    )
    p_dist.add_argument(
        "--temperature", type=float, default=3.0,
        help="softening temperature for prediction inputs",
    )
    p_dist.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p_dist.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p_dist.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p_dist.add_argument("--seed", type=int, default=None)
    p_dist.add_argument("--out", default=None, help="model path (train) or records path (predict)")
    p_dist.set_defaults(func=cmd_distill)

    p_synth = sub.add_parser("synth", help="generate seeded synthetic data")
    synth_sub = p_synth.add_subparsers(dest="synth_kind", required=True)

    p_out = synth_sub.add_parser("outcomes", help="records with chosen confidence distributions")
    p_out.add_argument("--n-correct", type=int, required=True)
    p_out.add_argument("--n-incorrect", type=int, required=True)
    p_out.add_argument(
        "--correct-dist", default="uniform:0,1",
        help="confidence distribution for correct predictions, e.g. uniform:0.5,1 "
        "| beta:5,2 | constant:0.9",
    )
    p_out.add_argument("--incorrect-dist", default="uniform:0,1")
    p_out.add_argument("--seed", type=int, default=None)
    p_out.add_argument("--out", default=None, help="output path (default: stdout)")
    p_out.set_defaults(func=cmd_synth_outcomes)

    p_ud = synth_sub.add_parser("udist", help="planted-signal distillation task files")
    p_ud.add_argument("--out-dir", required=True)
    p_ud.add_argument("--n-train", type=int, default=DEFAULT_UDIST_CONFIG.n_train)
    p_ud.add_argument("--n-test", type=int, default=DEFAULT_UDIST_CONFIG.n_test)
    p_ud.add_argument("--feature-dim", type=int, default=DEFAULT_UDIST_CONFIG.feature_dim)
    p_ud.add_argument("--classes", type=int, default=DEFAULT_UDIST_CONFIG.n_classes)
    p_ud.add_argument("--members", type=int, default=DEFAULT_UDIST_CONFIG.ensemble_size)
    p_ud.add_argument("--noise-scale", type=float, default=DEFAULT_UDIST_CONFIG.noise_scale)
    p_ud.add_argument(
        "--signal-strength", type=float, default=DEFAULT_UDIST_CONFIG.error_signal_strength
    )
    p_ud.add_argument("--seed", type=int, default=None)
    p_ud.set_defaults(func=cmd_synth_udist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; 2 is reserved for
        # degenerate data here, so remap
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except DegenerateOutcomesError as exc:
        print(f"error: degenerate outcomes: {exc}", file=sys.stderr)
        return 2
    except (RecordError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
