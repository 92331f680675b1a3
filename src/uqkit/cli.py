"""Command-line front end.

Subcommands: ``eval`` (AUCCC report), ``curve`` (CCC curve CSV),
``ensemble`` (average + temperature-scale member record files),
``distill`` (train / apply a confidence model), ``synth`` (seeded data
generation). Each command returns its outputs by target (``-`` is standard
output) and its notes for standard error; ``main`` writes every output or
none (``_emit``), then the notes. Exit codes: 0 success, 1 I/O or parse
errors, 2 well-formed but degenerate inputs (one correctness class).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ccc import (
    DegenerateOutcomesError,
    ccc_curve,
    coordinate_text,
    curve_to_csv,
    evaluate,
    points_json,
)
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
    FeatureRecord,
    PredictionRecord,
    RecordError,
    RecordFormat,
    RecordTable,
    binarize_multilabel,
    derive_io_outcomes,
    derive_outcomes,
    first_argmax,
    parse_feature_records,
    parse_multilabel_records,
    parse_records,
    write_feature_records,
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
    align_members,
    collect_member_paths,
    join_ids,
    load_member_records,
    naming_file,
)

MODES = ("standard", "ood-unified", "io-auroc", "multi-label")


def _emit(outputs: dict[str, str]) -> None:
    """Write every output or none (``-`` is stdout); a non-regular target fails up front.

    Files go to temporaries beside the files they land in (through symlinks), then stdout
    is written and flushed, then the temporaries are renamed; a failure removes them.
    """
    targets = {name: Path(os.path.realpath(name)) for name in outputs if name != "-"}
    for name, target in targets.items():  # a link left unresolved is a loop
        if target.is_symlink() or target.exists() and not target.is_file():
            raise OSError(f"cannot write {name}: it exists and is not a regular file")
    temporaries = {}
    try:
        for name, target in targets.items():
            temporary = target.with_name(f".{target.name}.{os.getpid()}.{os.urandom(4).hex()}")
            temporaries[temporary] = target
            try:
                with temporary.open("x") as file:
                    file.write(outputs[name])
            except OSError as exc:
                exc.filename = name  # the error names the target, never the temporary
                raise
        if "-" in outputs:
            try:
                sys.stdout.write(outputs["-"])
                sys.stdout.flush()
            except OSError:
                # the flush at exit then drains to nowhere; a capture stream has no descriptor
                with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as devnull:
                    os.dup2(devnull.fileno(), sys.stdout.fileno())
                raise
        for temporary, target in temporaries.items():
            os.replace(temporary, target)
    except BaseException:
        for temporary in temporaries:
            temporary.unlink(missing_ok=True)
        raise


def _in_distribution(table):
    """The table's in-distribution rows; none left is an error."""
    table = table.take(~table.ood)
    if not len(table):
        raise RecordError("no in-distribution records in input")
    return table


def _load_outcomes(args):
    path = Path(args.input)
    data = path.read_bytes()
    if args.mode == "multi-label":
        table = _in_distribution(parse_multilabel_records(data))
        return binarize_multilabel(table, args.threshold)
    fmt = RecordFormat(args.input_format) if args.input_format else RecordFormat.for_path(path)
    table = parse_records(data, fmt)
    source = ConfidenceSource(args.confidence_source)
    if args.mode == "standard":
        return derive_outcomes(_in_distribution(table), source)
    if args.mode == "ood-unified":
        return derive_outcomes(table, source)
    if args.mode == "io-auroc":
        outcomes = derive_io_outcomes(table, source)  # a missing confidence is reported first
        if outcomes.correct.all() or not outcomes.correct.any():
            kind = "out-of-distribution ('ood')" if outcomes.correct[0] else "in-distribution"
            raise DegenerateOutcomesError(f"io-auroc mode: no {kind} record in input")
        return outcomes
    raise ValueError(f"unknown mode: {args.mode!r}")


def cmd_eval(args):
    if args.curve_out == "-":
        raise ValueError("--curve-out: - is standard output, which carries the JSON report")
    outcomes = _load_outcomes(args)
    report = evaluate(outcomes)
    scores = score_outcomes(outcomes)
    coordinates = coordinate_text(report.curve)  # shared by the CSV and the JSON
    outputs = {args.curve_out: curve_to_csv(report.curve, coordinates)} if args.curve_out else {}
    # the keys and separators of json.dumps(report.to_dict() | scores), with the
    # points, which make up nearly all of it, spliced in as text
    fields = {"auccc": report.auccc, "n_correct": report.n_correct,
              "n_incorrect": report.n_incorrect, "points": None,
              "cross_entropy": scores.cross_entropy, "brier": scores.brier}
    head, _, tail = json.dumps(fields).partition('"points": null')
    outputs["-"] = f'{head}"points": {points_json(coordinates)}{tail}\n'
    return outputs, []


def cmd_curve(args):
    return {args.out: curve_to_csv(ccc_curve(_load_outcomes(args)))}, []


def _probability_records(ids, probs, true, ood, confidence=None, labelled=False) -> RecordTable:
    """The records of (n, K) probability rows; confidence defaults to the row maximum.

    A negative ``true`` label is absent, unless every row is ``labelled``.
    """
    conf = probs.max(axis=1) if confidence is None else confidence
    table = RecordTable(ids=ids, pred=probs.argmax(axis=1), true=true, conf=conf, ood=ood,
                        probs=probs)
    every = np.ones(len(ids), dtype=bool)
    true_given = every if labelled else true >= 0
    if table._first_fault(np.ones(probs.shape, dtype=bool), true_given, every) is not None:
        # built one by one, the first faulty one raises
        table = RecordTable.from_records([
            PredictionRecord(instance_id=rid, pred_label=first_argmax(vec), probs=vec,
                             true_label=t if g else None, confidence=c,
                             dist_tag=DistTag.OUT_OF_DISTRIBUTION if o else DistTag.IN_DISTRIBUTION)
            for rid, vec, t, g, c, o in zip(ids, map(tuple, probs.tolist()), true.tolist(),
                                            true_given.tolist(), conf.tolist(), ood.tolist())
        ])
    return table


def cmd_ensemble(args):
    members = load_member_records(collect_member_paths(args.inputs))
    ids, probs, true, ood = align_members(members)
    softened = temperature_scale(average_probs(probs), args.temperature)
    return {args.out: write_records_jsonl(_probability_records(ids, softened, true, ood))}, []


def _aligned_task(feature_path: str, member_paths: list[str]):
    """Join a feature file with its ensemble members by instance id, in feature-file order.

    Members are aligned to member 0 first (:func:`align_members`); then the
    feature file must hold exactly member 0's ids, so an id missing on either
    side is an error, as are ragged features and labels the members contradict.
    """
    with naming_file(feature_path):
        feats = parse_feature_records(Path(feature_path).read_bytes())
    if not feats:
        raise RecordError(f"no feature records in {feature_path}")
    members = load_member_records(collect_member_paths(member_paths))
    ids, probs, member_true, ood = align_members(members)
    take = join_ids(feats.ids, ids, lambda rid: f"instance {rid!r} missing from ensemble members",
                    lambda rid: f"instance {rid!r} of the ensemble members is missing from "
                                f"{feature_path}")
    counts = feats.feature_counts()
    member_true = member_true[take]
    ragged = counts != counts[0]
    faults = np.flatnonzero(ragged | ((member_true >= 0) & (member_true != feats.true)))
    if len(faults):
        rid = feats.ids[faults[0]]
        if ragged[faults[0]]:
            raise RecordError(f"instance {rid!r} has inconsistent feature length")
        raise RecordError(f"instance {rid!r}: label disagrees with members")
    return feats.ids, feats.features, probs[take], feats.true, ood[take]


def cmd_distill(args):
    if args.predict:
        if args.model is None or args.data is None:
            raise ValueError("--predict needs --model and --data")
        model = ConfidenceModel.from_json(Path(args.model).read_text())
        ids, features, member_probs, labels, ood = _aligned_task(args.data, args.ensemble_dirs)
        inputs = cascade_inputs(features, member_probs, args.temperature)
        try:  # an overflow is the model's fault, not the records' it would spoil
            with np.errstate(over="raise", invalid="raise"):
                conf = model.forward(inputs)[:, 0]
        except FloatingPointError as exc:
            raise ValueError(f"{args.model}: the model's forward pass fails ({exc})") from None
        softened = inputs[:, -member_probs.shape[-1] :]
        records = _probability_records(ids, softened, labels, ood, conf, labelled=True)
        return {"-" if args.out is None else args.out: write_records_jsonl(records)}, []

    if args.train is None:
        raise ValueError("either --train or --predict is required")
    if args.out is None:
        raise ValueError("--train needs --out for the model file")
    config = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    _ids, features, member_probs, labels, _ood = _aligned_task(args.train, args.ensemble_dirs)
    data = make_cascade_examples(features, member_probs, labels, args.temperature_train)
    model = train_confidence_model(data, config)
    notes = [f"epoch {epoch}: mean confidence loss {loss:.6f}"
             for epoch, loss in enumerate(model.epoch_losses)]
    return {args.out: model.to_json()}, notes + [f"wrote model to {args.out}"]


def _confidence_dist(flag: str, spec: str) -> ConfidenceDist:
    """The distribution a ``--*-dist`` flag specifies; a bad spec's error names the flag."""
    try:
        return ConfidenceDist.parse(spec)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def cmd_synth_outcomes(args):
    config = SynthOutcomeConfig(
        n_correct=args.n_correct,
        n_incorrect=args.n_incorrect,
        correct_conf_dist=_confidence_dist("--correct-dist", args.correct_dist),
        incorrect_conf_dist=_confidence_dist("--incorrect-dist", args.incorrect_dist),
        seed=args.seed,
    )
    outcomes = gen_outcomes(config)
    n = len(outcomes)
    # in-distribution records predicting class 0; the incorrect ones are of class 1
    table = RecordTable(ids=[f"s{i:06d}" for i in range(n)], pred=np.zeros(n, dtype=np.int64),
                        true=(~outcomes.correct).astype(np.int64), conf=outcomes.confidence,
                        ood=np.zeros(n, dtype=bool), probs=np.empty((n, 0)))
    return {args.out: write_records_jsonl(table)}, []


def cmd_synth_udist(args):
    config = SynthUdistConfig(
        n_train=args.n_train,
        n_test=args.n_test,
        feature_dim=args.feature_dim,
        n_classes=args.classes,
        ensemble_size=args.members,
        noise_scale=args.noise_scale,
        error_signal_strength=args.signal_strength,
        seed=args.seed,
    )
    task = gen_udist_task(config)
    out_dir = Path(args.out_dir)
    texts = {}
    for name, split in (("train", task.train), ("test", task.test)):
        ids = [f"{name}-{i:05d}" for i in range(len(split))]
        feats = [
            FeatureRecord(instance_id=rid, features=tuple(row), true_label=label)
            for rid, row, label in zip(ids, split.features.tolist(), split.labels.tolist())
        ]
        texts[str(out_dir / f"{name}.features.jsonl")] = write_feature_records(feats)
        ood = np.zeros(len(ids), dtype=bool)
        for m in range(config.ensemble_size):
            recs = _probability_records(ids, split.member_probs[:, m], split.labels, ood)
            texts[str(out_dir / f"{name}.member{m}.jsonl")] = write_records_jsonl(recs)
    out_dir.mkdir(parents=True, exist_ok=True)
    return texts, [f"wrote {name}" for name in texts]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage error is one ``error:`` line, as every other error is."""

    def error(self, message):
        self.exit(1, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uqkit",
        description="Confidence evaluation (CCC/AUCCC) and confidence distillation toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"uqkit {__version__}")
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
            "multi-label: pooled per-class outcomes of in-distribution records",
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
    p_curve.add_argument("--out", default="-", help="output path (default: stdout)")
    p_curve.set_defaults(func=cmd_curve)

    p_ens = sub.add_parser(
        "ensemble", help="average member record files and temperature-scale the result"
    )
    p_ens.add_argument("inputs", nargs="+", help="member record files or directories of them")
    p_ens.add_argument("--temperature", type=float, default=3.0, help="softening temperature")
    p_ens.add_argument("--out", default="-", help="output path (default: stdout)")
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
    p_dist.add_argument("--seed", type=int, default=TrainConfig.seed)
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
    p_out.add_argument("--seed", type=int, default=SynthOutcomeConfig.seed)
    p_out.add_argument("--out", default="-", help="output path (default: stdout)")
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
    p_ud.add_argument("--seed", type=int, default=DEFAULT_UDIST_CONFIG.seed)
    p_ud.set_defaults(func=cmd_synth_udist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, --version, or a usage error (1: 2 means degenerate)
        return 0 if exc.code == 0 else 1
    try:
        outputs, notes = args.func(args)
        _emit(outputs)
    except DegenerateOutcomesError as exc:
        print(f"error: degenerate outcomes: {exc}", file=sys.stderr)
        return 2
    except (RecordError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    sys.stderr.write("".join(f"{note}\n" for note in notes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
