"""Classifier prediction records and their reduction to binary outcomes.

A prediction record captures one classifier decision: the probability
vector (optional), the predicted class, the true class (optional for
out-of-distribution data), an explicit confidence score (optional), and
an in/out-of-distribution tag. Confidence evaluation never looks at
records directly; it consumes an :class:`OutcomeSet`, a flat list of
(correct, confidence) pairs produced by the ``derive_*`` functions below.

Wire formats (both round-trip losslessly for records the toolkit emits):

- JSON Lines: one object per line with keys ``id``, ``probs`` (optional),
  ``pred`` (optional when ``probs`` is given), ``true`` (optional),
  ``conf`` (optional), ``tag`` ("id" | "ood", default "id").
- CSV: header ``id,pred,true,conf,tag,p0,...,pK``; empty cells denote
  absent optionals.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

PROB_SUM_TOLERANCE = 1e-6


class RecordError(ValueError):
    """Malformed input or a record violating its invariants."""


class DistTag(str, Enum):
    IN_DISTRIBUTION = "id"
    OUT_OF_DISTRIBUTION = "ood"


class ConfidenceSource(str, Enum):
    EXPLICIT_FIELD = "explicit"
    MAX_SOFTMAX = "max-softmax"


class RecordFormat(str, Enum):
    JSON_LINES = "jsonl"
    CSV = "csv"


def first_argmax(values: Sequence[float]) -> int:
    """Index of the maximum value; lowest index wins on ties."""
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


@dataclass(frozen=True)
class PredictionRecord:
    """One classifier decision plus its confidence signals.

    Raises :class:`RecordError` on construction if any invariant fails:
    probabilities must lie in [0, 1] and sum to 1 within 1e-6, the
    predicted label must be the (first) argmax of the probabilities,
    confidence must lie in [0, 1], and in-distribution records must carry
    a true label.
    """

    instance_id: str
    pred_label: int
    probs: tuple[float, ...] | None = None
    true_label: int | None = None
    confidence: float | None = None
    dist_tag: DistTag = DistTag.IN_DISTRIBUTION

    def __post_init__(self) -> None:
        if self.probs is not None:
            if len(self.probs) == 0:
                raise RecordError(f"record {self.instance_id!r}: empty probability vector")
            for p in self.probs:
                if not (0.0 <= p <= 1.0) or math.isnan(p):
                    raise RecordError(
                        f"record {self.instance_id!r}: probability {p} out of range"
                    )
            total = math.fsum(self.probs)
            if abs(total - 1.0) > PROB_SUM_TOLERANCE:
                raise RecordError(
                    f"record {self.instance_id!r}: probability sum {total:g} exceeds tolerance"
                )
            if self.pred_label != first_argmax(self.probs):
                raise RecordError(
                    f"record {self.instance_id!r}: pred {self.pred_label} is not the "
                    f"argmax of probs (expected {first_argmax(self.probs)})"
                )
        if self.confidence is not None and not (0.0 <= self.confidence <= 1.0):
            raise RecordError(f"record {self.instance_id!r}: confidence out of range")
        if self.dist_tag is DistTag.IN_DISTRIBUTION and self.true_label is None:
            raise RecordError(
                f"record {self.instance_id!r}: in-distribution record lacks a true label"
            )


@dataclass(frozen=True)
class MultiLabelRecord:
    """Independent per-class probabilities with binary ground truths."""

    instance_id: str
    per_class_probs: tuple[float, ...]
    true_labels: tuple[int, ...]
    dist_tag: DistTag = DistTag.IN_DISTRIBUTION

    def __post_init__(self) -> None:
        if len(self.per_class_probs) != len(self.true_labels):
            raise RecordError(
                f"record {self.instance_id!r}: {len(self.per_class_probs)} probs vs "
                f"{len(self.true_labels)} truths"
            )
        for p in self.per_class_probs:
            if not (0.0 <= p <= 1.0) or math.isnan(p):
                raise RecordError(f"record {self.instance_id!r}: probability {p} out of range")
        for t in self.true_labels:
            if t not in (0, 1):
                raise RecordError(f"record {self.instance_id!r}: truth {t} is not binary")


class OutcomeSet:
    """Parallel arrays of correctness flags and confidence scores.

    The unit of confidence evaluation: order matters only for provenance,
    every metric downstream is permutation-invariant.
    """

    __slots__ = ("correct", "confidence")

    def __init__(self, correct: Iterable[bool], confidence: Iterable[float]):
        self.correct = np.asarray(correct, dtype=bool)
        self.confidence = np.asarray(confidence, dtype=np.float64)
        if self.correct.ndim != 1 or self.confidence.ndim != 1:
            raise ValueError("outcome arrays must be one-dimensional")
        if len(self.correct) != len(self.confidence):
            raise ValueError("correct/confidence length mismatch")
        if len(self.correct) == 0:
            raise ValueError("outcome set is empty")
        if np.any(~np.isfinite(self.confidence)) or np.any(
            (self.confidence < 0.0) | (self.confidence > 1.0)
        ):
            raise ValueError("confidence out of range: all values must lie in [0, 1]")

    @property
    def entries(self) -> list[tuple[bool, float]]:
        return [(bool(c), float(s)) for c, s in zip(self.correct, self.confidence)]

    def __len__(self) -> int:
        return len(self.correct)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OutcomeSet):
            return NotImplemented
        return bool(
            np.array_equal(self.correct, other.correct)
            and np.array_equal(self.confidence, other.confidence)
        )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _as_text(stream) -> str:
    if isinstance(stream, bytes):
        try:
            return stream.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise RecordError(f"input is not valid UTF-8: {exc}") from exc
    if isinstance(stream, str):
        return stream
    data = stream.read()
    return _as_text(data)


def _parse_tag(raw, where: str) -> DistTag:
    if raw in (None, "", "id"):
        return DistTag.IN_DISTRIBUTION
    if raw == "ood":
        return DistTag.OUT_OF_DISTRIBUTION
    raise RecordError(f"{where}: unknown tag {raw!r} (expected 'id' or 'ood')")


def _record_from_fields(where, rid, probs, pred, true, conf, tag) -> PredictionRecord:
    if rid is None:
        raise RecordError(f"{where}: missing 'id'")
    if probs is None and pred is None:
        raise RecordError(f"{where}: need 'pred' or 'probs'")
    try:
        probs_t = tuple(float(p) for p in probs) if probs is not None else None
        pred_i = int(pred) if pred is not None else first_argmax(probs_t)
        true_i = int(true) if true is not None else None
        conf_f = float(conf) if conf is not None else None
    except (TypeError, ValueError):
        raise RecordError(f"{where}: non-numeric field value") from None
    try:
        return PredictionRecord(
            instance_id=str(rid),
            pred_label=pred_i,
            probs=probs_t,
            true_label=true_i,
            confidence=conf_f,
            dist_tag=_parse_tag(tag, where),
        )
    except RecordError as exc:
        raise RecordError(f"{where}: {exc}") from None


def _parse_jsonl(text: str) -> list[PredictionRecord]:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"line {lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordError(f"{where}: malformed JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise RecordError(f"{where}: expected a JSON object")
        records.append(
            _record_from_fields(
                where,
                obj.get("id"),
                obj.get("probs"),
                obj.get("pred"),
                obj.get("true"),
                obj.get("conf"),
                obj.get("tag"),
            )
        )
    return records


_CSV_FIXED = ("id", "pred", "true", "conf", "tag")


def _parse_csv(text: str) -> list[PredictionRecord]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        return []
    if header[: len(_CSV_FIXED)] != list(_CSV_FIXED):
        raise RecordError(
            f"line 1: bad CSV header, expected it to start with {','.join(_CSV_FIXED)}"
        )
    n_probs = len(header) - len(_CSV_FIXED)
    for k in range(n_probs):
        if header[len(_CSV_FIXED) + k] != f"p{k}":
            raise RecordError(f"line 1: expected probability column 'p{k}'")
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        where = f"line {lineno}"
        if len(row) != len(header):
            raise RecordError(f"{where}: expected {len(header)} cells, got {len(row)}")
        cells = [cell if cell != "" else None for cell in row]
        rid, pred, true, conf, tag = cells[:5]
        prob_cells = cells[5:]
        if any(c is not None for c in prob_cells):
            if any(c is None for c in prob_cells):
                raise RecordError(f"{where}: partial probability vector")
            try:
                probs = [float(c) for c in prob_cells]
            except ValueError:
                raise RecordError(f"{where}: non-numeric probability cell") from None
        else:
            probs = None
        records.append(_record_from_fields(where, rid, probs, pred, true, conf, tag))
    return records


def parse_records(stream, fmt: RecordFormat = RecordFormat.JSON_LINES) -> list[PredictionRecord]:
    """Parse prediction records from a byte/text stream, preserving order.

    Raises :class:`RecordError` naming the offending line on any malformed
    input or invariant violation.
    """
    text = _as_text(stream)
    if fmt is RecordFormat.JSON_LINES:
        return _parse_jsonl(text)
    if fmt is RecordFormat.CSV:
        return _parse_csv(text)
    raise ValueError(f"unknown record format: {fmt!r}")


def parse_multilabel_records(stream) -> list[MultiLabelRecord]:
    """Parse multi-label records from JSON Lines.

    One object per line: ``{"id": str, "probs": [...], "truths": [0/1, ...],
    "tag": "id"|"ood"}``.
    """
    text = _as_text(stream)
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"line {lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordError(f"{where}: malformed JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise RecordError(f"{where}: expected a JSON object")
        if obj.get("id") is None or obj.get("probs") is None or obj.get("truths") is None:
            raise RecordError(f"{where}: need 'id', 'probs' and 'truths'")
        try:
            probs = tuple(float(p) for p in obj["probs"])
            truths = tuple(int(t) for t in obj["truths"])
        except (TypeError, ValueError):
            raise RecordError(f"{where}: non-numeric field value") from None
        try:
            records.append(
                MultiLabelRecord(
                    instance_id=str(obj["id"]),
                    per_class_probs=probs,
                    true_labels=truths,
                    dist_tag=_parse_tag(obj.get("tag"), where),
                )
            )
        except RecordError as exc:
            raise RecordError(f"{where}: {exc}") from None
    return records


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def write_records_jsonl(records: Iterable[PredictionRecord]) -> str:
    """Serialize records to JSON Lines with a stable key order."""
    lines = []
    for rec in records:
        obj: dict = {"id": rec.instance_id}
        if rec.probs is not None:
            obj["probs"] = list(rec.probs)
        obj["pred"] = rec.pred_label
        if rec.true_label is not None:
            obj["true"] = rec.true_label
        if rec.confidence is not None:
            obj["conf"] = rec.confidence
        obj["tag"] = rec.dist_tag.value
        lines.append(json.dumps(obj, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


def write_records_csv(records: Sequence[PredictionRecord]) -> str:
    """Serialize records to CSV; probability columns sized to the widest record."""
    n_probs = max((len(r.probs) for r in records if r.probs is not None), default=0)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(_CSV_FIXED) + [f"p{k}" for k in range(n_probs)])
    for rec in records:
        row = [
            rec.instance_id,
            repr(rec.pred_label) if rec.pred_label is not None else "",
            repr(rec.true_label) if rec.true_label is not None else "",
            repr(rec.confidence) if rec.confidence is not None else "",
            rec.dist_tag.value,
        ]
        if rec.probs is not None:
            if len(rec.probs) != n_probs:
                raise ValueError("records with differing class counts cannot share one CSV")
            row.extend(repr(p) for p in rec.probs)
        else:
            row.extend("" for _ in range(n_probs))
        writer.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Outcome derivation
# ---------------------------------------------------------------------------


def _confidence_of(record: PredictionRecord, source: ConfidenceSource) -> float:
    if source is ConfidenceSource.EXPLICIT_FIELD:
        if record.confidence is None:
            raise RecordError(f"record {record.instance_id!r}: no explicit confidence field")
        return record.confidence
    if source is ConfidenceSource.MAX_SOFTMAX:
        if record.probs is None:
            raise RecordError(f"record {record.instance_id!r}: no probability vector")
        return max(record.probs)
    raise ValueError(f"unknown confidence source: {source!r}")


def derive_outcomes(
    records: Sequence[PredictionRecord],
    confidence_source: ConfidenceSource = ConfidenceSource.EXPLICIT_FIELD,
) -> OutcomeSet:
    """Reduce records to (correct, confidence) pairs, order-preserving.

    A prediction counts as correct only when the record is in-distribution
    and the predicted label matches the true label; every prediction on an
    out-of-distribution record counts as incorrect, which folds OOD
    detection into the same evaluation as in-distribution confidence.
    """
    correct = []
    confidence = []
    for rec in records:
        is_correct = (
            rec.dist_tag is DistTag.IN_DISTRIBUTION and rec.pred_label == rec.true_label
        )
        correct.append(is_correct)
        confidence.append(_confidence_of(rec, confidence_source))
    return OutcomeSet(correct, confidence)


def derive_io_outcomes(
    records: Sequence[PredictionRecord],
    confidence_source: ConfidenceSource = ConfidenceSource.EXPLICIT_FIELD,
) -> OutcomeSet:
    """Label records purely by distribution tag: in-distribution positive.

    Classification correctness is ignored entirely; feeding the result to
    the AUCCC machinery yields the in/out-of-distribution separation AUROC.
    """
    correct = [rec.dist_tag is DistTag.IN_DISTRIBUTION for rec in records]
    confidence = [_confidence_of(rec, confidence_source) for rec in records]
    return OutcomeSet(correct, confidence)


def binarize_multilabel(
    records: Sequence[MultiLabelRecord], threshold: float = 0.5
) -> OutcomeSet:
    """Flatten multi-label records into one pooled outcome per (record, class).

    A class is predicted positive iff its probability is >= threshold; the
    per-class confidence is max(p, 1-p), symmetric between positive and
    negative calls. All (record, class) outcomes are pooled into a single
    set (micro-aggregation).
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if len(records) == 0:
        raise ValueError("no multi-label records given")
    correct = []
    confidence = []
    for rec in records:
        for p, truth in zip(rec.per_class_probs, rec.true_labels):
            predicted_positive = p >= threshold
            correct.append(predicted_positive == bool(truth))
            confidence.append(max(p, 1.0 - p))
    return OutcomeSet(correct, confidence)
