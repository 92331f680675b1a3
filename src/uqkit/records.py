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
from typing import Callable, Iterable, Iterator, Sequence

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

    @classmethod
    def for_path(cls, path) -> "RecordFormat":
        """The format a record file's name implies: CSV for ``.csv``, else JSON Lines."""
        return cls.CSV if path.suffix == ".csv" else cls.JSON_LINES


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
    predicted label must be the (first) argmax of the probabilities, a
    true label must be non-negative and, with probabilities, below their
    count, confidence must lie in [0, 1], and in-distribution records must
    carry a true label.
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
        if self.true_label is not None:
            k = len(self.probs) if self.probs is not None else None
            if self.true_label < 0 or (k is not None and self.true_label >= k):
                classes = "" if k is None else f" for {k} classes"
                raise RecordError(
                    f"record {self.instance_id!r}: true label {self.true_label} "
                    f"out of range{classes}"
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
    if not isinstance(stream, (bytes, str)):
        stream = stream.read()
    if isinstance(stream, str):
        return stream
    try:
        return stream.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RecordError(f"input is not valid UTF-8: {exc}") from exc


def _parse_tag(raw) -> DistTag:
    if raw in (None, "", "id"):
        return DistTag.IN_DISTRIBUTION
    if raw == "ood":
        return DistTag.OUT_OF_DISTRIBUTION
    raise RecordError(f"unknown tag {raw!r} (expected 'id' or 'ood')")


def _located(rows: Iterable[tuple[str, object]], build: Callable[[object], object]) -> list:
    """``build(row)`` per ``(where, row)`` pair, in order; errors and repeated ids name where."""
    records = []
    first_seen: dict[str, str] = {}
    for where, row in rows:
        try:
            rec = build(row)
        except RecordError as exc:
            raise RecordError(f"{where}: {exc}") from None
        first = first_seen.setdefault(rec.instance_id, where)
        if first != where:  # every row has its own line number
            raise RecordError(f"{where}: duplicate id {rec.instance_id!r} (first on {first})")
        records.append(rec)
    return records


def _jsonl_objects(stream) -> Iterator[tuple[str, dict]]:
    """Yield ``("line N", object)`` for each non-blank line of a JSON Lines stream.

    Lines end at a line feed only (a carriage return before it is JSON
    whitespace), so the U+2028, U+2029 and U+0085 that JSON allows raw
    inside strings stay put.
    Raises :class:`RecordError` naming the line if the text is not UTF-8,
    a line is not JSON (nesting too deep or an integer too long included),
    or a line holds anything but a JSON object.
    """
    for lineno, line in enumerate(_as_text(stream).split("\n"), start=1):
        if not line.strip():
            continue
        where = f"line {lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordError(f"{where}: malformed JSON ({exc.msg})") from None
        except (ValueError, RecursionError) as exc:
            raise RecordError(f"{where}: malformed JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise RecordError(f"{where}: expected a JSON object")
        yield where, obj


# the scalar fields of a prediction record: JSON keys and leading CSV columns
_FIELDS = ("id", "pred", "true", "conf", "tag")


def _integral(*labels) -> None:
    """Reject a fractional number given as a class label, which ``int()`` would truncate."""
    for label in labels:
        if isinstance(label, float) and not label.is_integer():
            raise RecordError(f"label {label!r} is not an integer")


def _record_from_fields(rid, pred, true, conf, tag, probs) -> PredictionRecord:
    if rid is None:
        raise RecordError("missing 'id'")
    if probs is None and pred is None:
        raise RecordError("need 'pred' or 'probs'")
    _integral(pred, true)
    try:
        probs_t = tuple(float(p) for p in probs) if probs is not None else None
        pred_i = int(pred) if pred is not None else first_argmax(probs_t)
        true_i = int(true) if true is not None else None
        conf_f = float(conf) if conf is not None else None
    except (TypeError, ValueError, OverflowError):
        raise RecordError("non-numeric field value") from None
    return PredictionRecord(
        instance_id=str(rid),
        pred_label=pred_i,
        probs=probs_t,
        true_label=true_i,
        confidence=conf_f,
        dist_tag=_parse_tag(tag),
    )


def _jsonl_record(obj: dict) -> PredictionRecord:
    return _record_from_fields(*map(obj.get, _FIELDS), obj.get("probs"))


def _csv_record(row: list[str], n_cells: int) -> PredictionRecord:
    if len(row) != n_cells:
        raise RecordError(f"expected {n_cells} cells, got {len(row)}")
    cells = [cell if cell != "" else None for cell in row]
    prob_cells = cells[len(_FIELDS) :]
    probs = None
    if any(c is not None for c in prob_cells):
        if any(c is None for c in prob_cells):
            raise RecordError("partial probability vector")
        try:
            probs = [float(c) for c in prob_cells]
        except ValueError:
            raise RecordError("non-numeric probability cell") from None
    return _record_from_fields(*cells[: len(_FIELDS)], probs)


def _parse_csv(text: str) -> list[PredictionRecord]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            return []
        expected = list(_FIELDS) + [f"p{k}" for k in range(len(header) - len(_FIELDS))]
        if header != expected:
            raise RecordError(f"line 1: bad CSV header, expected {','.join(expected)}")
        rows = ((f"line {n}", row) for n, row in enumerate(reader, start=2) if row)
        return _located(rows, lambda row: _csv_record(row, len(header)))
    except csv.Error as exc:  # e.g. a cell over the csv module's field size limit
        raise RecordError(f"line {reader.line_num}: malformed CSV ({exc})") from None


def parse_records(stream, fmt: RecordFormat = RecordFormat.JSON_LINES) -> list[PredictionRecord]:
    """Parse prediction records from a byte/text stream, preserving order.

    Raises :class:`RecordError` naming the offending line on any malformed
    input, invariant violation or repeated instance id.
    """
    if fmt is RecordFormat.JSON_LINES:
        return _located(_jsonl_objects(stream), _jsonl_record)
    if fmt is RecordFormat.CSV:
        return _parse_csv(_as_text(stream))
    raise ValueError(f"unknown record format: {fmt!r}")


def _multilabel_record(obj: dict) -> MultiLabelRecord:
    if obj.get("id") is None or obj.get("probs") is None or obj.get("truths") is None:
        raise RecordError("need 'id', 'probs' and 'truths'")
    try:
        probs = tuple(float(p) for p in obj["probs"])
        truths = tuple(int(t) for t in obj["truths"])
    except (TypeError, ValueError, OverflowError):
        raise RecordError("non-numeric field value") from None
    _integral(*obj["truths"])
    return MultiLabelRecord(
        instance_id=str(obj["id"]),
        per_class_probs=probs,
        true_labels=truths,
        dist_tag=_parse_tag(obj.get("tag")),
    )


def parse_multilabel_records(stream) -> list[MultiLabelRecord]:
    """Parse multi-label records from JSON Lines.

    One object per line: ``{"id": str, "probs": [...], "truths": [0/1, ...],
    "tag": "id"|"ood"}``.
    """
    return _located(_jsonl_objects(stream), _multilabel_record)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _jsonl_text(objects: Iterable[dict]) -> str:
    """Compact JSON Lines, one object per line, newline-terminated unless empty."""
    lines = [json.dumps(obj, separators=(",", ":")) for obj in objects]
    return "\n".join(lines) + ("\n" if lines else "")


def _record_object(rec: PredictionRecord) -> dict:
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


def write_records_jsonl(records: Iterable[PredictionRecord]) -> str:
    """Serialize records to JSON Lines with a stable key order."""
    return _jsonl_text(_record_object(rec) for rec in records)


def write_records_csv(records: Sequence[PredictionRecord]) -> str:
    """Serialize records to CSV; probability columns sized to the widest record."""
    n_probs = max((len(r.probs) for r in records if r.probs is not None), default=0)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(_FIELDS) + [f"p{k}" for k in range(n_probs)])
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
