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

:func:`parse_records` returns a :class:`RecordTable`: one column per field
(``ids``; int64 ``pred``; int64 ``true``, -1 where absent; float64
``conf``, NaN where absent; bool ``ood``; float64 ``probs`` of shape
(n, K), or None), which reads as a sequence of :class:`PredictionRecord`.
Files whose rows all have the same shape (string ids, integer labels,
numbers, K probabilities on every row or on none) are read in chunks of
``_PARSE_CHUNK`` lines into columns, and every record invariant is checked
on whole columns. Any other file, and any file with a row that fails a
check, is read by the scalar reference path instead: one
:class:`PredictionRecord` per row, validated row by row, which raises the
line-numbered error for the first faulty row. The two paths give equal
tables, and the scalar path defines every message.

:func:`parse_multilabel_records` reads multi-label JSON Lines the same
way into a :class:`MultiLabelTable` (``ids``; float64 ``probs`` and int64
``truths`` of shape (n, K); bool ``ood``), and :func:`binarize_multilabel`
pools its outcomes with array operations.

:func:`write_records_jsonl` writes from columns too: each float column is
formatted once per distinct value (:func:`_float_text`) and the lines are
joined from the columns' text (:func:`_interleaved`), which gives the
bytes of one compact ``json.dumps`` per record. Feature files and curves
are written with the same two pieces.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

import numpy as np

PROB_SUM_TOLERANCE = 1e-6
_LABEL_MIN, _LABEL_MAX = -(2**63), 2**63 - 1  # labels are held as int64


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
    predicted label must be the (first) argmax of the probabilities, or
    non-negative without them, a true label must be non-negative and, with
    probabilities, below their count, labels must fit in 64 bits,
    confidence must lie in [0, 1], and in-distribution records must carry a
    true label.
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
        if self.probs is None:  # with probabilities, both labels lie in [0, K)
            for label in (self.pred_label, self.true_label):
                if label is not None and not _LABEL_MIN <= label <= _LABEL_MAX:
                    raise RecordError(
                        f"record {self.instance_id!r}: label {label} does not fit in 64 bits"
                    )
            if self.pred_label < 0:
                raise RecordError(
                    f"record {self.instance_id!r}: pred {self.pred_label} out of range"
                )
        if self.confidence is not None and not (0.0 <= self.confidence <= 1.0):
            raise RecordError(f"record {self.instance_id!r}: confidence out of range")
        if self.dist_tag is DistTag.IN_DISTRIBUTION and self.true_label is None:
            raise RecordError(
                f"record {self.instance_id!r}: in-distribution record lacks a true label"
            )


class _Rows(Sequence):
    """Columns read as a sequence of records: ``_record(i)`` builds (and so checks) row i."""

    ids: list[str]

    def _record(self, i: int):
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._record(i) for i in range(*index.indices(len(self)))]
        return self._record(range(len(self))[index])

    def __iter__(self) -> Iterator:
        return map(self._record, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return list(self) == list(other)

    def take(self, rows):
        """The table of the rows that a boolean mask or an index array selects, in its order."""
        rows = np.asarray(rows)
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        columns = {f.name: getattr(self, f.name) for f in fields(self)}
        return type(self)(**{
            name: [column[i] for i in rows.tolist()] if name == "ids"
            else None if column is None else column[rows]
            for name, column in columns.items()
        })


def _padded(rows: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Rows of numbers, None for none, as an (n, K) array padded with NaN, and its given cells."""
    lengths = np.array([0 if row is None else len(row) for row in rows], dtype=np.int64)
    given = np.arange(lengths.max(initial=0)) < lengths[:, None]
    values = np.full(given.shape, np.nan)
    values[given] = [value for row in rows if row is not None for value in row]
    return values, given


@dataclass(frozen=True, eq=False)
class RecordTable(_Rows):
    """Prediction records as columns, read as a sequence of :class:`PredictionRecord`.

    ``ids`` holds the instance ids; ``pred`` (int64) the predicted labels;
    ``true`` (int64) the true labels, -1 where absent; ``conf`` (float64)
    the explicit confidences, NaN where absent; ``ood`` (bool) the
    out-of-distribution tags; ``probs`` (float64, shape (n, K)) the
    probability vectors, None when no row has one. A row with fewer than K
    probabilities, or none, is padded with NaN, which no probability can be.
    Indexing builds (and so re-validates) the record; a table equals any
    sequence of the same records.
    """

    ids: list[str]
    pred: np.ndarray
    true: np.ndarray
    conf: np.ndarray
    ood: np.ndarray
    probs: np.ndarray | None

    @classmethod
    def from_records(cls, records: Sequence[PredictionRecord]) -> "RecordTable":
        probs, _ = _padded([r.probs for r in records])
        return cls(
            ids=[r.instance_id for r in records],
            pred=np.array([r.pred_label for r in records], dtype=np.int64),
            true=np.array([-1 if r.true_label is None else r.true_label for r in records],
                          dtype=np.int64),
            conf=np.array([np.nan if r.confidence is None else r.confidence for r in records],
                          dtype=np.float64),
            ood=np.array([r.dist_tag is DistTag.OUT_OF_DISTRIBUTION for r in records],
                         dtype=bool),
            probs=probs if probs.shape[1] else None,
        )

    def prob_counts(self) -> np.ndarray:
        """The number of probabilities on each row; 0 where a row has none."""
        if self.probs is None:
            return np.zeros(len(self), dtype=np.int64)
        return np.count_nonzero(~np.isnan(self.probs), axis=1)

    def _record(self, i: int) -> PredictionRecord:
        probs = None
        if self.probs is not None:
            row = self.probs[i]
            probs = tuple(row[~np.isnan(row)].tolist()) or None
        true, conf = int(self.true[i]), float(self.conf[i])
        return PredictionRecord(
            instance_id=self.ids[i],
            pred_label=int(self.pred[i]),
            probs=probs,
            true_label=None if true < 0 else true,
            confidence=None if math.isnan(conf) else conf,
            dist_tag=DistTag.OUT_OF_DISTRIBUTION if self.ood[i] else DistTag.IN_DISTRIBUTION,
        )


def _as_table(records: Sequence[PredictionRecord]) -> RecordTable:
    return records if isinstance(records, RecordTable) else RecordTable.from_records(records)


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


@dataclass(frozen=True, eq=False)
class MultiLabelTable(_Rows):
    """Multi-label records as columns, read as a sequence of :class:`MultiLabelRecord`.

    ``ids`` holds the instance ids; ``probs`` (float64, shape (n, K)) the
    per-class probabilities; ``truths`` (int64, shape (n, K)) the binary
    truths; ``ood`` (bool) the out-of-distribution tags. A row with fewer
    than K classes is padded with NaN probabilities, which no probability
    can be, and 0 truths.
    """

    ids: list[str]
    probs: np.ndarray
    truths: np.ndarray
    ood: np.ndarray

    @classmethod
    def from_records(cls, records: Sequence[MultiLabelRecord]) -> "MultiLabelTable":
        probs, given = _padded([r.per_class_probs for r in records])
        truths = np.zeros(probs.shape, dtype=np.int64)
        truths[given] = [t for r in records for t in r.true_labels]
        ood = [r.dist_tag is DistTag.OUT_OF_DISTRIBUTION for r in records]
        return cls(ids=[r.instance_id for r in records], probs=probs, truths=truths,
                   ood=np.array(ood, dtype=bool))

    def _record(self, i: int) -> MultiLabelRecord:
        given = ~np.isnan(self.probs[i])
        return MultiLabelRecord(
            instance_id=self.ids[i],
            per_class_probs=tuple(self.probs[i][given].tolist()),
            true_labels=tuple(self.truths[i][given].tolist()),
            dist_tag=DistTag.OUT_OF_DISTRIBUTION if self.ood[i] else DistTag.IN_DISTRIBUTION,
        )


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


_PARSE_CHUNK = 2048  # non-blank JSON Lines lines, or CSV rows, read at a time

# the bytes a JSON text's nesting depends on (quotes, brackets, backslashes)
# and the line feeds that join a chunk's lines; every other byte is dropped
_NOT_STRUCTURE = bytes(c for c in range(256) if c not in b'"[]{}\\\n')
_NESTING = np.zeros(256, dtype=np.int8)
_NESTING[list(b"[{")] = 1
_NESTING[list(b"]}")] = -1


def _json_line(where: str, line: str) -> dict:
    """One JSON Lines line decoded on its own; errors name ``where``."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RecordError(f"{where}: malformed JSON ({exc.msg})") from None
    except (ValueError, RecursionError) as exc:
        raise RecordError(f"{where}: malformed JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise RecordError(f"{where}: expected a JSON object")
    return obj


def _joined_objects(lines: list[str]) -> list[dict] | None:
    """The lines' objects from one ``json.loads`` of the lines as a JSON array, or None.

    The lines are joined by a comma and a line feed. A JSON string cannot
    hold a raw line feed, so no string spans two lines, and each line holds
    exactly one value when the array has one value per line and every
    joining comma lies outside all brackets. None when the chunk does not
    parse, a value is not an object, or that cannot be shown (an escaped
    quote hides where a string ends): then each line is decoded on its own.
    """
    joined = ",\n".join(lines)
    try:
        values = json.loads(f"[{joined}]")
    except (ValueError, RecursionError):
        return None
    if len(values) != len(lines) or set(map(type, values)) != {dict}:
        return None
    marks = joined.encode(errors="surrogatepass").translate(None, _NOT_STRUCTURE)
    if b'\\"' in marks:
        return None
    codes = np.frombuffer(marks, dtype=np.uint8)
    in_string = np.cumsum(codes == ord('"')) % 2 == 1
    depth = np.cumsum(np.where(in_string, 0, _NESTING[codes]), dtype=np.int64)
    return None if depth[codes == ord("\n")].any() else values


def _jsonl_chunks(stream) -> Iterator[tuple[list[int], Iterable[dict]]]:
    """Line numbers and objects of each run of up to ``_PARSE_CHUNK`` non-blank lines.

    A run that one ``json.loads`` cannot take (:func:`_joined_objects`) is
    decoded line by line, lazily, so a faulty line raises only once reached.
    """
    lines = _as_text(stream).split("\n")
    numbered = [n for n, line in enumerate(lines, start=1) if line and not line.isspace()]
    for start in range(0, len(numbered), _PARSE_CHUNK):
        linenos = numbered[start : start + _PARSE_CHUNK]
        chunk = [lines[n - 1] for n in linenos]
        objects = _joined_objects(chunk)
        if objects is None:
            objects = map(_json_line, [f"line {n}" for n in linenos], chunk)
        yield linenos, objects


def _jsonl_objects(stream) -> Iterator[tuple[str, dict]]:
    """Yield ``("line N", object)`` for each non-blank line of a JSON Lines stream.

    Lines end at a line feed only (a carriage return before it is JSON
    whitespace), so the U+2028, U+2029 and U+0085 that JSON allows raw
    inside strings stay put.
    Raises :class:`RecordError` naming the line if the text is not UTF-8,
    a line is not JSON (nesting too deep or an integer too long included),
    or a line holds anything but a JSON object.
    """
    for linenos, objects in _jsonl_chunks(stream):
        for lineno, obj in zip(linenos, objects):
            yield f"line {lineno}", obj


# the scalar fields of a prediction record: JSON keys and leading CSV columns
_FIELDS = ("id", "pred", "true", "conf", "tag")


def _integral(*labels) -> None:
    """Reject a fractional number given as a class label, which ``int()`` would truncate."""
    for label in labels:
        if isinstance(label, float) and not label.is_integer():
            raise RecordError(f"label {label!r} is not an integer")


def _no_booleans(*fields) -> None:
    """Reject JSON ``true``/``false`` where a number or an array of numbers belongs.

    Python would count them as 1 and 0.
    """
    for field in fields:
        if bool in map(type, field if isinstance(field, list) else (field,)):
            raise RecordError("boolean where a number is expected")


_NOT_ID = {dict: "an object", list: "an array", bool: "a boolean"}


def _record_id(rid) -> str:
    """An instance id: a JSON string or number, never an object, array or boolean."""
    if type(rid) in _NOT_ID:
        raise RecordError(f"id must be a string or a number, not {_NOT_ID[type(rid)]}")
    return str(rid)


def _record_from_fields(rid, pred, true, conf, tag, probs) -> PredictionRecord:
    if rid is None:
        raise RecordError("missing 'id'")
    instance_id = _record_id(rid)
    if probs is None and pred is None:
        raise RecordError("need 'pred' or 'probs'")
    _integral(pred, true)
    _no_booleans(pred, true, conf, probs)
    try:
        probs_t = tuple(float(p) for p in probs) if probs is not None else None
        pred_i = int(pred) if pred is not None else first_argmax(probs_t)
        true_i = int(true) if true is not None else None
        conf_f = float(conf) if conf is not None else None
    except (TypeError, ValueError, OverflowError):
        raise RecordError("non-numeric field value") from None
    return PredictionRecord(
        instance_id=instance_id,
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


def _csv_header(reader) -> list[str] | None:
    """The CSV reader's header row, checked; None for empty text."""
    header = next(reader, None)
    if header is not None:
        expected = list(_FIELDS) + [f"p{k}" for k in range(len(header) - len(_FIELDS))]
        if header != expected:
            raise RecordError(f"line 1: bad CSV header, expected {','.join(expected)}")
    return header


def _parse_csv(text: str) -> list[PredictionRecord]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = _csv_header(reader)
        if header is None:
            return []
        rows = ((f"line {n}", row) for n, row in enumerate(reader, start=2) if row)
        return _located(rows, lambda row: _csv_record(row, len(header)))
    except csv.Error as exc:  # e.g. a cell over the csv module's field size limit
        raise RecordError(f"line {reader.line_num}: malformed CSV ({exc})") from None


def _scalar_records(text: str, fmt: RecordFormat) -> list[PredictionRecord]:
    """The reference reader: one :class:`PredictionRecord` per row, checked row by row."""
    if fmt is RecordFormat.JSON_LINES:
        return _located(_jsonl_objects(text), _jsonl_record)
    return _parse_csv(text)


# raw tag values a record may carry, and whether each means out-of-distribution
_TAG_IS_OOD = {None: False, "": False, "id": False, "ood": True}
_LABEL_TYPES = {int, type(None)}
_NUMBER_TYPES = {int, float, type(None)}


def _sums_within_tolerance(probs: np.ndarray) -> np.ndarray:
    """Per row of probabilities in [0, 1]: does its exact sum lie within tolerance of 1?

    numpy's sum differs from the correctly rounded ``math.fsum`` of
    :class:`PredictionRecord` by at most (K + 1) ulp of 1 on rows that sum
    to at most 2; rows whose numpy sum lies that close to the tolerance's
    edge are summed again with ``math.fsum``.
    """
    sums = probs.sum(axis=1)
    slack = 2 * (probs.shape[1] + 1) * np.finfo(np.float64).eps
    edge = np.flatnonzero(np.abs(np.abs(sums - 1.0) - PROB_SUM_TOLERANCE) <= slack)
    sums[edge] = [math.fsum(row) for row in probs[edge].tolist()]
    return np.abs(sums - 1.0) <= PROB_SUM_TOLERANCE


def _valid_columns(table: RecordTable) -> bool:
    """Does every row meet every :class:`PredictionRecord` invariant?

    False for ragged (NaN-padded) probability rows, which only their records can check.
    """
    conf, probs = table.conf, table.probs
    bad = ((table.true < 0) & ~table.ood) | ~(np.isnan(conf) | ((conf >= 0.0) & (conf <= 1.0)))
    if probs is None:
        bad |= table.pred < 0
    else:
        if probs.shape[1] == 0 or not ((probs >= 0.0) & (probs <= 1.0)).all():
            return False
        bad |= ((table.pred != probs.argmax(axis=1))  # the first maximum, as first_argmax
                | (table.true >= probs.shape[1]) | ~_sums_within_tolerance(probs))
    return not bad.any()


def _checked_rows(ids, pred, true, conf, tag, probs) -> RecordTable | None:
    """A chunk as a table when every row meets every :class:`PredictionRecord` invariant.

    ``ids`` are strings; ``pred``, ``true`` and ``conf`` Python numbers or
    None, where a None ``pred`` is the argmax of ``probs``; ``tag`` raw tag
    values; ``probs`` an (n, K) array or None. None when any row fails a
    check: the scalar path then names the fault.
    """
    if not set(tag) <= _TAG_IS_OOD.keys() or (probs is not None and probs.shape[1] == 0):
        return None
    true_given = np.array([t is not None for t in true], dtype=bool)
    true = np.array([-1 if t is None else t for t in true], dtype=np.int64)
    conf_given = np.array([c is not None for c in conf], dtype=bool)
    conf = np.array(conf, dtype=np.float64)  # None reads as NaN
    # a table reads a negative label and a NaN confidence as absent
    if (true_given & (true < 0)).any() or (conf_given & np.isnan(conf)).any():
        return None
    if probs is not None:
        pred = [t if p is None else p for p, t in zip(pred, probs.argmax(axis=1).tolist())]
    elif None in pred:
        return None
    table = RecordTable(ids=ids, pred=np.array(pred, dtype=np.int64), true=true, conf=conf,
                        ood=np.array([_TAG_IS_OOD[t] for t in tag], dtype=bool), probs=probs)
    return table if _valid_columns(table) else None


def _jsonl_rows(objects: list[dict]) -> RecordTable | None:
    """A chunk of JSON Lines objects as a table, if each has the canonical shape and is valid."""
    ids, pred, true, conf, tag, probs = ([obj.get(key) for obj in objects]
                                         for key in (*_FIELDS, "probs"))
    if not (set(map(type, ids)) == {str} and set(map(type, pred)) <= _LABEL_TYPES
            and set(map(type, true)) <= _LABEL_TYPES and set(map(type, conf)) <= _NUMBER_TYPES):
        return None
    prob_types = set(map(type, probs))
    if prob_types == {type(None)}:
        block = None
    elif prob_types == {list} and set(map(type, chain.from_iterable(probs))) <= {int, float}:
        block = np.array(probs, dtype=np.float64)  # ValueError when ragged
    else:
        return None
    return _checked_rows(ids, pred, true, conf, tag, block)


def _csv_rows(rows: list[list[str]], n_cells: int) -> RecordTable | None:
    """A chunk of CSV rows as a table, if every row is complete and valid."""
    if set(map(len, rows)) != {n_cells}:
        return None
    ids, pred, true, conf, tag, *prob_columns = zip(*rows)
    if "" in ids:
        return None
    block = None
    if prob_columns and not all(set(column) == {""} for column in prob_columns):
        # float() per cell, as the scalar path; an empty cell raises ValueError
        block = np.array([row[len(_FIELDS) :] for row in rows], dtype=np.float64)
    return _checked_rows(
        list(ids),
        [int(c) if c else None for c in pred],
        [int(c) if c else None for c in true],
        [float(c) if c else None for c in conf],
        tag,
        block,
    )


def _csv_chunks(reader) -> Iterator[list[list[str]]]:
    """The CSV reader's non-blank rows, in runs read ``_PARSE_CHUNK`` rows at a time."""
    while block := list(islice(reader, _PARSE_CHUNK)):
        if rows := [row for row in block if row]:
            yield rows


def _concatenated(tables: list, cls: type):
    """One ``cls`` table of the chunks' tables.

    None if a chunk failed its checks (its table is None), or the chunks
    differ in class count or repeat an id.
    """
    if any(t is None for t in tables):
        return None
    widths = {None if t.probs is None else t.probs.shape[1] for t in tables}
    ids = list(chain.from_iterable(t.ids for t in tables))
    if len(widths) > 1 or len(set(ids)) < len(ids):
        return None
    if not tables:
        return cls.from_records([])
    columns = {
        f.name: None if getattr(tables[0], f.name) is None
        else np.concatenate([getattr(t, f.name) for t in tables])
        for f in fields(cls) if f.name != "ids"
    }
    return cls(ids=ids, **columns)


def _column_table(text: str, fmt: RecordFormat) -> RecordTable | None:
    """The records as columns, read chunk by chunk; None unless every row is canonical and valid."""
    try:
        if fmt is RecordFormat.JSON_LINES:
            tables = [_jsonl_rows(list(objects)) for _, objects in _jsonl_chunks(text)]
        else:
            reader = csv.reader(io.StringIO(text))
            header = _csv_header(reader)
            chunks = _csv_chunks(reader) if header else ()
            tables = [_csv_rows(rows, len(header)) for rows in chunks]
    except (TypeError, ValueError, OverflowError, csv.Error):  # RecordError included
        return None
    return _concatenated(tables, RecordTable)


def parse_records(stream, fmt: RecordFormat = RecordFormat.JSON_LINES) -> RecordTable:
    """Parse prediction records from a byte/text stream, preserving order.

    Raises :class:`RecordError` naming the offending line on any malformed
    input, invariant violation or repeated instance id.
    """
    if fmt is not RecordFormat.JSON_LINES and fmt is not RecordFormat.CSV:
        raise ValueError(f"unknown record format: {fmt!r}")
    text = _as_text(stream)
    table = _column_table(text, fmt)
    if table is None:
        table = RecordTable.from_records(_scalar_records(text, fmt))
    return table


def _multilabel_record(obj: dict) -> MultiLabelRecord:
    if obj.get("id") is None or obj.get("probs") is None or obj.get("truths") is None:
        raise RecordError("need 'id', 'probs' and 'truths'")
    instance_id = _record_id(obj["id"])
    try:
        probs = tuple(float(p) for p in obj["probs"])
        truths = tuple(int(t) for t in obj["truths"])
    except (TypeError, ValueError, OverflowError):
        raise RecordError("non-numeric field value") from None
    _integral(*obj["truths"])
    _no_booleans(obj["probs"], obj["truths"])
    return MultiLabelRecord(
        instance_id=instance_id,
        per_class_probs=probs,
        true_labels=truths,
        dist_tag=_parse_tag(obj.get("tag")),
    )


def _multilabel_rows(objects: list[dict]) -> MultiLabelTable | None:
    """A chunk of multi-label objects as a table, if each has the canonical shape and is valid.

    Canonical: a string id, a list of numbers as ``probs``, a list of integers
    as ``truths`` and a known tag. Valid: every row has as many truths as
    probabilities, and the chunk's class count; probabilities lie in [0, 1];
    truths are 0 or 1.
    """
    ids, probs, truths, tags = ([obj.get(key) for obj in objects]
                                for key in ("id", "probs", "truths", "tag"))
    if not (set(map(type, ids)) == {str} and set(map(type, probs)) == {list}
            and set(map(type, truths)) == {list} and set(tags) <= _TAG_IS_OOD.keys()
            and set(map(type, chain.from_iterable(probs))) <= {int, float}
            and set(map(type, chain.from_iterable(truths))) <= {int}):
        return None
    probs = np.array(probs, dtype=np.float64)  # ValueError when ragged
    truths = np.array(truths, dtype=np.int64)  # OverflowError past 64 bits
    if (probs.shape != truths.shape or not ((probs >= 0.0) & (probs <= 1.0)).all()
            or not ((truths == 0) | (truths == 1)).all()):
        return None
    ood = np.array([_TAG_IS_OOD[t] for t in tags], dtype=bool)
    return MultiLabelTable(ids=ids, probs=probs, truths=truths, ood=ood)


def _multilabel_table(text: str) -> MultiLabelTable | None:
    """Multi-label records as columns, read chunk by chunk; None unless every row is canonical."""
    try:
        tables = [_multilabel_rows(list(objects)) for _, objects in _jsonl_chunks(text)]
    except (TypeError, ValueError, OverflowError):  # RecordError included
        return None
    return _concatenated(tables, MultiLabelTable)


def parse_multilabel_records(stream) -> MultiLabelTable:
    """Parse multi-label records from JSON Lines, preserving order.

    One object per line: ``{"id": str, "probs": [...], "truths": [0/1, ...],
    "tag": "id"|"ood"}``. Files whose rows are all canonical and valid
    (:func:`_multilabel_rows`) are read chunk by chunk into columns; any
    other file is read one :class:`MultiLabelRecord` per line, which raises
    the line-numbered :class:`RecordError` for the first faulty line.
    """
    text = _as_text(stream)
    table = _multilabel_table(text)
    if table is None:
        table = MultiLabelTable.from_records(_located(_jsonl_objects(text), _multilabel_record))
    return table


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _float_text(values: np.ndarray) -> np.ndarray:
    """The text ``json.dumps`` gives each float64 element, as an object array of str.

    That is the element's ``repr``, or ``NaN``, ``Infinity`` or ``-Infinity``.
    Each distinct bit pattern is formatted once, so ``-0.0`` keeps its own
    text where a comparison of values would merge it with ``0.0``.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.uint64).ravel(), return_inverse=True)
    distinct = bits.view(np.float64)
    text = np.array(list(map(float.__repr__, distinct.tolist())), dtype=object)
    special = ~np.isfinite(distinct)
    text[special] = list(map(json.dumps, distinct[special].tolist()))
    return text[inverse].reshape(values.shape)


def _interleaved(parts: list) -> str:
    """Row by row, the parts concatenated: each is one str for all rows, or one str per row."""
    rows = len(next(part for part in parts if not isinstance(part, str)))
    pieces = np.empty((rows, len(parts)), dtype=object)
    for j, part in enumerate(parts):
        pieces[:, j] = part
    return "".join(pieces.ravel().tolist())


def _array_parts(key: str, values: np.ndarray, present: np.ndarray) -> list:
    """``key`` and a JSON array of each row's present values, as parts; none drops the key."""
    has = present.any(axis=1)
    cells = np.where(present, _float_text(values), "")
    # a comma before each present value that follows another
    cells = np.where(present & (np.cumsum(present, axis=1) > 1), "," + cells, cells)
    return [np.where(has, key + "[", ""), *cells.T, np.where(has, "]", "")]


def _written_table(records: Iterable[PredictionRecord]) -> RecordTable:
    """The records as one table; a given table is checked as parsing checks it."""
    if not isinstance(records, RecordTable):
        return RecordTable.from_records(list(records))
    if not _valid_columns(records):
        list(records)  # builds each record, so the first faulty one raises its RecordError
    return records


def write_records_jsonl(records: Iterable[PredictionRecord]) -> str:
    """Serialize records to JSON Lines with a stable key order, from their columns.

    Each line is
    ``json.dumps`` of an object with keys ``id``, ``probs``, ``pred``,
    ``true``, ``conf`` and ``tag``, in that order and without spaces; a
    row without probabilities, true label or confidence drops that key.
    """
    table = _written_table(records)
    parts = ['{"id":', list(map(json.dumps, table.ids))]
    if table.probs is not None:
        parts += _array_parts(',"probs":', table.probs, ~np.isnan(table.probs))
    true, conf = table.true >= 0, ~np.isnan(table.conf)
    return _interleaved(parts + [
        ',"pred":', table.pred.astype(str),
        np.where(true, ',"true":', ""), np.where(true, table.true.astype(str), ""),
        np.where(conf, ',"conf":', ""), np.where(conf, _float_text(table.conf), ""),
        np.where(table.ood, ',"tag":"ood"}\n', ',"tag":"id"}\n'),
    ])


def write_records_csv(records: Iterable[PredictionRecord]) -> str:
    """Serialize records to CSV; probability columns sized to the widest record."""
    table = _written_table(records)
    counts = table.prob_counts()
    k = int(counts.max(initial=0))
    if ((counts > 0) & (counts != k)).any():
        raise ValueError("records with differing class counts cannot share one CSV")
    probs = np.empty((len(table), 0)) if table.probs is None else table.probs[:, :k]
    true, conf = table.true >= 0, ~np.isnan(table.conf)
    columns = [table.pred.astype(str), np.where(true, table.true.astype(str), ""),
               np.where(conf, _float_text(table.conf), ""), np.where(table.ood, "ood", "id"),
               *np.where(counts[:, None] > 0, _float_text(probs), "").T]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(_FIELDS) + [f"p{j}" for j in range(k)])
    writer.writerows(zip(table.ids, *(column.tolist() for column in columns)))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Outcome derivation
# ---------------------------------------------------------------------------


def _confidence_column(table: RecordTable, source: ConfidenceSource) -> np.ndarray:
    """Each row's confidence from ``source``; the first row lacking it is an error."""
    if source is ConfidenceSource.EXPLICIT_FIELD:
        confidence, lack = table.conf, "no explicit confidence field"
    elif source is ConfidenceSource.MAX_SOFTMAX:
        confidence, lack = np.full(len(table), np.nan), "no probability vector"
        if table.probs is not None:
            confidence = np.fmax.reduce(table.probs, axis=1)  # NaN padding ignored
    else:
        raise ValueError(f"unknown confidence source: {source!r}")
    missing = np.flatnonzero(np.isnan(confidence))
    if len(missing):
        raise RecordError(f"record {table.ids[missing[0]]!r}: {lack}")
    return confidence


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
    table = _as_table(records)
    confidence = _confidence_column(table, confidence_source)
    return OutcomeSet(~table.ood & (table.pred == table.true), confidence)


def derive_io_outcomes(
    records: Sequence[PredictionRecord],
    confidence_source: ConfidenceSource = ConfidenceSource.EXPLICIT_FIELD,
) -> OutcomeSet:
    """Label records purely by distribution tag: in-distribution positive.

    Classification correctness is ignored entirely; feeding the result to
    the AUCCC machinery yields the in/out-of-distribution separation AUROC.
    """
    table = _as_table(records)
    return OutcomeSet(~table.ood, _confidence_column(table, confidence_source))


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
    if not isinstance(records, MultiLabelTable):
        records = MultiLabelTable.from_records(records)
    given = ~np.isnan(records.probs)  # row-major: (record, class) order
    probs, truths = records.probs[given], records.truths[given]
    return OutcomeSet((probs >= threshold) == (truths != 0), np.maximum(probs, 1.0 - probs))
