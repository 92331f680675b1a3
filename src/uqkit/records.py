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

Each record kind has one reader, which returns columns:
:func:`parse_records` a :class:`RecordTable` (``ids``; int64 ``pred``;
int64 ``true``, -1 where absent; float64 ``conf``, NaN where absent; bool
``ood``; float64 ``probs`` of shape (n, K), or None),
:func:`parse_multilabel_records` a :class:`MultiLabelTable` and
:func:`parse_feature_records` a :class:`FeatureTable`. Each table reads as
a sequence of its records: iterating or slicing checks the rows once on
the columns and builds records that do not check themselves again, while
``table[i]`` builds a record that does.

A reader takes ``_PARSE_CHUNK`` non-blank lines (or CSV rows) at a time,
and each chunk becomes columns. Each JSON Lines line is decoded once
(:func:`_json_row`); the CSV reader reads the text's lines as
``io.StringIO`` yields them, each ended by a line feed only, without
copying the text. In both formats a line that does not decode becomes a
fault row, its :class:`RecordError`, which the chunk's conversion raises
in the line's place. Each kind's table has one builder, ``_of_columns``,
which takes one list per record field and pads vector fields into a
block (:func:`_padded`), NaN for a float and 0 for a label. A chunk
whose values already have the types the row converter gives (string ids,
integer labels, lists of numbers, of any lengths) skips the converter;
any other chunk is converted row by row (string numbers, numeric ids,
integral float labels), and records built directly are taken row by row
too; every chunk and every record list then becomes columns in
``_of_columns``. Each kind states its invariants once, as an array check
(``_first_fault``) that gives the first failing row and its message; the
record classes run the same check on a one-row table. The reader raises
the earliest fault in file order, naming its line. At one row, a line
that does not decode comes first, then a value that does not convert (an
array field that is not a JSON array among them), then the invariants in
the record class's order, then a repeated id.

Each rule is written once. ``_TAG_IS_OOD`` lists the accepted raw tags,
and every reader, table and record class reads tags through it. A
probability vector holds values in [0, 1] (:func:`_outside_unit`) whose
exact sum lies within ``PROB_SUM_TOLERANCE`` of 1
(:func:`_sums_within_tolerance`); :mod:`uqkit.ensemble` checks its member
and softened rows with the same two functions. Labels must fit in 64 bits
(:func:`_too_wide`, only in ``_first_fault``). ``from_records`` turns
records into a table and takes a table of its kind as it is.

Each kind's writer is here too. :func:`write_records_jsonl` writes from
columns: each float column is formatted once per distinct value
(:func:`_float_text`) and the lines are joined from the columns' text
(:func:`_interleaved`), which gives the bytes of one compact
``json.dumps`` per record. :func:`write_feature_records` and the curve
writers of :mod:`uqkit.ccc` use the same two pieces, and
:func:`write_records_csv` formats floats the same way. Every writer checks
each row with its kind's ``_first_fault``, as the reader does: a row that
breaks a record invariant, a feature that is not finite or a label past
64 bits raises its :class:`RecordError` and nothing is written; so does a
repeated id (:func:`_unrepeated`), on the line the reader would name.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum
from functools import partial
from itertools import chain, compress, islice, repeat, starmap
from typing import Iterable, Iterator

import numpy as np

PROB_SUM_TOLERANCE = 1e-6
_LABEL_MIN, _LABEL_MAX = -(2**63), 2**63 - 1  # labels are held as int64


class RecordError(ValueError):
    """Malformed input or a record violating its invariants."""


class DistTag(str, Enum):
    IN_DISTRIBUTION = "id"
    OUT_OF_DISTRIBUTION = "ood"


_DIST_TAGS = (DistTag.IN_DISTRIBUTION, DistTag.OUT_OF_DISTRIBUTION)  # indexed by an ood flag


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


def _labels(values) -> np.ndarray:
    """Integer labels as int64; past 64 bits, an object column, which no check passes."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _padded(rows: Sequence, labels: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Rows of values, None for none, as an (n, K) array, and its given cells.

    Float rows are padded with NaN; label rows (``labels``) with 0. Rows all
    of one length take one ``np.array`` call.
    """
    try:
        values = np.array(rows, dtype=np.int64 if labels else np.float64)
        if values.ndim == 2:
            return values, np.ones(values.shape, dtype=bool)
    except (TypeError, ValueError, OverflowError):  # ragged, a None row, or labels past 64 bits
        pass
    lengths = np.array([0 if row is None else len(row) for row in rows], dtype=np.int64)
    given = np.arange(lengths.max(initial=0)) < lengths[:, None]
    flat = [value for row in rows if row is not None for value in row]
    column = _labels(flat) if labels else np.array(flat, dtype=np.float64)
    values = np.full(given.shape, 0 if labels else np.nan, dtype=column.dtype)
    values[given] = column
    return values, given


def _given_cells(values: np.ndarray, given: np.ndarray | None = None) -> Iterator[tuple]:
    """Each row's given cells as a tuple; by default those that are not NaN."""
    given = ~np.isnan(values) if given is None else given
    return map(tuple, map(compress, values.tolist(), given.tolist()))


def _outside_unit(values: np.ndarray) -> np.ndarray:
    """Which values lie outside [0, 1]; NaN does."""
    return ~((values >= 0.0) & (values <= 1.0))


def _too_wide(labels: np.ndarray) -> np.ndarray:
    """Which labels do not fit in 64 bits; only an object column (:func:`_labels`) holds one."""
    return (labels < _LABEL_MIN) | (labels > _LABEL_MAX)


def _nonempty(rid: str, values, what: str) -> None:
    if values is not None and len(values) == 0:
        raise RecordError(f"record {rid!r}: empty {what} vector")


def _first_of(ids: list[str], checks: list) -> tuple[int, str] | None:
    """The first row that a check flags, and the message of the first check that flags it.

    ``checks`` pairs a per-row mask with the message for a row, in the
    order the record class states its invariants. Only the combined mask
    is scanned unless a row fails.
    """
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not bad.any():
        return None
    i = int(bad.argmax())
    message = next(message for mask, message in checks if mask[i])
    return i, f"record {ids[i]!r}: {message(i)}"


def _row_of(record) -> tuple:
    """A record's fields in order, which is the row its reader's converter gives."""
    return tuple(getattr(record, f.name) for f in fields(record))


def _checked(built: tuple) -> None:
    """Raise the first fault of a ``(table, given)`` that ``_of_rows`` built."""
    table, given = built
    table._check(*given)


def _unchecked(cls: type, values: tuple):
    """A record of its field values in order, built without running its check."""
    record = object.__new__(cls)
    record.__dict__.update(zip(cls.__dataclass_fields__, values))
    return record


@dataclass(frozen=True)
class PredictionRecord:
    """One classifier decision plus its confidence signals.

    Raises :class:`RecordError` on construction for an empty probability
    vector, or if any invariant of :meth:`RecordTable._first_fault` fails.
    """

    instance_id: str
    pred_label: int
    probs: tuple[float, ...] | None = None
    true_label: int | None = None
    confidence: float | None = None
    dist_tag: DistTag = DistTag.IN_DISTRIBUTION

    def __post_init__(self) -> None:
        _nonempty(self.instance_id, self.probs, "probability")
        _checked(RecordTable._of_rows([_row_of(self)]))


class _Rows(Sequence):
    """Columns read as a sequence of ``_record_type`` records.

    ``table[i]`` builds (and so checks) row i's record. Iterating or slicing
    checks the rows once on their columns, then builds each record without
    checking it again.
    """

    ids: list[str]
    _record_type: type

    def _rows(self) -> Iterator[tuple]:
        """Each row's fields in the record's order."""
        raise NotImplementedError

    def _check(self, *given) -> None:
        """Raise the first faulty row's :class:`RecordError`; ``given`` as :meth:`_first_fault`."""
        fault = self._first_fault(*given)
        if fault is not None:
            raise RecordError(fault[1])

    def _records(self) -> Iterator:
        """The rows' records, the columns checked with the masks the records would have."""
        self._check()
        return map(partial(_unchecked, self._record_type), self._rows())

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self.take(np.arange(len(self))[index])._records())
        row = next(self.take([range(len(self))[index]])._rows())
        return self._record_type(*row)  # built, and so checked

    def __iter__(self) -> Iterator:
        return self._records()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return list(self) == list(other)

    @classmethod
    def _of_rows(cls, rows: list[tuple]) -> tuple:
        """The table of rows in the record's field order, as :meth:`_of_columns` builds it."""
        columns = map(list, zip(*rows)) if rows else ([],) * len(fields(cls._record_type))
        return cls._of_columns(*columns)

    @classmethod
    def from_records(cls, records: Iterable):
        """The table of records, or of objects with their fields; a table of this kind is itself."""
        if isinstance(records, cls):
            return records
        return cls._of_rows([_row_of(r) for r in records])[0]

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

    @classmethod
    def _stacked(cls, tables: list):
        """The chunks' tables one above the other, as one table.

        Two-dimensional columns of different widths are padded to the widest,
        with NaN (float) or 0 (labels); a None column reads as all padding.
        """
        if not tables:
            return cls._of_rows([])[0]
        columns = {"ids": list(chain.from_iterable(t.ids for t in tables))}
        for name in (f.name for f in fields(cls) if f.name != "ids"):
            parts = [getattr(t, name) for t in tables]
            known = [part for part in parts if part is not None]
            if len({None if part is None else part.shape[1:] for part in parts}) > 1:
                width = max(part.shape[1] for part in known)  # pad every chunk to the widest
                fill = np.nan if known[0].dtype.kind == "f" else 0
                parts = [np.full((len(t), width), fill) if part is None else part
                         for t, part in zip(tables, parts)]
                parts = [np.pad(part, ((0, 0), (0, width - part.shape[1])), constant_values=fill)
                         for part in parts]
            columns[name] = np.concatenate(parts) if known else None
        return cls(**columns)


@dataclass(frozen=True, eq=False)
class RecordTable(_Rows):
    """Prediction records as columns, read as a sequence of :class:`PredictionRecord`.

    ``ids`` holds the instance ids; ``pred`` (int64) the predicted labels;
    ``true`` (int64) the true labels, -1 where absent; ``conf`` (float64)
    the explicit confidences, NaN where absent; ``ood`` (bool) the
    out-of-distribution tags; ``probs`` (float64, shape (n, K)) the
    probability vectors, None when no row has one. A row with fewer than K
    probabilities, or none, is padded with NaN, which no probability can be.
    A table equals any sequence of the same records.
    """

    ids: list[str]
    pred: np.ndarray
    true: np.ndarray
    conf: np.ndarray
    ood: np.ndarray
    probs: np.ndarray | None
    _record_type = PredictionRecord

    @classmethod
    def _of_columns(cls, ids, pred, probs, true, conf, tags) -> tuple["RecordTable", tuple]:
        """The table of :class:`PredictionRecord`'s fields as columns, None where absent.

        ``tags`` are raw tag values or :class:`DistTag`; a None ``pred`` is the
        first argmax of the row's given probabilities. Returns the table and
        ``(given, true_given, conf_given)`` for :meth:`_first_fault`, since the
        table alone cannot tell a given NaN probability, negative true label or
        NaN confidence from an absent one.
        """
        block, given = _padded(probs)
        ood = np.array([_parse_tag(t) is DistTag.OUT_OF_DISTRIBUTION for t in tags], dtype=bool)
        if None in pred:
            first = np.where(given, block, -np.inf).argmax(axis=1).tolist()
            pred = [f if p is None and row else p for p, f, row in zip(pred, first, probs)]
        table = cls(ids=ids, pred=_labels(pred),
                    true=_labels([-1 if t is None else t for t in true]),
                    conf=np.array(conf, dtype=np.float64),  # None reads as NaN
                    ood=ood, probs=block if block.shape[1] else None)
        return table, (given, np.array([t is not None for t in true], dtype=bool),
                       np.array([c is not None for c in conf], dtype=bool))

    def prob_counts(self) -> np.ndarray:
        """The number of probabilities on each row; 0 where a row has none."""
        if self.probs is None:
            return np.zeros(len(self), dtype=np.int64)
        return np.count_nonzero(~np.isnan(self.probs), axis=1)

    def _first_fault(self, given=None, true_given=None, conf_given=None):
        """The first row that breaks a :class:`PredictionRecord` invariant, and its message.

        In this order: probabilities must lie in [0, 1] and sum to 1 within
        1e-6, the predicted label must be their (first) argmax, or
        non-negative without them, a true label must be non-negative and,
        with probabilities, below their count, labels must fit in 64 bits,
        confidence must lie in [0, 1], and in-distribution records must carry
        a true label. ``given`` flags the probability cells a row gives,
        ``true_given`` and ``conf_given`` the rows that give a true label and
        a confidence; by default, what the table reads as given.
        """
        probs = np.empty((len(self), 0)) if self.probs is None else self.probs
        if given is None:
            given, true_given, conf_given = ~np.isnan(probs), self.true >= 0, ~np.isnan(self.conf)
        pred, true, conf = self.pred, self.true, self.conf
        counts = np.count_nonzero(given, axis=1)
        has = counts > 0
        out = given & _outside_unit(probs)
        inside = np.where(given & ~out, probs, 0.0)
        first = np.zeros(len(self), dtype=np.int64)
        if probs.shape[1]:  # the argmax among the given cells
            at = inside.argmax(axis=1)[:, None]
            first = np.take_along_axis(np.cumsum(given, axis=1), at, axis=1)[:, 0] - 1
        return _first_of(self.ids, [
            (out.any(axis=1), lambda i: f"probability {float(probs[i][out[i]][0])} out of range"),
            (has & ~_sums_within_tolerance(inside),
             lambda i: f"probability sum {math.fsum(inside[i].tolist())!r} exceeds tolerance"),
            (has & (pred != first), lambda i: f"pred {int(pred[i])} is not the argmax of probs "
                                              f"(expected {int(first[i])})"),
            (true_given & ((true < 0) | (has & (true >= counts))),
             lambda i: f"true label {int(true[i])} out of range"
                       + (f" for {int(counts[i])} classes" if has[i] else "")),
            (~has & _too_wide(pred), lambda i: f"label {int(pred[i])} does not fit in 64 bits"),
            (~has & true_given & _too_wide(true),
             lambda i: f"label {int(true[i])} does not fit in 64 bits"),
            (~has & (pred < 0), lambda i: f"pred {int(pred[i])} out of range"),
            (conf_given & _outside_unit(conf), lambda i: "confidence out of range"),
            (~self.ood & ~true_given, lambda i: "in-distribution record lacks a true label"),
        ])

    def _rows(self) -> Iterator[tuple]:
        """Each row's fields in :class:`PredictionRecord`'s order, None where absent."""
        probs = repeat(None) if self.probs is None else (
            row or None for row in _given_cells(self.probs))
        return zip(self.ids, self.pred.tolist(), probs,
                   [None if t < 0 else t for t in self.true.tolist()],
                   [None if math.isnan(c) else c for c in self.conf.tolist()],
                   map(_DIST_TAGS.__getitem__, self.ood.tolist()))


def _sums_within_tolerance(probs: np.ndarray) -> np.ndarray:
    """Per row of probabilities in [0, 1]: does its exact sum lie within tolerance of 1?

    numpy's sum differs from the correctly rounded ``math.fsum`` by at most
    (K + 1) ulp of 1 on rows that sum to at most 2; rows whose numpy sum
    lies that close to the tolerance's edge are summed again with
    ``math.fsum``.
    """
    sums = probs.sum(axis=1)
    slack = 2 * (probs.shape[1] + 1) * np.finfo(np.float64).eps
    edge = np.flatnonzero(np.abs(np.abs(sums - 1.0) - PROB_SUM_TOLERANCE) <= slack)
    sums[edge] = [math.fsum(row) for row in probs[edge].tolist()]
    return np.abs(sums - 1.0) <= PROB_SUM_TOLERANCE


@dataclass(frozen=True)
class MultiLabelRecord:
    """Independent per-class probabilities with binary ground truths.

    Raises :class:`RecordError` on construction if any invariant of
    :meth:`MultiLabelTable._first_fault` fails.
    """

    instance_id: str
    per_class_probs: tuple[float, ...]
    true_labels: tuple[int, ...]
    dist_tag: DistTag = DistTag.IN_DISTRIBUTION

    def __post_init__(self) -> None:
        _checked(MultiLabelTable._of_rows([_row_of(self)]))


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
    _record_type = MultiLabelRecord

    @classmethod
    def _of_columns(cls, ids, probs, truths, tags) -> tuple["MultiLabelTable", tuple]:
        """The table of :class:`MultiLabelRecord`'s fields as columns, and the given cells."""
        probs, probs_given = _padded(probs)
        truths, truths_given = _padded(truths, labels=True)
        ood = np.array([_parse_tag(t) is DistTag.OUT_OF_DISTRIBUTION for t in tags], dtype=bool)
        return (cls(ids=ids, probs=probs, truths=truths, ood=ood),
                (probs_given, truths_given))

    def _first_fault(self, probs_given=None, truths_given=None) -> tuple[int, str] | None:
        """The first row that breaks a :class:`MultiLabelRecord` invariant, and its message.

        As many truths as probabilities, each probability in [0, 1], each
        truth 0 or 1; ``probs_given`` and ``truths_given`` flag the given
        cells, by default the cells whose probability is not NaN.
        """
        probs, truths = self.probs, self.truths
        if probs_given is None:
            probs_given = truths_given = ~np.isnan(probs)
        n_probs, n_truths = probs_given.sum(axis=1), truths_given.sum(axis=1)
        out = probs_given & _outside_unit(probs)
        odd = truths_given & (truths != 0) & (truths != 1)
        return _first_of(self.ids, [
            (n_probs != n_truths,
             lambda i: f"{int(n_probs[i])} probs vs {int(n_truths[i])} truths"),
            (out.any(axis=1), lambda i: f"probability {float(probs[i][out[i]][0])} out of range"),
            (odd.any(axis=1), lambda i: f"truth {int(truths[i][odd[i]][0])} is not binary"),
        ])

    def _rows(self) -> Iterator[tuple]:
        """Each row's fields in :class:`MultiLabelRecord`'s order: the classes whose
        probability is not NaN."""
        given = ~np.isnan(self.probs)
        return zip(self.ids, _given_cells(self.probs, given), _given_cells(self.truths, given),
                   map(_DIST_TAGS.__getitem__, self.ood.tolist()))


@dataclass(frozen=True)
class FeatureRecord:
    """One labeled feature vector of a distillation task's feature file."""

    instance_id: str
    features: tuple[float, ...]
    true_label: int

    def __post_init__(self) -> None:
        _nonempty(self.instance_id, self.features, "feature")


@dataclass(frozen=True, eq=False)
class FeatureTable(_Rows):
    """Feature records as columns, read as a sequence of :class:`FeatureRecord`.

    ``ids`` holds the instance ids; ``features`` (float64, shape (n, d)) the
    feature vectors, a row with fewer than d padded with NaN, which no
    parsed feature can be; ``true`` (int64) the class labels.
    """

    ids: list[str]
    features: np.ndarray
    true: np.ndarray
    _record_type = FeatureRecord

    @classmethod
    def _of_columns(cls, ids, features, true) -> tuple["FeatureTable", tuple]:
        """The table of :class:`FeatureRecord`'s fields as columns, and the given cells."""
        features, given = _padded(features)
        return cls(ids=ids, features=features, true=_labels(true)), (given,)

    def feature_counts(self) -> np.ndarray:
        """The number of features on each row."""
        return np.count_nonzero(~np.isnan(self.features), axis=1)

    def _first_fault(self, given) -> tuple[int, str] | None:
        """The first row with a label past 64 bits or a feature not finite, and its message."""
        features = self.features
        odd = given & ~np.isfinite(features)
        return _first_of(self.ids, [
            (_too_wide(self.true), lambda i: f"label {int(self.true[i])} does not fit in 64 bits"),
            (odd.any(axis=1), lambda i: f"feature {float(features[i][odd[i]][0])} is not finite"),
        ])

    def _rows(self) -> Iterator[tuple]:
        """Each row's fields in :class:`FeatureRecord`'s order."""
        return zip(self.ids, _given_cells(self.features), self.true.tolist())

    def _records(self) -> Iterator[FeatureRecord]:
        # a FeatureRecord checks only that it has features, which its table does not
        return starmap(FeatureRecord, self._rows())


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
        if _outside_unit(self.confidence).any():
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
    try:
        ood = _TAG_IS_OOD[raw]  # a DistTag hashes and compares as its value
    except (KeyError, TypeError):  # TypeError: an unhashable array or object
        raise RecordError(f"unknown tag {raw!r} (expected 'id' or 'ood')") from None
    return _DIST_TAGS[ood]


_PARSE_CHUNK = 2048  # non-blank JSON Lines lines, or CSV rows, read at a time
_decode = json.JSONDecoder().raw_decode


def _json_row(line: str) -> dict | RecordError:
    """A JSON Lines line's object, or the :class:`RecordError` that says why it is not one.

    One ``raw_decode`` takes a line that holds an object and then JSON
    whitespace alone. Any other line is decoded again by ``json.loads``,
    which skips leading whitespace and words the fault.
    """
    try:
        obj, end = _decode(line)
    except (ValueError, RecursionError):
        obj, end = None, 0
    if type(obj) is dict and not line[end:].strip(" \t\r"):
        return obj
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        return RecordError(f"malformed JSON ({exc.msg})")
    except (ValueError, RecursionError) as exc:
        return RecordError(f"malformed JSON ({exc})")
    return obj if isinstance(obj, dict) else RecordError("expected a JSON object")


def _jsonl_chunks(text: str) -> Iterator[tuple[list[int], list]]:
    """Each run of up to ``_PARSE_CHUNK`` non-blank lines: line numbers, and rows.

    Lines end at a line feed only (a carriage return before it is JSON
    whitespace), so the U+2028, U+2029 and U+0085 that JSON allows raw
    inside strings stay put. Each line is decoded once (:func:`_json_row`):
    its row is its object, or a fault row, the :class:`RecordError` of a
    line that is not one JSON object.
    """
    lines = text.split("\n")
    numbered = [n for n, line in enumerate(lines, start=1) if line and not line.isspace()]
    for start in range(0, len(numbered), _PARSE_CHUNK):
        linenos = numbered[start : start + _PARSE_CHUNK]
        yield linenos, [_json_row(lines[n - 1]) for n in linenos]


def _csv_chunks(reader) -> Iterator[tuple[list[int], list]]:
    """The CSV reader's non-blank rows after the header, ``_PARSE_CHUNK`` rows at a time.

    Yields line numbers (the header is line 1, and each row after it counts
    one line) and rows; a run of blank rows alone yields nothing. A row that
    the csv module cannot read (a cell over its size limit, say) becomes a
    fault row, its :class:`RecordError`, on the reader's line; it ends the
    rows read.
    """
    line = 1
    while True:
        block = []
        try:
            block.extend(islice(reader, _PARSE_CHUNK))  # keeps the rows read before an error
        except csv.Error as exc:
            block.append(RecordError(f"malformed CSV ({exc})"))
        if not block:
            return
        linenos = [line + j for j, row in enumerate(block, start=1) if row]
        if isinstance(block[-1], RecordError):
            linenos[-1] = reader.line_num
        line += len(block)
        if linenos:
            yield linenos, [row for row in block if row]


def _read(chunks, cls: type, canonical, convert):
    """One ``cls`` table of the chunks' rows; the earliest fault in file order raises.

    ``chunks`` yields each chunk's line numbers and rows, at least one row
    per chunk; a row is a decoded line, or a fault row, the
    :class:`RecordError` of a line that does not decode. ``canonical(rows)``
    builds the table of a canonical chunk, one whose values all have the
    types ``convert`` gives, with ``cls._of_columns``, or gives None; a chunk
    that holds a fault row is not canonical. Any other chunk is converted
    row by row by ``convert`` and built by ``cls._of_rows``; a fault row, or
    the :class:`RecordError` of a row that does not convert, is that row's
    fault. The columns are then checked by ``cls._first_fault``, and the ids
    of all rows by one set.
    """
    tables, ids, lines = [], [], []
    for chunk_lines, rows in chunks:
        try:  # a failed build (an unknown tag, a label past 64 bits) is not canonical either
            built = None if RecordError in map(type, rows) else canonical(rows)
        except (TypeError, ValueError, OverflowError):
            built = None
        fault = None
        if built is None:
            converted = []
            for row in rows:
                try:
                    if type(row) is RecordError:
                        raise row
                    converted.append(convert(row))
                except RecordError as exc:
                    fault = len(converted), str(exc)
                    break
            built = cls._of_rows(converted)
        table, given = built
        fault = table._first_fault(*given) or fault  # a row before any unconverted one
        if fault is not None:
            row, message = fault
            _unrepeated(ids + table.ids[:row], lines + chunk_lines[:row])
            raise RecordError(f"line {chunk_lines[row]}: {message}")
        tables.append(table)
        ids += table.ids
        lines += chunk_lines
    _unrepeated(ids, lines)
    return cls._stacked(tables)


def _unrepeated(ids: list[str], lines: Sequence[int]) -> None:
    """Raise for the first id that repeats an earlier one, naming both lines."""
    if len(set(ids)) < len(ids):
        first: dict[str, int] = {}
        for rid, line in zip(ids, lines):
            if first.setdefault(rid, line) != line:
                raise RecordError(f"line {line}: duplicate id {rid!r} (first on line {first[rid]})")


# the scalar fields of a prediction record: JSON keys and leading CSV columns
_FIELDS = ("id", "pred", "true", "conf", "tag")
# raw tag values a record may carry, and whether each means out-of-distribution
_TAG_IS_OOD = {None: False, "": False, "id": False, "ood": True}
_LABEL_TYPES = {int, type(None)}
_NUMBER_TYPES = {int, float, type(None)}


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


def _array(values) -> list:
    """A JSON array field's values; anything else is a TypeError, a string or an object too."""
    if type(values) is not list:
        raise TypeError("not a JSON array")
    return values


def _record_id(rid) -> str:
    """An instance id: a JSON string or number, never an object, array or boolean."""
    if type(rid) in _NOT_ID:
        raise RecordError(f"id must be a string or a number, not {_NOT_ID[type(rid)]}")
    return str(rid)


def _prediction_row(rid, pred, true, conf, tag, probs) -> tuple:
    """One prediction record's raw fields converted, in :class:`PredictionRecord`'s order.

    Absent fields are None; a missing ``pred`` is the first argmax of ``probs``.
    """
    if rid is None:
        raise RecordError("missing 'id'")
    instance_id = _record_id(rid)
    if probs is None and pred is None:
        raise RecordError("need 'pred' or 'probs'")
    _integral(pred, true)
    _no_booleans(pred, true, conf, probs)
    try:
        probs_t = tuple(float(p) for p in _array(probs)) if probs is not None else None
        pred_i = int(pred) if pred is not None else first_argmax(probs_t)
        true_i = int(true) if true is not None else None
        conf_f = float(conf) if conf is not None else None
    except (TypeError, ValueError, OverflowError):
        raise RecordError("non-numeric field value") from None
    dist_tag = _parse_tag(tag)
    _nonempty(instance_id, probs_t, "probability")
    return instance_id, pred_i, probs_t, true_i, conf_f, dist_tag


def _csv_prediction(row: list[str], n_cells: int) -> tuple:
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
    return _prediction_row(*cells[: len(_FIELDS)], probs)


def _jsonl_columns(objects: list[dict]) -> tuple | None:
    """A chunk of JSON Lines objects as a table, if each value has its converted type."""
    ids, pred, true, conf, tag, probs = ([obj.get(key) for obj in objects]
                                         for key in (*_FIELDS, "probs"))
    if (set(map(type, ids)) == {str} and set(map(type, pred)) <= _LABEL_TYPES
            and set(map(type, true)) <= _LABEL_TYPES and set(map(type, conf)) <= _NUMBER_TYPES
            and set(map(type, probs)) <= {list, type(None)} and [] not in probs
            and set(map(type, chain.from_iterable(filter(None, probs)))) <= {int, float}):
        return RecordTable._of_columns(ids, pred, probs, true, conf, tag)
    return None


def _jsonl_prediction(obj: dict) -> tuple:
    return _prediction_row(*map(obj.get, _FIELDS), obj.get("probs"))


def _csv_columns(rows: list[list[str]], n_cells: int) -> tuple | None:
    """A chunk of CSV rows as a table, if every row is complete and canonical."""
    if set(map(len, rows)) != {n_cells}:
        return None
    ids, pred, true, conf, tag, *prob_columns = zip(*rows)
    if "" in ids:
        return None
    probs = [None] * len(rows)
    if prob_columns and not all(set(column) == {""} for column in prob_columns):
        # numpy reads each cell as the row converter's float() does; an empty one raises
        probs = [row[len(_FIELDS) :] for row in rows]
    return RecordTable._of_columns(
        list(ids),
        [int(c) if c else None for c in pred],
        probs,
        [int(c) if c else None for c in true],
        [float(c) if c else None for c in conf],
        tag,
    )


def _csv_header(reader) -> list[str] | None:
    """The CSV reader's header row, checked; None for empty text."""
    header = next(reader, None)
    if header is not None:
        expected = list(_FIELDS) + [f"p{k}" for k in range(len(header) - len(_FIELDS))]
        if header != expected:
            raise RecordError(f"line 1: bad CSV header, expected {','.join(expected)}")
    return header


# a line as ``io.StringIO`` yields it: up to and with a line feed, or the text's unended tail
_LINE = re.compile(r"[^\n]*\n|[^\n]+")


def parse_records(stream, fmt: RecordFormat = RecordFormat.JSON_LINES) -> RecordTable:
    """Parse prediction records from a byte/text stream, preserving order.

    Raises :class:`RecordError` naming the offending line on any malformed
    input, invariant violation or repeated instance id.
    """
    if fmt is not RecordFormat.JSON_LINES and fmt is not RecordFormat.CSV:
        raise ValueError(f"unknown record format: {fmt!r}")
    text = _as_text(stream)
    if fmt is RecordFormat.JSON_LINES:
        return _read(_jsonl_chunks(text), RecordTable, _jsonl_columns, _jsonl_prediction)
    reader = csv.reader(map(re.Match.group, _LINE.finditer(text)))
    try:
        header = _csv_header(reader)
    except csv.Error as exc:
        raise RecordError(f"line {reader.line_num}: malformed CSV ({exc})") from None
    n_cells = len(header or ())
    return _read(_csv_chunks(reader) if header else (), RecordTable,
                 partial(_csv_columns, n_cells=n_cells), partial(_csv_prediction, n_cells=n_cells))


def _multilabel_row(obj: dict) -> tuple:
    """One multi-label object converted, in :class:`MultiLabelRecord`'s field order."""
    if obj.get("id") is None or obj.get("probs") is None or obj.get("truths") is None:
        raise RecordError("need 'id', 'probs' and 'truths'")
    instance_id = _record_id(obj["id"])
    try:
        probs = tuple(float(p) for p in _array(obj["probs"]))
        truths = tuple(int(t) for t in _array(obj["truths"]))
    except (TypeError, ValueError, OverflowError):
        raise RecordError("non-numeric field value") from None
    _integral(*obj["truths"])
    _no_booleans(obj["probs"], obj["truths"])
    return instance_id, probs, truths, _parse_tag(obj.get("tag"))


def _multilabel_columns(objects: list[dict]) -> tuple | None:
    """A chunk of multi-label objects as a table, if each value has its converted type.

    That is a string id, a list of numbers as ``probs`` and a list of
    integers as ``truths``.
    """
    ids, probs, truths, tags = ([obj.get(key) for obj in objects]
                                for key in ("id", "probs", "truths", "tag"))
    if (set(map(type, ids)) == {str} and set(map(type, probs)) == {list}
            and set(map(type, truths)) == {list}
            and set(map(type, chain.from_iterable(probs))) <= {int, float}
            and set(map(type, chain.from_iterable(truths))) <= {int}):
        return MultiLabelTable._of_columns(ids, probs, truths, tags)
    return None


def parse_multilabel_records(stream) -> MultiLabelTable:
    """Parse multi-label records from JSON Lines, preserving order.

    One object per line: ``{"id": str, "probs": [...], "truths": [0/1, ...],
    "tag": "id"|"ood"}``. Raises :class:`RecordError` naming the first
    offending line.
    """
    return _read(_jsonl_chunks(_as_text(stream)), MultiLabelTable, _multilabel_columns,
                 _multilabel_row)


def _feature_row(obj: dict) -> tuple:
    """One feature object converted, in :class:`FeatureRecord`'s field order."""
    if any(obj.get(key) is None for key in ("id", "features", "true")):
        raise RecordError("need 'id', 'features' and 'true' (the class label)")
    rid = _record_id(obj["id"])
    _integral(obj["true"])
    _no_booleans(obj["features"], obj["true"])
    try:
        features = tuple(float(v) for v in _array(obj["features"]))
        true_label = int(obj["true"])
    except (TypeError, ValueError, OverflowError):
        raise RecordError("non-numeric field value") from None
    _nonempty(rid, features, "feature")
    return rid, features, true_label


def _feature_columns(objects: list[dict]) -> tuple | None:
    """A chunk of feature objects as a table, if each value has its converted type.

    That is a string id, a non-empty list of numbers and an integer label.
    """
    ids, features, true = ([obj.get(key) for obj in objects] for key in ("id", "features", "true"))
    if (set(map(type, ids)) == {str} and set(map(type, features)) == {list}
            and [] not in features and set(map(type, true)) == {int}
            and set(map(type, chain.from_iterable(features))) <= {int, float}):
        return FeatureTable._of_columns(ids, features, true)
    return None


def parse_feature_records(stream) -> FeatureTable:
    """Parse a feature file; raises :class:`RecordError` naming the offending line.

    One object per line: ``{"id": str, "features": [...], "true": int}``,
    every feature finite.
    """
    return _read(_jsonl_chunks(_as_text(stream)), FeatureTable, _feature_columns, _feature_row)


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


def _written_table(records: Iterable[PredictionRecord], first_line: int) -> RecordTable:
    """The records as one table, checked as parsing checks it, its first row on ``first_line``."""
    if isinstance(records, RecordTable):
        records._check()
    table = RecordTable.from_records(records)
    _unrepeated(table.ids, range(first_line, first_line + len(table)))
    return table


def write_records_jsonl(records: Iterable[PredictionRecord]) -> str:
    """Serialize records to JSON Lines with a stable key order, from their columns.

    Each line is
    ``json.dumps`` of an object with keys ``id``, ``probs``, ``pred``,
    ``true``, ``conf`` and ``tag``, in that order and without spaces; a
    row without probabilities, true label or confidence drops that key.
    """
    table = _written_table(records, 1)
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


def write_feature_records(records: Sequence[FeatureRecord]) -> str:
    """Feature JSON Lines from the records' columns: each line is ``json.dumps`` of
    ``{"id", "features", "true"}`` without spaces.

    The records are checked as :func:`parse_feature_records` checks them, so a
    feature that is not finite, a label past 64 bits or a repeated id raises
    its :class:`RecordError` and nothing is written.
    """
    table, (given,) = FeatureTable._of_columns(
        [rec.instance_id for rec in records], [rec.features for rec in records],
        [rec.true_label for rec in records])
    table._check(given)
    _unrepeated(table.ids, range(1, len(table) + 1))
    return _interleaved([
        '{"id":', list(map(json.dumps, table.ids)),
        *_array_parts(',"features":', table.features, given),
        ',"true":', table.true.astype(str),
        "}\n",
    ])


def write_records_csv(records: Iterable[PredictionRecord]) -> str:
    """Serialize records to CSV; probability columns sized to the widest record."""
    table = _written_table(records, 2)  # after the header
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
    table = RecordTable.from_records(records)
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
    table = RecordTable.from_records(records)
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
    records = MultiLabelTable.from_records(records)
    given = ~np.isnan(records.probs)  # row-major: (record, class) order
    probs, truths = records.probs[given], records.truths[given]
    return OutcomeSet((probs >= threshold) == (truths != 0), np.maximum(probs, 1.0 - probs))
