"""File formats for distillation tasks.

Two file kinds flow through the distillation pipeline:

- feature files (JSON Lines): ``{"id": str, "features": [...], "true": int}``,
  one labeled feature vector per instance;
- member files: standard prediction-record JSON Lines, one file per
  ensemble member, aligned with the feature file by instance id.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .records import (
    DistTag,
    PredictionRecord,
    RecordError,
    RecordFormat,
    RecordTable,
    _array_parts,
    _as_table,
    _integral,
    _interleaved,
    _jsonl_objects,
    _located,
    _no_booleans,
    _padded,
    _record_id,
    parse_records,
)


@dataclass(frozen=True)
class FeatureRecord:
    instance_id: str
    features: tuple[float, ...]
    true_label: int

    def __post_init__(self) -> None:
        if len(self.features) == 0:
            raise RecordError(f"record {self.instance_id!r}: empty feature vector")


def _feature_record(obj: dict) -> FeatureRecord:
    if any(obj.get(key) is None for key in ("id", "features", "true")):
        raise RecordError("need 'id', 'features' and 'true' (the class label)")
    rid = _record_id(obj["id"])
    _integral(obj["true"])
    _no_booleans(obj["features"], obj["true"])
    try:
        features = tuple(float(v) for v in obj["features"])
        true_label = int(obj["true"])
    except (TypeError, ValueError, OverflowError):
        raise RecordError("non-numeric field value") from None
    bad = next((v for v in features if not math.isfinite(v)), None)
    if bad is not None:  # NaN, Infinity, or a literal such as 1e999 that overflows
        raise RecordError(f"record {rid!r}: feature {bad} is not finite")
    return FeatureRecord(instance_id=rid, features=features, true_label=true_label)


def parse_feature_records(stream) -> list[FeatureRecord]:
    """Parse a feature file; raises :class:`RecordError` naming the offending line."""
    return _located(_jsonl_objects(stream), _feature_record)


def write_feature_records(records: Sequence[FeatureRecord]) -> str:
    """Feature JSON Lines from the records' columns: each line is ``json.dumps`` of
    ``{"id", "features", "true"}`` without spaces."""
    values, present = _padded([rec.features for rec in records])
    return _interleaved([
        '{"id":', [json.dumps(rec.instance_id) for rec in records],
        *_array_parts(',"features":', values, present),
        ',"true":', np.array([rec.true_label for rec in records], dtype=np.int64).astype(str),
        "}\n",
    ])


@contextmanager
def naming_file(path) -> Iterator[None]:
    """Prefix a :class:`RecordError` raised inside the block with the file it concerns."""
    try:
        yield
    except RecordError as exc:
        raise RecordError(f"{path}: {exc}") from None


def collect_member_paths(paths: Sequence[str]) -> list[Path]:
    """Expand files and directories into a sorted list of member record files."""
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found = sorted(q for q in p.iterdir() if q.suffix in (".jsonl", ".csv"))
            if not found:
                raise FileNotFoundError(f"no member record files in directory {p}")
            out.extend(found)
        elif p.exists():
            out.append(p)
        else:
            raise FileNotFoundError(f"member path {p} does not exist")
    if not out:
        raise FileNotFoundError("no ensemble member files given")
    return out


def load_member_records(paths: Sequence[Path]) -> list[RecordTable]:
    members = []
    for p in paths:
        with naming_file(p):
            members.append(parse_records(p.read_bytes(), RecordFormat.for_path(p)))
    return members


def align_members(
    members: Sequence[Sequence[PredictionRecord]],
) -> tuple[list[str], np.ndarray, list[int | None], list[DistTag]]:
    """Align per-member records by instance id, in the first member's order.

    Returns ids, probabilities of shape (n, M, K), true labels and tags. The
    rule is two-way: each member must hold exactly member 0's (unique) ids,
    each record a probability vector of member 0's class count, and member
    0's label and tag. A :class:`RecordError` names the member and the id.
    """
    if len(members) == 0 or len(members[0]) == 0:
        raise RecordError("need at least one non-empty ensemble member")
    tables = [_as_table(member) for member in members]
    first = tables[0]
    ids = first.ids
    n_classes = first.prob_counts()[0]
    blocks = []
    for m, table in enumerate(tables):
        row_of = {rid: j for j, rid in enumerate(table.ids)}
        take = [row_of.get(rid) for rid in ids]
        if None in take:
            raise RecordError(f"member {m}: missing instance id {ids[take.index(None)]!r}")
        if len(row_of) > len(ids):
            known = set(ids)
            extra = next(rid for rid in row_of if rid not in known)
            raise RecordError(f"member {m}: instance id {extra!r} is not in member 0")
        rows = np.array(take, dtype=np.int64)
        counts = table.prob_counts()[rows]
        agrees = (table.true[rows] == first.true) & (table.ood[rows] == first.ood)
        faults = np.flatnonzero((counts == 0) | (counts != n_classes) | ~agrees)
        if len(faults):
            i = faults[0]
            if counts[i] == 0:
                raise RecordError(f"member {m}: record {ids[i]!r} has no probability vector")
            if counts[i] != n_classes:
                raise RecordError(f"member {m}: record {ids[i]!r} has {counts[i]} classes")
            raise RecordError(f"member {m}: record {ids[i]!r} disagrees on label or tag")
        blocks.append(table.probs[rows])
    trues = [None if t < 0 else t for t in first.true.tolist()]
    tags = [DistTag.OUT_OF_DISTRIBUTION if o else DistTag.IN_DISTRIBUTION
            for o in first.ood.tolist()]
    return ids, np.stack(blocks, axis=1), trues, tags
