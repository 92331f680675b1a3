"""File formats for distillation tasks.

Two file kinds flow through the distillation pipeline:

- feature files (JSON Lines): ``{"id": str, "features": [...], "true": int}``,
  one labeled feature vector per instance;
- member files: standard prediction-record JSON Lines, one file per
  ensemble member, aligned with the feature file by instance id.
"""

from __future__ import annotations

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
    _integral,
    _jsonl_objects,
    _jsonl_text,
    _located,
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
    _integral(obj["true"])
    try:
        features = tuple(float(v) for v in obj["features"])
        true_label = int(obj["true"])
    except (TypeError, ValueError, OverflowError):
        raise RecordError("non-numeric field value") from None
    return FeatureRecord(instance_id=str(obj["id"]), features=features, true_label=true_label)


def parse_feature_records(stream) -> list[FeatureRecord]:
    """Parse a feature file; raises :class:`RecordError` naming the offending line."""
    return _located(_jsonl_objects(stream), _feature_record)


def write_feature_records(records: Sequence[FeatureRecord]) -> str:
    return _jsonl_text(
        {"id": rec.instance_id, "features": list(rec.features), "true": rec.true_label}
        for rec in records
    )


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


def load_member_records(paths: Sequence[Path]) -> list[list[PredictionRecord]]:
    members = []
    for p in paths:
        with naming_file(p):
            members.append(parse_records(p.read_bytes(), RecordFormat.for_path(p)))
    return members


def align_members(
    members: Sequence[Sequence[PredictionRecord]],
) -> tuple[list[str], np.ndarray, list[int | None], list[DistTag]]:
    """Align per-member records by instance id, in the first member's order.

    Returns ids, probabilities of shape (n, M, K), true labels and tags.
    Ids are unique within each member, as :func:`parse_records` ensures.
    Raises :class:`RecordError` if any member misses an instance or has
    one that member 0 lacks, carries no probability vector, or disagrees
    on the label or tag.
    """
    if len(members) == 0 or len(members[0]) == 0:
        raise RecordError("need at least one non-empty ensemble member")
    by_id = [{rec.instance_id: rec for rec in recs} for recs in members]

    ids = [rec.instance_id for rec in members[0]]
    n_classes = None
    probs_rows: list[list[tuple[float, ...]]] = []
    trues: list[int | None] = []
    tags: list[DistTag] = []
    for rid in ids:
        row = []
        for m, index in enumerate(by_id):
            rec = index.get(rid)
            if rec is None:
                raise RecordError(f"member {m}: missing instance id {rid!r}")
            if rec.probs is None:
                raise RecordError(f"member {m}: record {rid!r} has no probability vector")
            if n_classes is None:
                n_classes = len(rec.probs)
            elif len(rec.probs) != n_classes:
                raise RecordError(f"member {m}: record {rid!r} has {len(rec.probs)} classes")
            row.append(rec.probs)
        first = by_id[0][rid]
        for m, index in enumerate(by_id[1:], start=1):
            other = index[rid]
            if other.true_label != first.true_label or other.dist_tag != first.dist_tag:
                raise RecordError(f"member {m}: record {rid!r} disagrees on label or tag")
        probs_rows.append(row)
        trues.append(first.true_label)
        tags.append(first.dist_tag)
    for m, index in enumerate(by_id[1:], start=1):
        if index.keys() - by_id[0].keys():
            extra = next(rid for rid in index if rid not in by_id[0])
            raise RecordError(f"member {m}: instance id {extra!r} is not in member 0")
    return ids, np.asarray(probs_rows, dtype=np.float64), trues, tags
