"""File formats for distillation tasks.

Two file kinds flow through the distillation pipeline:

- feature files (JSON Lines): ``{"id": str, "features": [...], "true": int}``,
  one labeled feature vector per instance;
- member files: standard prediction-record JSON Lines, one file per
  ensemble member, aligned with the feature file by instance id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .records import DistTag, PredictionRecord, RecordError, RecordFormat, parse_records


@dataclass(frozen=True)
class FeatureRecord:
    instance_id: str
    features: tuple[float, ...]
    true_label: int

    def __post_init__(self) -> None:
        if len(self.features) == 0:
            raise RecordError(f"record {self.instance_id!r}: empty feature vector")


def parse_feature_records(stream) -> list[FeatureRecord]:
    if isinstance(stream, bytes):
        stream = stream.decode("utf-8")
    if not isinstance(stream, str):
        stream = stream.read()
        if isinstance(stream, bytes):
            stream = stream.decode("utf-8")
    records = []
    for lineno, line in enumerate(stream.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"line {lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordError(f"{where}: malformed JSON ({exc.msg})") from None
        if not isinstance(obj, dict) or "id" not in obj or "features" not in obj:
            raise RecordError(f"{where}: need 'id' and 'features'")
        if "true" not in obj:
            raise RecordError(f"{where}: need 'true' (the class label)")
        try:
            features = tuple(float(v) for v in obj["features"])
            true_label = int(obj["true"])
        except (TypeError, ValueError):
            raise RecordError(f"{where}: non-numeric field value") from None
        records.append(
            FeatureRecord(instance_id=str(obj["id"]), features=features, true_label=true_label)
        )
    return records


def write_feature_records(records: Sequence[FeatureRecord]) -> str:
    lines = []
    for rec in records:
        obj = {"id": rec.instance_id, "features": list(rec.features), "true": rec.true_label}
        lines.append(json.dumps(obj, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


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
        fmt = RecordFormat.CSV if p.suffix == ".csv" else RecordFormat.JSON_LINES
        members.append(parse_records(p.read_bytes(), fmt))
    return members


def align_members(
    members: Sequence[Sequence[PredictionRecord]],
) -> tuple[list[str], np.ndarray, list[int | None], list[DistTag]]:
    """Align per-member records by instance id, in the first member's order.

    Returns ids, probabilities of shape (n, M, K), true labels and tags.
    Raises :class:`RecordError` if any member misses an instance, carries
    no probability vector, or disagrees on the label or tag.
    """
    if len(members) == 0 or len(members[0]) == 0:
        raise RecordError("need at least one non-empty ensemble member")
    by_id = []
    for m, recs in enumerate(members):
        index: dict[str, PredictionRecord] = {}
        for rec in recs:
            if rec.instance_id in index:
                raise RecordError(f"member {m}: duplicate instance id {rec.instance_id!r}")
            index[rec.instance_id] = rec
        by_id.append(index)

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
    return ids, np.asarray(probs_rows, dtype=np.float64), trues, tags
