"""Loading and aligning the files of a distillation task.

Two file kinds flow through the distillation pipeline, both read and
written by :mod:`uqkit.records`:

- feature files (JSON Lines): ``{"id": str, "features": [...], "true": int}``,
  one labeled feature vector per instance, read into a
  :class:`~uqkit.records.FeatureTable` by
  :func:`~uqkit.records.parse_feature_records` and written by
  :func:`~uqkit.records.write_feature_records`;
- member files: standard prediction-record files, one per ensemble member,
  loaded here as :class:`~uqkit.records.RecordTable` columns and aligned by
  instance id.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .records import RecordError, RecordFormat, RecordTable, parse_records


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


def join_ids(ids: list[str], other: list[str], missing, extra) -> np.ndarray:
    """The row in ``other`` of each of ``ids``, unique ids joined both ways: the first of ``ids``
    that ``other`` lacks raises ``missing(id)``, then the first it adds raises ``extra(id)``."""
    row_of = {rid: j for j, rid in enumerate(other)}
    rows = [row_of.get(rid) for rid in ids]
    if None in rows:
        raise RecordError(missing(ids[rows.index(None)]))
    if len(row_of) > len(ids):
        known = set(ids)
        raise RecordError(extra(next(rid for rid in other if rid not in known)))
    return np.array(rows, dtype=np.int64)


def align_members(
    members: Sequence[RecordTable],
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Align member tables by instance id, in the first member's order.

    Returns ids, probabilities of shape (n, M, K), and member 0's ``true``
    (int64, -1 where absent) and ``ood`` (bool) columns. The rule is
    two-way: each member must hold exactly member 0's (unique) ids, each
    record a probability vector of member 0's class count, and member 0's
    label and tag. A :class:`RecordError` names the member and the id.
    """
    if len(members) == 0 or len(members[0]) == 0:
        raise RecordError("need at least one non-empty ensemble member")
    first = members[0]
    ids = first.ids
    n_classes = first.prob_counts()[0]
    blocks = []
    for m, table in enumerate(members):
        rows = join_ids(ids, table.ids, lambda rid: f"member {m}: missing instance id {rid!r}",
                        lambda rid: f"member {m}: instance id {rid!r} is not in member 0")
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
    return ids, np.stack(blocks, axis=1), first.true, first.ood
