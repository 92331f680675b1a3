"""Independent reference computations the production code is checked against.

These deliberately avoid the library's own code paths: the pairwise AUCCC
is a direct O(n*n) comparison count, the temperature closed form uses the
power identity rather than softmax-of-logs, gradients come from
central finite differences, SplitMix64 words are computed one at a
time in Python integers, curves and record files are written one
point or record at a time, the synthetic split is drawn one row at a time,
training gathers each batch on its own and updates each parameter
array on its own, with every intermediate in a fresh array, and record
files are read one line at a time, each record checked by scalar code.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from uqkit.records import DistTag, RecordError


def pairwise_auccc(correct, confidence) -> float:
    """Brute-force rank statistic: wins plus half-ties over all pairs.

    Counted in exact integers; the single division at the end is the only
    rounding step, matching how an exact rational would round.
    """
    correct = np.asarray(correct, dtype=bool)
    confidence = np.asarray(confidence, dtype=np.float64)
    pos = confidence[correct]
    neg = confidence[~correct]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("need both correct and incorrect entries")
    wins = int(np.sum(pos[:, None] > neg[None, :]))
    ties = int(np.sum(pos[:, None] == neg[None, :]))
    return (2 * wins + ties) / (2 * len(pos) * len(neg))


def power_temperature(p, temperature: float) -> np.ndarray:
    """Closed form for temperature scaling: p_i**(1/T) / sum_j p_j**(1/T)."""
    arr = np.asarray(p, dtype=np.float64)
    powered = arr ** (1.0 / temperature)
    return powered / np.sum(powered)


def central_difference(f, x: float, step: float = 1e-5) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def relative_error(a: float, b: float, floor: float = 1e-8) -> float:
    return abs(a - b) / max(abs(a) + abs(b), floor)


def splitmix64_words(key: int, n: int) -> list[int]:
    """Scalar SplitMix64 (Steele, Lea & Flood): the n words after ``key``, one at a time."""
    mask = (1 << 64) - 1
    words = []
    for _ in range(n):
        key = (key + 0x9E3779B97F4A7C15) & mask
        z = ((key ^ (key >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        words.append(z ^ (z >> 31))
    return words


def eval_json(report, scores) -> str:
    """The ``eval`` report as ``json.dumps`` of the report's dict and the two scores."""
    payload = report.to_dict()
    payload["cross_entropy"] = scores.cross_entropy
    payload["brier"] = scores.brier
    return json.dumps(payload) + "\n"


def curve_csv(curve) -> str:
    """The curve CSV, one ``repr`` per value; infinite thresholds are empty cells."""
    lines = ["threshold,one_minus_crejr,caccr"]
    for tau, x, y in zip(curve.thresholds, curve.x, curve.y):
        cell = "" if math.isinf(tau) else repr(float(tau))
        lines.append(f"{cell},{float(x)!r},{float(y)!r}")
    return "\n".join(lines) + "\n"


def gen_split_per_row(n: int, means, config, rng):
    """A synthetic split drawn and computed one row at a time, as ``synth`` once did.

    Returns (features, labels, member_probs). The softmax runs once over all
    rows, through the library's own ``_softmax``.
    """
    from uqkit.ensemble import _softmax

    n_struct = config.feature_dim - 1
    k = config.n_classes
    features = np.empty((n, config.feature_dim))
    labels = np.empty(n, dtype=np.int64)
    logits = np.empty((n, config.ensemble_size, k))
    for i in range(n):
        y = rng.randint(k)
        struct = np.array([means[y, j] + rng.normal() for j in range(n_struct)])
        signal = rng.random()
        wrong = (y + 1 + rng.randint(k - 1)) % k
        base = np.array([-0.5 * float(np.sum((struct - means[c]) ** 2)) for c in range(k)])
        base[wrong] += config.error_signal_strength * signal * signal
        labels[i] = y
        features[i, :n_struct] = struct
        features[i, n_struct] = signal
        jitter = [[config.noise_scale * rng.normal() for _ in range(k)]
                  for _ in range(config.ensemble_size)]
        logits[i] = base + np.array(jitter)
    return features, labels, _softmax(logits)


def record_object(rec) -> dict:
    """A prediction record as the dict the JSON Lines writer serializes."""
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


def records_jsonl(records) -> str:
    """Prediction-record JSON Lines, one compact ``json.dumps`` per record."""
    return "".join(json.dumps(record_object(rec), separators=(",", ":")) + "\n"
                   for rec in records)


def features_jsonl(records) -> str:
    """Feature-file JSON Lines, one compact ``json.dumps`` per record."""
    return "".join(
        json.dumps({"id": rec.instance_id, "features": list(rec.features),
                    "true": rec.true_label}, separators=(",", ":")) + "\n"
        for rec in records
    )


def records_csv(records) -> str:
    """Prediction-record CSV, one ``repr`` per number, through the csv module row by row."""
    import csv
    import io

    n_probs = max((len(r.probs) for r in records if r.probs is not None), default=0)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "pred", "true", "conf", "tag"] + [f"p{k}" for k in range(n_probs)])
    for rec in records:
        optional = [rec.true_label, rec.confidence]
        writer.writerow([rec.instance_id, repr(rec.pred_label)]
                        + ["" if value is None else repr(value) for value in optional]
                        + [rec.dist_tag.value]
                        + ([repr(p) for p in rec.probs] if rec.probs else [""] * n_probs))
    return buf.getvalue()


def loss_and_grads_allocating(model, x, t):
    """Mean clamped log loss and per-layer ``(dw, db)``, every intermediate a fresh array.

    ``x`` is (n, d) and ``t`` is (n, outputs), both float64.
    """
    activations = [x]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        activations.append(np.tanh(activations[-1] @ w + b))
    z = activations[-1] @ model.weights[-1] + model.biases[-1]
    s = 1.0 / (1.0 + np.exp(-z))
    clamp = 1e-7
    sc = np.clip(s, clamp, 1.0 - clamp)
    losses = -(t * np.log(sc) + (1.0 - t) * np.log(1.0 - sc))
    dloss_dsc = -t / sc + (1.0 - t) / (1.0 - sc)
    inside_clamp = (s > clamp) & (s < 1.0 - clamp)
    dz = dloss_dsc * (1.0 / t.size) * inside_clamp * s * (1.0 - s)
    grads = []
    for layer in range(len(model.weights) - 1, -1, -1):
        grads.append((activations[layer].T @ dz, dz.sum(axis=0)))
        if layer > 0:
            da = dz @ model.weights[layer].T
            dz = da * (1.0 - activations[layer] ** 2)
    grads.reverse()
    return float(np.mean(losses)), grads


def train_per_parameter(data, config):
    """``train_confidence_model`` as a loop of gathered batches and per-array updates.

    Uses the library's Glorot init and epoch shuffles, so only the training
    arithmetic is independent. Returns the trained model.
    """
    from uqkit.distill import DEFAULT_HIDDEN, TARGET_CLAMP, init_confidence_model
    from uqkit.rng import PortableRng

    x, t = (np.asarray(a, dtype=np.float64) for a in data)
    t = np.clip(t.reshape(-1, 1), TARGET_CLAMP, 1.0 - TARGET_CLAMP)
    rng = PortableRng(config.seed)
    model = init_confidence_model(x.shape[1], DEFAULT_HIDDEN, 1, rng)
    n = x.shape[0]
    lr = config.learning_rate
    decay_points = {config.epochs // 2, (3 * config.epochs) // 4}
    for epoch in range(config.epochs):
        if epoch in decay_points and epoch > 0:
            lr *= config.lr_decay
        order = rng.permutation(n)
        epoch_loss_total = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = loss_and_grads_allocating(model, x[batch], t[batch])
            epoch_loss_total += loss * len(batch)
            for (w, b), (dw, db) in zip(zip(model.weights, model.biases), grads):
                w -= lr * dw
                b -= lr * db
        model.epoch_losses.append(epoch_loss_total / n)
    return model


# ---------------------------------------------------------------------------
# The reference record reader: one record per line, each checked on its own
# ---------------------------------------------------------------------------
#
# Every record file kind is read here the way uqkit read it before its
# reader turned chunks into columns: line by line, each row converted and
# then checked by its own record class, with invariants written out as
# scalar code. It shares no code with uqkit's reader beyond the exception
# and tag types, so the two can be compared message for message.

_PROB_SUM_TOLERANCE = 1e-6
_LABEL_MIN, _LABEL_MAX = -(2**63), 2**63 - 1
_FIELDS = ("id", "pred", "true", "conf", "tag")


def _first_argmax(values) -> int:
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


@dataclass(frozen=True)
class Prediction:
    """A prediction record, with the fields of ``uqkit.records.PredictionRecord`` in order."""

    instance_id: str
    pred_label: int
    probs: tuple | None
    true_label: int | None
    confidence: float | None
    dist_tag: DistTag

    def __post_init__(self) -> None:
        rid = self.instance_id
        if self.probs is not None:
            if len(self.probs) == 0:
                raise RecordError(f"record {rid!r}: empty probability vector")
            for p in self.probs:
                if not (0.0 <= p <= 1.0) or math.isnan(p):
                    raise RecordError(f"record {rid!r}: probability {p} out of range")
            total = math.fsum(self.probs)
            if abs(total - 1.0) > _PROB_SUM_TOLERANCE:
                raise RecordError(f"record {rid!r}: probability sum {total!r} exceeds tolerance")
            if self.pred_label != _first_argmax(self.probs):
                raise RecordError(f"record {rid!r}: pred {self.pred_label} is not the argmax of "
                                  f"probs (expected {_first_argmax(self.probs)})")
        if self.true_label is not None:
            k = len(self.probs) if self.probs is not None else None
            if self.true_label < 0 or (k is not None and self.true_label >= k):
                classes = "" if k is None else f" for {k} classes"
                raise RecordError(
                    f"record {rid!r}: true label {self.true_label} out of range{classes}")
        if self.probs is None:
            for label in (self.pred_label, self.true_label):
                if label is not None and not _LABEL_MIN <= label <= _LABEL_MAX:
                    raise RecordError(f"record {rid!r}: label {label} does not fit in 64 bits")
            if self.pred_label < 0:
                raise RecordError(f"record {rid!r}: pred {self.pred_label} out of range")
        if self.confidence is not None and not (0.0 <= self.confidence <= 1.0):
            raise RecordError(f"record {rid!r}: confidence out of range")
        if self.dist_tag is DistTag.IN_DISTRIBUTION and self.true_label is None:
            raise RecordError(f"record {rid!r}: in-distribution record lacks a true label")


@dataclass(frozen=True)
class MultiLabel:
    """A multi-label record, with the fields of ``uqkit.records.MultiLabelRecord`` in order."""

    instance_id: str
    per_class_probs: tuple
    true_labels: tuple
    dist_tag: DistTag

    def __post_init__(self) -> None:
        rid = self.instance_id
        if len(self.per_class_probs) != len(self.true_labels):
            raise RecordError(f"record {rid!r}: {len(self.per_class_probs)} probs vs "
                              f"{len(self.true_labels)} truths")
        for p in self.per_class_probs:
            if not (0.0 <= p <= 1.0) or math.isnan(p):
                raise RecordError(f"record {rid!r}: probability {p} out of range")
        for t in self.true_labels:
            if t not in (0, 1):
                raise RecordError(f"record {rid!r}: truth {t} is not binary")


@dataclass(frozen=True)
class Feature:
    """A feature record, with the fields of ``uqkit.records.FeatureRecord`` in order."""

    instance_id: str
    features: tuple
    true_label: int

    def __post_init__(self) -> None:
        if len(self.features) == 0:
            raise RecordError(f"record {self.instance_id!r}: empty feature vector")


def _located(rows, build) -> list:
    """``build(row)`` per ``(where, row)`` pair, in order; errors and repeated ids name where."""
    built = []
    first_seen: dict = {}
    for where, row in rows:
        try:
            rec = build(row)
        except RecordError as exc:
            raise RecordError(f"{where}: {exc}") from None
        first = first_seen.setdefault(rec.instance_id, where)
        if first != where:
            raise RecordError(f"{where}: duplicate id {rec.instance_id!r} (first on {first})")
        built.append(rec)
    return built


def jsonl_objects(text: str):
    """Yield ``("line N", object)`` for each non-blank line, each decoded on its own."""
    for n, line in enumerate(text.split("\n"), start=1):
        if not line or line.isspace():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordError(f"line {n}: malformed JSON ({exc.msg})") from None
        except (ValueError, RecursionError) as exc:
            raise RecordError(f"line {n}: malformed JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise RecordError(f"line {n}: expected a JSON object")
        yield f"line {n}", obj


def _tag(raw) -> DistTag:
    if raw in (None, "", "id"):
        return DistTag.IN_DISTRIBUTION
    if raw == "ood":
        return DistTag.OUT_OF_DISTRIBUTION
    raise RecordError(f"unknown tag {raw!r} (expected 'id' or 'ood')")


def _integral(*labels) -> None:
    for label in labels:
        if isinstance(label, float) and not label.is_integer():
            raise RecordError(f"label {label!r} is not an integer")


def _no_booleans(*fields) -> None:
    for field in fields:
        if bool in map(type, field if isinstance(field, list) else (field,)):
            raise RecordError("boolean where a number is expected")


def _listed(values) -> list:
    """A JSON array's values; any other value (a string, an object) raises TypeError."""
    if not isinstance(values, list):
        raise TypeError("not a JSON array")
    return values


def _record_id(rid) -> str:
    kinds = {dict: "an object", list: "an array", bool: "a boolean"}
    if type(rid) in kinds:
        raise RecordError(f"id must be a string or a number, not {kinds[type(rid)]}")
    return str(rid)


def _prediction(rid, pred, true, conf, tag, probs) -> Prediction:
    if rid is None:
        raise RecordError("missing 'id'")
    instance_id = _record_id(rid)
    if probs is None and pred is None:
        raise RecordError("need 'pred' or 'probs'")
    _integral(pred, true)
    _no_booleans(pred, true, conf, probs)
    try:
        probs_t = tuple(float(p) for p in _listed(probs)) if probs is not None else None
        pred_i = int(pred) if pred is not None else _first_argmax(probs_t)
        true_i = int(true) if true is not None else None
        conf_f = float(conf) if conf is not None else None
    except (TypeError, ValueError, OverflowError):
        raise RecordError("non-numeric field value") from None
    return Prediction(instance_id, pred_i, probs_t, true_i, conf_f, _tag(tag))


def _csv_prediction(row: list, n_cells: int) -> Prediction:
    if len(row) != n_cells:
        raise RecordError(f"expected {n_cells} cells, got {len(row)}")
    cells = [cell if cell != "" else None for cell in row]
    prob_cells = cells[len(_FIELDS):]
    probs = None
    if any(c is not None for c in prob_cells):
        if any(c is None for c in prob_cells):
            raise RecordError("partial probability vector")
        try:
            probs = [float(c) for c in prob_cells]
        except ValueError:
            raise RecordError("non-numeric probability cell") from None
    return _prediction(*cells[: len(_FIELDS)], probs)


def _csv_predictions(text: str) -> list:
    import csv
    import io

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            return []
        expected = list(_FIELDS) + [f"p{k}" for k in range(len(header) - len(_FIELDS))]
        if header != expected:
            raise RecordError(f"line 1: bad CSV header, expected {','.join(expected)}")
        rows = ((f"line {n}", row) for n, row in enumerate(reader, start=2) if row)
        return _located(rows, lambda row: _csv_prediction(row, len(header)))
    except csv.Error as exc:
        raise RecordError(f"line {reader.line_num}: malformed CSV ({exc})") from None


def scalar_records(text: str, fmt: str = "jsonl") -> list:
    """Prediction records of JSON Lines (``fmt`` "jsonl") or CSV text, a :class:`Prediction` a row."""
    if fmt == "jsonl":
        return _located(jsonl_objects(text),
                        lambda obj: _prediction(*map(obj.get, _FIELDS), obj.get("probs")))
    return _csv_predictions(text)


def _multilabel(obj: dict) -> MultiLabel:
    if obj.get("id") is None or obj.get("probs") is None or obj.get("truths") is None:
        raise RecordError("need 'id', 'probs' and 'truths'")
    instance_id = _record_id(obj["id"])
    try:
        probs = tuple(float(p) for p in _listed(obj["probs"]))
        truths = tuple(int(t) for t in _listed(obj["truths"]))
    except (TypeError, ValueError, OverflowError):
        raise RecordError("non-numeric field value") from None
    _integral(*obj["truths"])
    _no_booleans(obj["probs"], obj["truths"])
    return MultiLabel(instance_id, probs, truths, _tag(obj.get("tag")))


def scalar_multilabel_records(text: str) -> list:
    """Multi-label records of JSON Lines text, one :class:`MultiLabel` per line."""
    return _located(jsonl_objects(text), _multilabel)


def _feature(obj: dict) -> Feature:
    if any(obj.get(key) is None for key in ("id", "features", "true")):
        raise RecordError("need 'id', 'features' and 'true' (the class label)")
    rid = _record_id(obj["id"])
    _integral(obj["true"])
    _no_booleans(obj["features"], obj["true"])
    try:
        features = tuple(float(v) for v in _listed(obj["features"]))
        true_label = int(obj["true"])
    except (TypeError, ValueError, OverflowError):
        raise RecordError("non-numeric field value") from None
    if features and not _LABEL_MIN <= true_label <= _LABEL_MAX:
        raise RecordError(f"record {rid!r}: label {true_label} does not fit in 64 bits")
    bad = next((v for v in features if not math.isfinite(v)), None)
    if bad is not None:
        raise RecordError(f"record {rid!r}: feature {bad} is not finite")
    return Feature(rid, features, true_label)


def scalar_feature_records(text: str) -> list:
    """Feature records of JSON Lines text, one :class:`Feature` per line.

    A label past 64 bits is rejected once the row has features; the reader
    uqkit had before its columns accepted it, then failed when it built
    the label array.
    """
    return _located(jsonl_objects(text), _feature)


@contextmanager
def counting(module, name: str):
    """Count the calls of ``module``'s function ``name`` made inside the block.

    Yields the list of each call's positional arguments.
    """
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    setattr(module, name, counted)
    try:
        yield calls
    finally:
        setattr(module, name, original)
