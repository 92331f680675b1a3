"""Confidence evaluation and distillation toolkit for classifiers.

Evaluates how well a confidence score separates correct from incorrect
predictions (CCC curves and AUCCC, a ROC analysis with correctness as
the positive class), and provides a small distillation pipeline that
trains a cascade confidence model against softened deep-ensemble
targets.
"""

__version__ = "0.1.0"

from .ccc import (
    AucccReport,
    CCCCurve,
    ConfidenceConfusion,
    DegenerateOutcomesError,
    auccc_rank,
    auccc_trapezoid,
    ccc_curve,
    confusion_at_threshold,
    curve_to_csv,
    evaluate,
)
from .distill import (
    ConfidenceModel,
    TrainConfig,
    confidence_loss,
    confidence_loss_grad,
    train_confidence_model,
)
from .ensemble import (
    actual_class_confidence,
    average_probs,
    temperature_scale,
)
from .records import (
    ConfidenceSource,
    DistTag,
    MultiLabelRecord,
    OutcomeSet,
    PredictionRecord,
    RecordError,
    RecordFormat,
    binarize_multilabel,
    derive_io_outcomes,
    derive_outcomes,
    parse_multilabel_records,
    parse_records,
    write_records_csv,
    write_records_jsonl,
)
from .scoring import ScoreReport, brier_score, cross_entropy, max_softmax_confidence
from .synth import (
    ConfidenceDist,
    DEFAULT_UDIST_CONFIG,
    SynthOutcomeConfig,
    SynthUdistConfig,
    UdistSplit,
    UdistTask,
    gen_outcomes,
    gen_udist_task,
)

__all__ = [
    "AucccReport",
    "CCCCurve",
    "ConfidenceConfusion",
    "ConfidenceDist",
    "ConfidenceModel",
    "ConfidenceSource",
    "DEFAULT_UDIST_CONFIG",
    "DegenerateOutcomesError",
    "DistTag",
    "MultiLabelRecord",
    "OutcomeSet",
    "PredictionRecord",
    "RecordError",
    "RecordFormat",
    "ScoreReport",
    "SynthOutcomeConfig",
    "SynthUdistConfig",
    "TrainConfig",
    "UdistSplit",
    "UdistTask",
    "actual_class_confidence",
    "auccc_rank",
    "auccc_trapezoid",
    "average_probs",
    "binarize_multilabel",
    "brier_score",
    "ccc_curve",
    "confidence_loss",
    "confidence_loss_grad",
    "confusion_at_threshold",
    "cross_entropy",
    "curve_to_csv",
    "derive_io_outcomes",
    "derive_outcomes",
    "evaluate",
    "gen_outcomes",
    "gen_udist_task",
    "max_softmax_confidence",
    "parse_multilabel_records",
    "parse_records",
    "temperature_scale",
    "train_confidence_model",
    "write_records_csv",
    "write_records_jsonl",
]
