"""Evaluation metrics: confusion counts, precision/recall/F1, MAE, correlation,
multiclass accuracies, and the confidence-to-sentiment linear scaling.

Labels are (n,) bool arrays with True for positive; confidences and
sentiments are (n,) float arrays.

Degenerate cases (no predicted positives, constant correlation inputs) never
abort a run: report assembly records them as flags and substitutes zeros.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

SENTIMENT_SPAN = 6.0  # width of the sentiment scale [-3, 3]


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts; "positive" is the positive-sentiment class."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class Prf1:
    precision: float
    recall: float
    f1: float
    degenerate: bool = False


def _as_labels(name: str, labels) -> np.ndarray:
    """``labels`` as a 1-d bool array.

    Any other dtype is rejected: counted by truth value, a list of ``Polarity``
    members would read as all positive.
    """
    labels = np.asarray(labels)
    if labels.dtype != np.bool_ or labels.ndim != 1:
        raise ValueError(f"{name} labels must be a 1-d bool array, not {labels.dtype} of shape {labels.shape}")
    return labels


def unit_interval(name: str, values) -> np.ndarray:
    """``values`` as a float64 array, every entry checked to lie in [0, 1]."""
    values = np.asarray(values, dtype=np.float64)
    outside = ~((values >= 0.0) & (values <= 1.0))
    if outside.any():
        raise ValueError(f"{name} {values[outside][0]} outside [0, 1]")
    return values


def confusion(pred: np.ndarray, truth: np.ndarray) -> ConfusionMatrix:
    pred = _as_labels("predicted", pred)
    truth = _as_labels("truth", truth)
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.size} predictions, {truth.size} truths")
    if not pred.size:
        raise ValueError("cannot build a confusion matrix from zero samples")
    tp = int(np.count_nonzero(pred & truth))
    fp = int(np.count_nonzero(pred)) - tp
    fn = int(np.count_nonzero(truth)) - tp
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=pred.size - tp - fp - fn)


def prf1(cm: ConfusionMatrix) -> Prf1:
    """Precision, recall and F1; undefined quantities become 0 with the degenerate flag."""
    degenerate = False
    if cm.tp + cm.fp > 0:
        precision = cm.tp / (cm.tp + cm.fp)
    else:
        precision, degenerate = 0.0, True
    if cm.tp + cm.fn > 0:
        recall = cm.tp / (cm.tp + cm.fn)
    else:
        recall, degenerate = 0.0, True
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1, degenerate = 0.0, True
    return Prf1(precision=precision, recall=recall, f1=f1, degenerate=degenerate)


def scale_confidence(confidence: np.ndarray | float) -> np.ndarray:
    """Map confidences in [0, 1] linearly onto the sentiment scale [-3, 3]."""
    return SENTIMENT_SPAN * unit_interval("confidence", confidence) - SENTIMENT_SPAN / 2.0


def mae(pred: Sequence[float], truth: Sequence[float]) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if pred.size == 0:
        raise ValueError("cannot compute MAE of zero samples")
    return float(np.abs(pred - truth).mean())


def pearson(pred: Sequence[float], truth: Sequence[float]) -> float:
    """Sample correlation coefficient; raises on constant inputs."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if pred.size < 2:
        raise ValueError("need at least 2 samples")
    dp = pred - pred.mean()
    dt = truth - truth.mean()
    denom = float(np.sqrt((dp @ dp) * (dt @ dt)))
    if denom == 0.0:
        raise ValueError("correlation undefined for constant input")
    return float(np.clip((dp @ dt) / denom, -1.0, 1.0))


def _bin_sentiment(values: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(values), -3, 3)


def multiclass_accuracy(
    pred_sentiment: Sequence[float], truth_sentiment: Sequence[float], classes: int
) -> float:
    """Mean per-class recall after binning sentiments into 5 or 7 classes.

    7-class bins round to the nearest integer in {-3..3}. The 5-class variant
    clamps *predictions* into [-2, 2] before rounding while ground truth keeps
    its rounded class, so extreme truths are never recalled by construction.
    Averaging runs over the classes present in the ground truth.
    """
    pred = np.asarray(pred_sentiment, dtype=np.float64)
    truth = np.asarray(truth_sentiment, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if pred.size == 0:
        raise ValueError("cannot compute accuracy of zero samples")
    if classes == 7:
        pred_bins = _bin_sentiment(pred)
    elif classes == 5:
        pred_bins = np.rint(np.clip(pred, -2, 2))
    else:
        raise ValueError("classes must be 5 or 7")
    truth_bins = _bin_sentiment(truth)
    recalls = []
    for cls in np.unique(truth_bins):
        members = truth_bins == cls
        recalls.append(float((pred_bins[members] == cls).mean()))
    return float(np.mean(recalls))


def binary_accuracies(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """(plain accuracy, mean per-class recall) over bool labels."""
    cm = confusion(pred, truth)
    per_class = ((cm.tp, cm.tp + cm.fn), (cm.tn, cm.tn + cm.fp))
    recalls = [hits / members for hits, members in per_class if members]
    return (cm.tp + cm.tn) / cm.total, float(np.mean(recalls))


@dataclass(frozen=True)
class MetricReport:
    precision: float
    recall: float
    f1: float
    mae: float
    correlation: float
    binary_accuracy: float
    weighted_binary_accuracy: float
    acc5: float
    acc7: float
    confusion: ConfusionMatrix
    degenerate: tuple[str, ...] = ()


def compute_report(
    pred_labels: np.ndarray, truth_labels: np.ndarray, pred_sentiment: np.ndarray, truth_sentiment: np.ndarray
) -> MetricReport:
    """Assemble the full report, downgrading degenerate metrics to flagged zeros."""
    cm = confusion(pred_labels, truth_labels)
    scores = prf1(cm)
    flags = []
    if scores.degenerate:
        flags.append("precision_recall_f1")
    try:
        correlation = pearson(pred_sentiment, truth_sentiment)
    except ValueError:
        correlation = 0.0
        flags.append("correlation")
    plain, weighted = binary_accuracies(pred_labels, truth_labels)
    return MetricReport(
        precision=scores.precision,
        recall=scores.recall,
        f1=scores.f1,
        mae=mae(pred_sentiment, truth_sentiment),
        correlation=correlation,
        binary_accuracy=plain,
        weighted_binary_accuracy=weighted,
        acc5=multiclass_accuracy(pred_sentiment, truth_sentiment, 5),
        acc7=multiclass_accuracy(pred_sentiment, truth_sentiment, 7),
        confusion=cm,
        degenerate=tuple(flags),
    )


def format_report(report: MetricReport, title: str = "") -> str:
    """Flat key/value text block plus an actual-major confusion matrix."""
    lines = []
    if title:
        lines.append(f"# {title}")
    for key in (
        "precision",
        "recall",
        "f1",
        "mae",
        "correlation",
        "binary_accuracy",
        "weighted_binary_accuracy",
        "acc5",
        "acc7",
    ):
        lines.append(f"{key} {getattr(report, key):.6f}")
    if report.degenerate:
        lines.append(f"degenerate {','.join(report.degenerate)}")
    cm = report.confusion
    lines.append("# confusion matrix (rows = actual, columns = predicted)")
    lines.append(f"{'':>16}{'pred_positive':>15}{'pred_negative':>15}")
    lines.append(f"{'act_positive':>16}{cm.tp:>15}{cm.fn:>15}")
    lines.append(f"{'act_negative':>16}{cm.fp:>15}{cm.tn:>15}")
    return "\n".join(lines) + "\n"
