"""Evaluation metrics: confusion counts, precision/recall/F1, MAE, correlation,
multiclass accuracies, and the confidence-to-sentiment linear scaling.

Labels are (n,) bool arrays with True for positive; confidences and
sentiments are (n,) float arrays.

Degenerate cases (no predicted positives, constant correlation inputs) never
abort a run: report assembly records them as flags and substitutes zeros.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Sequence

import numpy as np

from .corpus import SENTIMENT_MAX, SENTIMENT_MIN

SENTIMENT_SPAN = SENTIMENT_MAX - SENTIMENT_MIN


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


def mean_rate(hits: Sequence[int], members: Sequence[int]) -> float:
    """Mean of the rates ``hits[i] / members[i]``, summed as exact fractions and rounded once.

    Every metric that averages per-class or per-fold rates goes through here,
    so rates that are equal as fractions compare equal as floats.
    """
    return float(sum(Fraction(int(h), int(m)) for h, m in zip(hits, members, strict=True)) / len(members))


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
    """Precision, recall and F1; undefined quantities become 0 with the degenerate flag.

    All three are defined and positive exactly when there is a true positive.
    """
    if not cm.tp:
        return Prf1(precision=0.0, recall=0.0, f1=0.0, degenerate=True)
    precision = cm.tp / (cm.tp + cm.fp)
    recall = cm.tp / (cm.tp + cm.fn)
    return Prf1(precision=precision, recall=recall, f1=2.0 * precision * recall / (precision + recall))


def scale_confidence(confidence: np.ndarray | float) -> np.ndarray:
    """Map confidences in [0, 1] linearly onto the sentiment scale [-3, 3]."""
    return SENTIMENT_SPAN * unit_interval("confidence", confidence) - SENTIMENT_SPAN / 2.0


def _paired(pred: Sequence[float], truth: Sequence[float], minimum: int) -> tuple[np.ndarray, np.ndarray]:
    """``pred`` and ``truth`` as equal-length float64 vectors of at least ``minimum`` entries."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if pred.size < minimum:
        raise ValueError(f"need at least {minimum} sample(s), got {pred.size}")
    return pred, truth


def mae(pred: Sequence[float], truth: Sequence[float]) -> float:
    pred, truth = _paired(pred, truth, 1)
    return float(np.abs(pred - truth).mean())


def pearson(pred: Sequence[float], truth: Sequence[float]) -> float:
    """Sample correlation coefficient; raises on constant inputs."""
    pred, truth = _paired(pred, truth, 2)
    dp = pred - pred.mean()
    dt = truth - truth.mean()
    denom = float(np.sqrt((dp @ dp) * (dt @ dt)))
    if denom == 0.0:
        raise ValueError("correlation undefined for constant input")
    return float(np.clip((dp @ dt) / denom, -1.0, 1.0))


def multiclass_accuracy(
    pred_sentiment: Sequence[float], truth_sentiment: Sequence[float], classes: int
) -> float:
    """Mean per-class recall after binning sentiments into 5 or 7 classes.

    7-class bins round to the nearest integer in {-3..3}. The 5-class variant
    clamps rounded *predictions* into [-2, 2] while ground truth keeps
    its rounded class, so extreme truths are never recalled by construction.
    Averaging runs over the classes present in the ground truth.
    """
    pred, truth = _paired(pred_sentiment, truth_sentiment, 1)
    if classes not in (5, 7):
        raise ValueError("classes must be 5 or 7")
    pred_bins = np.clip(np.rint(pred), -(classes // 2), classes // 2)
    truth_bins = np.clip(np.rint(truth), SENTIMENT_MIN, SENTIMENT_MAX)
    bins, index, members = np.unique(truth_bins, return_inverse=True, return_counts=True)
    hits = np.bincount(index[pred_bins == truth_bins], minlength=bins.size)
    return mean_rate(hits, members)


def binary_accuracies(cm: ConfusionMatrix) -> tuple[float, float]:
    """(plain accuracy, mean per-class recall) of a confusion matrix."""
    present = [(hits, members) for hits, members in ((cm.tp, cm.tp + cm.fn), (cm.tn, cm.tn + cm.fp)) if members]
    return (cm.tp + cm.tn) / cm.total, mean_rate(*zip(*present))


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
    plain, weighted = binary_accuracies(cm)
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
    for f in fields(report):
        if f.name not in ("confusion", "degenerate"):
            lines.append(f"{f.name} {getattr(report, f.name):.6f}")
    if report.degenerate:
        lines.append(f"degenerate {','.join(report.degenerate)}")
    cm = report.confusion
    lines.append("# confusion matrix (rows = actual, columns = predicted)")
    lines.append(f"{'':>16}{'pred_positive':>15}{'pred_negative':>15}")
    lines.append(f"{'act_positive':>16}{cm.tp:>15}{cm.fn:>15}")
    lines.append(f"{'act_negative':>16}{cm.fp:>15}{cm.tn:>15}")
    return "\n".join(lines) + "\n"
