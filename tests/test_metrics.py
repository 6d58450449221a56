import dataclasses

import numpy as np
import pytest

from bofsent.corpus import Polarity
from bofsent.fusion import classification_error
from bofsent.metrics import (
    ConfusionMatrix,
    MetricReport,
    binary_accuracies,
    compute_report,
    confusion,
    format_report,
    mae,
    multiclass_accuracy,
    pearson,
    prf1,
    scale_confidence,
)

P, N = True, False


def _labels(*labels):
    return np.array(labels, dtype=bool)

# Validation-set confusion counts the pipeline is expected to reproduce
# (actual-major orientation), with their published precision/recall/F1.
PUBLISHED_COUNTS = {
    "video": (ConfusionMatrix(tp=884, fn=344, fp=231, tn=240), (0.7928, 0.7198, 0.7545)),
    "fusion1": (ConfusionMatrix(tp=706, fn=522, fp=174, tn=297), (0.8022, 0.5749, 0.6698)),
    "fusion2": (ConfusionMatrix(tp=1031, fn=197, fp=303, tn=168), (0.7729, 0.8396, 0.8049)),
}


class TestConfusion:
    def test_perfect_two_samples(self):
        cm = confusion(_labels(P, N), _labels(P, N))
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (1, 1, 0, 0)

    def test_counts_and_total(self):
        pred = _labels(P, P, N, N, P)
        truth = _labels(P, N, P, N, P)
        cm = confusion(pred, truth)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 1, 1, 1)
        assert cm.total == 5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            confusion(_labels(P), _labels(P, N))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confusion(_labels(), _labels())


class TestPrf1:
    @pytest.mark.parametrize("name", sorted(PUBLISHED_COUNTS))
    def test_published_rows(self, name):
        cm, (precision, recall, f1) = PUBLISHED_COUNTS[name]
        result = prf1(cm)
        assert abs(result.precision - precision) < 5e-4
        assert abs(result.recall - recall) < 5e-4
        assert abs(result.f1 - f1) < 5e-4
        assert not result.degenerate

    def test_degenerate_no_positives(self):
        result = prf1(ConfusionMatrix(tp=0, fp=0, fn=0, tn=10))
        assert result.degenerate
        assert (result.precision, result.recall, result.f1) == (0.0, 0.0, 0.0)


class TestScaleConfidence:
    def test_midpoint(self):
        assert scale_confidence(0.5) == 0.0

    def test_endpoints(self):
        assert scale_confidence(1.0) == 3.0
        assert scale_confidence(0.0) == -3.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            scale_confidence(1.5)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        for s in rng.uniform(-3, 3, 200):
            assert abs(scale_confidence((s + 3.0) / 6.0) - s) < 1e-12

    def test_arrays_elementwise(self):
        confidence = np.array([0.0, 0.25, 0.5, 1.0])
        assert scale_confidence(confidence).tolist() == [-3.0, -1.5, 0.0, 3.0]
        with pytest.raises(ValueError, match="confidence -0.5 outside"):
            scale_confidence(np.array([0.5, -0.5]))


class TestMae:
    def test_identical(self):
        assert mae([1.0, -2.0, 0.5], [1.0, -2.0, 0.5]) == 0.0

    def test_hand_case(self):
        assert mae([1.0, -1.0], [0.0, 0.0]) == 1.0

    def test_symmetry_and_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-3, 3, 100)
        b = rng.uniform(-3, 3, 100)
        brute = sum(abs(x - y) for x, y in zip(a, b)) / 100
        assert mae(a, b) == pytest.approx(brute, abs=1e-12)
        assert mae(a, b) == mae(b, a)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mae([], [])


class TestPearson:
    def test_identity(self):
        x = [1.0, 2.0, 5.0]
        assert pearson(x, x) == pytest.approx(1.0)

    def test_negation(self):
        x = np.array([1.0, 2.0, 5.0])
        assert pearson((-x).tolist(), x.tolist()) == pytest.approx(-1.0)

    def test_hand_case(self):
        # {1,2,3} vs {1,2,4}: deviations (-1,0,1) and (-4/3,-1/3,5/3),
        # covariance 3, variances 2 and 14/3 -> r = 3 / sqrt(28/3)
        expected = 3.0 / np.sqrt(2.0 * 14.0 / 3.0)
        assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(expected, abs=1e-12)

    def test_constant_input_raises(self):
        with pytest.raises(ValueError, match="constant"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestMulticlassAccuracy:
    def test_identity_on_integer_grid(self):
        grid7 = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
        assert multiclass_accuracy(grid7, grid7, 7) == 1.0
        grid5 = [-2.0, -1.0, 0.0, 1.0, 2.0]
        assert multiclass_accuracy(grid5, grid5, 5) == 1.0

    def test_constant_zero_recalls_one_of_seven(self):
        truth = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
        assert multiclass_accuracy([0.0] * 7, truth, 7) == pytest.approx(1.0 / 7.0)

    def test_clamped_prediction_misses_extreme_truth(self):
        assert multiclass_accuracy([2.6], [3.0], 7) == 1.0
        assert multiclass_accuracy([2.6], [3.0], 5) == 0.0

    def test_rounding_to_same_integers_scores_one(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(-3, 4, 50).astype(float)
        pred = truth + rng.uniform(-0.4, 0.4, 50)
        assert multiclass_accuracy(pred, truth, 7) == 1.0

    def test_invalid_class_count(self):
        with pytest.raises(ValueError):
            multiclass_accuracy([0.0], [0.0], 3)


class TestBinaryAccuracies:
    def test_perfect(self):
        assert binary_accuracies(confusion(_labels(P, N), _labels(P, N))) == (1.0, 1.0)

    def test_all_positive_imbalanced(self):
        pred = _labels(P, P, P, P)
        truth = _labels(P, P, P, N)
        assert binary_accuracies(confusion(pred, truth)) == (0.75, 0.5)

    def test_published_counts_binary_accuracy(self):
        cm, _ = PUBLISHED_COUNTS["fusion2"]
        pred = _labels(*([P] * cm.tp + [N] * cm.fn + [P] * cm.fp + [N] * cm.tn))
        truth = _labels(*([P] * (cm.tp + cm.fn) + [N] * (cm.fp + cm.tn)))
        plain, _ = binary_accuracies(confusion(pred, truth))
        assert plain == pytest.approx((1031 + 168) / 1699, abs=1e-12)

    def test_weighted_invariant_to_duplication(self):
        rng = np.random.default_rng(3)
        pred = rng.random(40) > 0.3
        truth = rng.random(40) > 0.5
        _, weighted = binary_accuracies(confusion(pred, truth))
        # duplicate every negative-truth sample; per-class recalls are unchanged
        dup_pred = np.concatenate([pred, pred[~truth]])
        dup_truth = np.concatenate([truth, truth[~truth]])
        _, weighted_dup = binary_accuracies(confusion(dup_pred, dup_truth))
        assert weighted_dup == pytest.approx(weighted, abs=1e-12)


class TestReport:
    def test_compute_and_format(self):
        pred_labels = _labels(P, P, N, N)
        truth_labels = _labels(P, N, N, P)
        pred_sent = np.array([1.0, 2.0, -1.0, -2.0])
        truth_sent = np.array([2.0, -1.0, -2.0, 1.0])
        report = compute_report(pred_labels, truth_labels, pred_sent, truth_sent)
        assert report.confusion.total == 4
        assert 0.0 <= report.f1 <= 1.0
        text = format_report(report, title="unit")
        assert "act_positive" in text and "pred_negative" in text
        payload = dataclasses.asdict(report)
        assert set(payload["confusion"]) == {"tp", "fp", "fn", "tn"}

    def test_format_pinned(self):
        report = MetricReport(
            precision=0.75,
            recall=0.6,
            f1=2 / 3,
            mae=1.25,
            correlation=-0.5,
            binary_accuracy=0.7,
            weighted_binary_accuracy=0.65,
            acc5=0.4,
            acc7=0.3,
            confusion=ConfusionMatrix(tp=3, fp=1, fn=2, tn=4),
            degenerate=("correlation",),
        )
        assert format_report(report, title="pinned") == (
            "# pinned\n"
            "precision 0.750000\n"
            "recall 0.600000\n"
            "f1 0.666667\n"
            "mae 1.250000\n"
            "correlation -0.500000\n"
            "binary_accuracy 0.700000\n"
            "weighted_binary_accuracy 0.650000\n"
            "acc5 0.400000\n"
            "acc7 0.300000\n"
            "degenerate correlation\n"
            "# confusion matrix (rows = actual, columns = predicted)\n"
            "                  pred_positive  pred_negative\n"
            "    act_positive              3              2\n"
            "    act_negative              1              4\n"
        )

    def test_degenerate_correlation_flagged(self):
        report = compute_report(_labels(P, N), _labels(P, N), np.array([0.0, 0.0]), np.array([1.0, -1.0]))
        assert "correlation" in report.degenerate
        assert report.correlation == 0.0


class TestLabelDtype:
    """A list of ``Polarity`` members is truthy throughout: counted as labels it would read as all positive."""

    @pytest.mark.parametrize(
        "score",
        [
            lambda labels: confusion(labels, _labels(P, N)),
            lambda labels: classification_error(_labels(P, N), labels),
            lambda labels: compute_report(labels, _labels(P, N), np.zeros(2), np.array([1.0, -1.0])),
        ],
        ids=["confusion", "classification_error", "compute_report"],
    )
    def test_polarity_members_rejected(self, score):
        with pytest.raises(ValueError, match="bool"):
            score([Polarity.POSITIVE, Polarity.NEGATIVE])
