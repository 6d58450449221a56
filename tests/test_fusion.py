import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bofsent.fusion import (
    classification_error,
    evaluate_theta,
    fusion_threshold,
    grid_search_theta,
    output_level_fuse,
    score_level_fuse,
    ternary_quantize,
    theta_candidates,
)
from bofsent.metrics import compute_report, scale_confidence
from util import (
    per_row_grid_search,
    per_row_output_fuse,
    per_row_report,
    per_row_scale_confidence,
    per_row_score_fuse,
)

P, N = True, False
THETA_CANDIDATES = theta_candidates()
THETA_GRID = tuple(theta for theta in THETA_CANDIDATES if theta != 0.5)  # without the added equal weight


def _one(video, audio):
    """(video, audio) as the (1,) score arrays of one segment, in fusion's (audio, video) order."""
    return np.array([audio]), np.array([video])


def _brute_error(video, audio, truth, theta):
    """Independent recomputation of the class-balanced fusion error."""
    wrong = {P: 0, N: 0}
    count = {P: 0, N: 0}
    for v, a, t in zip(video.tolist(), audio.tolist(), truth.tolist()):
        fused = theta * v + (1 - theta) * a
        label = P if fused > 1 - theta else N
        count[t] += 1
        if label is not t:
            wrong[t] += 1
    return 0.5 * (wrong[P] / count[P] + wrong[N] / count[N])


class TestScoreLevelFuse:
    def test_equal_weights_positive(self):
        fused, positive = score_level_fuse(*_one(0.9, 0.5), 0.5)
        assert fused[0] == pytest.approx(0.7)
        assert positive[0]

    def test_equal_weights_boundary_negative(self):
        fused, positive = score_level_fuse(*_one(0.4, 0.4), 0.5)
        assert fused[0] == pytest.approx(0.4)
        assert not positive[0]

    def test_theta_one_depends_only_on_video(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = float(rng.random())
            a = float(rng.random())
            fused, positive = score_level_fuse(*_one(v, a), 1.0)
            assert fused[0] == v
            assert positive[0] == (v > fusion_threshold(1.0))

    def test_affine_combination_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            v, a = float(rng.random()), float(rng.random())
            theta = float(rng.random())
            fused = score_level_fuse(*_one(v, a), theta)[0][0]
            assert min(v, a) - 1e-12 <= fused <= max(v, a) + 1e-12

    def test_monotone_in_each_score(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            v, a = float(rng.random()), float(rng.random())
            theta = float(rng.random())
            base = score_level_fuse(*_one(v, a), theta)[0][0]
            up_v = score_level_fuse(*_one(min(1.0, v + 0.1), a), theta)[0][0]
            up_a = score_level_fuse(*_one(v, min(1.0, a + 0.1)), theta)[0][0]
            assert up_v >= base - 1e-12
            assert up_a >= base - 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="video_score 1.2 outside"):
            score_level_fuse(*_one(1.2, 0.5), 0.5)
        with pytest.raises(ValueError, match="audio_score"):
            output_level_fuse(np.array([0.5, np.nan]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="theta 1.5 outside"):
            score_level_fuse(*_one(0.5, 0.5), 1.5)
        with pytest.raises(ValueError, match="shapes"):
            score_level_fuse(np.array([0.5, 0.5]), np.array([0.5]), 0.5)


class TestOutputLevelFuse:
    def test_both_high(self):
        fused, positive = output_level_fuse(*_one(0.9, 0.8))
        assert fused[0] == 1.0
        assert positive[0]

    def test_disagreement_is_negative(self):
        fused, positive = output_level_fuse(*_one(0.9, 0.1))
        assert fused[0] == 0.5
        assert not positive[0]

    def test_both_low(self):
        fused, positive = output_level_fuse(*_one(0.0, 0.0))
        assert fused[0] == 0.0
        assert not positive[0]

    def test_bin_boundaries(self):
        assert ternary_quantize(0.0) == -1
        assert ternary_quantize(1.0 / 3.0) == 0
        assert ternary_quantize(2.0 / 3.0 - 1e-9) == 0
        assert ternary_quantize(2.0 / 3.0) == 1

    def test_range_is_five_point_set(self):
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(500):
            seen.add(float(output_level_fuse(*_one(float(rng.random()), float(rng.random())))[0][0]))
        assert seen <= {0.0, 0.25, 0.5, 0.75, 1.0}

    def test_monotone_in_each_score(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            v, a = float(rng.random()), float(rng.random())
            base = output_level_fuse(*_one(v, a))[0][0]
            assert output_level_fuse(*_one(min(1.0, v + 0.2), a))[0][0] >= base
            assert output_level_fuse(*_one(v, min(1.0, a + 0.2)))[0][0] >= base


def _labelled(pairs):
    """(truth, predicted) bool arrays from (truth, predicted) pairs."""
    truth, pred = zip(*pairs)
    return np.array(truth), np.array(pred)


class TestClassificationError:
    def test_all_correct(self):
        assert classification_error(*_labelled([(P, P), (N, N)])) == 0.0

    def test_one_class_all_wrong(self):
        labelled = [(P, N), (P, N), (N, N), (N, N), (N, N)]
        assert classification_error(*_labelled(labelled)) == pytest.approx(0.5)

    def test_four_sample_case(self):
        labelled = [(P, P), (P, N), (N, N), (N, P)]
        assert classification_error(*_labelled(labelled)) == pytest.approx(0.5)

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="absent"):
            classification_error(*_labelled([(P, P), (P, N)]))


def _segments(rows):
    """(audio, video, truth) arrays from (video, audio, truth) rows."""
    video, audio, truth = zip(*rows)
    return np.array(audio), np.array(video), np.array(truth)


class TestGridSearchTheta:
    def _video_wins_dataset(self):
        # negatives score exactly zero on video; positives weakly; audio is noise.
        # only full video weight labels every positive correctly.
        rng = np.random.default_rng(5)
        rows = []
        for i in range(200):
            positive = i % 2 == 0
            video = 0.2 if positive else 0.0
            audio = float(rng.random())
            rows.append((video, audio, positive))
        return _segments(rows)

    def test_perfect_video_noisy_audio_selects_one(self):
        audio, video, truth = self._video_wins_dataset()
        chosen, searched = grid_search_theta(audio, video, truth)
        assert chosen == 1.0
        errors = {theta: evaluate_theta(audio, video, truth, theta) for theta in THETA_CANDIDATES}
        assert searched == list(errors.values())
        assert errors[1.0] == 0.0
        assert all(errors[t] > 0.0 for t in THETA_CANDIDATES if t != 1.0)

    def test_all_tie_returns_equal_weight(self):
        # identical zero scores make every candidate produce all-negative labels
        audio, video, truth = _segments([(0.0, 0.0, i % 2 == 0) for i in range(10)])
        errors = {theta: evaluate_theta(audio, video, truth, theta) for theta in THETA_CANDIDATES}
        assert len(set(errors.values())) == 1
        assert grid_search_theta(audio, video, truth) == (0.5, list(errors.values()))

    def test_matches_brute_force_at_all_grid_points(self):
        rng = np.random.default_rng(6)
        rows = [(float(rng.random()), float(rng.random()), rng.random() > 0.4) for i in range(150)]
        if not any(truth is N for _, _, truth in rows):
            rows[0] = (0.1, 0.1, N)
        audio, video, truth = _segments(rows)
        for theta in THETA_GRID:
            assert evaluate_theta(audio, video, truth, theta) == pytest.approx(
                _brute_error(video, audio, truth, theta)
            )

    def test_chosen_never_worse_than_any_grid_point(self):
        rng = np.random.default_rng(7)
        for case in range(10):
            rows = [(float(rng.random()), float(rng.random()), rng.random() > 0.5) for i in range(60)]
            audio, video, truth = _segments(rows)
            if truth.all() or not truth.any():
                continue
            chosen = grid_search_theta(audio, video, truth)[0]
            chosen_error = evaluate_theta(audio, video, truth, chosen)
            for theta in THETA_GRID:
                assert chosen_error <= evaluate_theta(audio, video, truth, theta) + 1e-12

    @staticmethod
    def _tied_split(positives, negatives):
        """25 positives and 25 negatives from {(video, audio): count} per class.

        Each kind fuses to the same score at every weight: (1, 1) is positive
        at any theta > 0, (0, 0) at none, and (0.5, 0.5) only above theta = 0.5.
        """
        rows = [(*scores, truth) for truth, kinds in ((P, positives), (N, negatives))
                for scores, count in kinds.items() for _ in range(count)]
        assert sum(1 for *_, truth in rows if truth) == sum(1 for *_, truth in rows if not truth) == 25
        return _segments(rows)

    def test_exact_tie_goes_to_equal_weight(self):
        # theta = 0.5 leaves (fn 1, fp 5); every theta above it (fn 0, fp 6).
        # Both are 6/50, but summed in floats the second reads 0.12 and the first
        # 0.12000000000000001, so a float mean would pick 0.6 over the tied 0.5.
        truth = np.array([P] * 25 + [N] * 25)
        assert classification_error(truth, np.array([P] * 24 + [N] + [P] * 5 + [N] * 20)) == 0.12
        assert classification_error(truth, np.array([P] * 25 + [P] * 6 + [N] * 19)) == 0.12
        audio, video, truth = self._tied_split(
            {(1.0, 1.0): 24, (0.5, 0.5): 1}, {(1.0, 1.0): 5, (0.5, 0.5): 1, (0.0, 0.0): 19}
        )
        chosen, errors = grid_search_theta(audio, video, truth)
        assert dict(zip(THETA_CANDIDATES, errors)) == {0.0: 0.5, **{theta: 0.12 for theta in THETA_CANDIDATES[1:]}}
        assert chosen == 0.5

    def test_exact_tie_off_equal_weight_goes_to_larger(self):
        # theta = 0.4 leaves (fn 2, fp 4) and theta = 0.6 (fn 1, fp 5): both 6/50,
        # but float sums read 0.12 and 0.12000000000000001 and would pick 0.4.
        audio, video, truth = self._tied_split(
            {(1.0, 1.0): 23, (0.5, 0.5): 1, (0.0, 0.0): 1}, {(1.0, 1.0): 4, (0.5, 0.5): 1, (0.0, 0.0): 20}
        )
        assert grid_search_theta(audio, video, truth, (0.4, 0.6)) == (0.6, [0.12, 0.12])

    def test_requires_ground_truth(self):
        # a single labelled segment cannot cover both classes
        with pytest.raises(ValueError, match="ground truth"):
            grid_search_theta(*_segments([(0.5, 0.5, P)]))


# Scores the fusion rules treat specially: the quantizer's bin edges, the ends
# of [0, 1] and every candidate's threshold 1 - theta.
BOUNDARY_SCORES = sorted({0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0} | {fusion_threshold(t) for t in THETA_CANDIDATES})
SCORE = st.one_of(st.sampled_from(BOUNDARY_SCORES), st.floats(0.0, 1.0))
SENTIMENT = st.one_of(st.sampled_from((-3.0, -0.5, 0.0, 0.5, 3.0)), st.floats(-3.0, 3.0))


@st.composite
def labelled_segments(draw):
    """(video, audio, truth sentiment) rows holding both classes.

    Half the draws zero every score, which ties the error at every weight.
    """
    rows = draw(st.lists(st.tuples(SCORE, SCORE, SENTIMENT), min_size=2, max_size=40))
    sentiments = [s for _, _, s in rows]
    if all(s > 0 for s in sentiments) or all(s <= 0 for s in sentiments):
        rows += [(0.5, 0.5, 1.0), (0.5, 0.5, 0.0)]
    if draw(st.booleans()):
        rows = [(0.0, 0.0, s) for _, _, s in rows]
    return rows


class TestPerRowReference:
    @settings(max_examples=150, deadline=None)
    @given(labelled_segments())
    @example([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.0, 0.0, 0.0)])
    @example([(0.8, 0.2, 2.0), (1.0 / 3.0, 2.0 / 3.0, -2.0), (0.5, 0.5, 0.0), (1.0, 0.0, 3.0)])
    def test_arrays_match_per_row_formulas_bitwise(self, rows):
        video_list, audio_list, sentiment_list = (list(column) for column in zip(*rows))
        truth_list = [s > 0 for s in sentiment_list]
        audio, video = np.array(audio_list), np.array(video_list)
        truth, truth_sentiment = np.array(truth_list), np.array(sentiment_list)

        chosen, errors = per_row_grid_search(video_list, audio_list, truth_list, THETA_CANDIDATES)
        assert grid_search_theta(audio, video, truth) == (chosen, [errors[theta] for theta in THETA_CANDIDATES])
        for theta in THETA_CANDIDATES:
            assert evaluate_theta(audio, video, truth, theta) == errors[theta]

        fused_by_rule = {
            f"score {theta}": (score_level_fuse(audio, video, theta), per_row_score_fuse, (theta,))
            for theta in THETA_CANDIDATES
        }
        fused_by_rule["output"] = (output_level_fuse(audio, video), per_row_output_fuse, ())
        for (fused, positive), per_row, args in fused_by_rule.values():
            expected = [per_row(v, a, *args) for v, a in zip(video_list, audio_list)]
            assert fused.tolist() == [f for f, _ in expected]
            assert positive.tolist() == [p for _, p in expected]
            assert positive.dtype == np.bool_

            sentiment = scale_confidence(fused)
            assert sentiment.tolist() == [per_row_scale_confidence(f) for f, _ in expected]
            report = compute_report(positive, truth, sentiment, truth_sentiment)
            reference = per_row_report(
                [p for _, p in expected], truth_list, sentiment.tolist(), sentiment_list
            )
            assert dataclasses.asdict(report) == dataclasses.asdict(reference)
            assert all(type(count) is int for count in dataclasses.asdict(report.confusion).values())
