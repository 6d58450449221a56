import numpy as np
import pytest

from bofsent.corpus import Polarity
from bofsent.fusion import (
    THETA_CANDIDATES,
    THETA_GRID,
    ScorePair,
    classification_error,
    evaluate_theta,
    fusion_threshold,
    grid_search_theta,
    output_level_fuse,
    read_scores,
    score_level_fuse,
    ternary_quantize,
    write_scores,
)

P, N = Polarity.POSITIVE, Polarity.NEGATIVE


def _pair(video, audio, truth=None, seg_id="s"):
    return ScorePair(segment_id=seg_id, video_score=video, audio_score=audio, truth=truth)


def _brute_error(pairs, theta):
    """Independent recomputation of the class-balanced fusion error."""
    wrong = {P: 0, N: 0}
    count = {P: 0, N: 0}
    for pair in pairs:
        fused = theta * pair.video_score + (1 - theta) * pair.audio_score
        label = P if fused > 1 - theta else N
        count[pair.truth] += 1
        if label is not pair.truth:
            wrong[pair.truth] += 1
    return 0.5 * (wrong[P] / count[P] + wrong[N] / count[N])


class TestScoreLevelFuse:
    def test_equal_weights_positive(self):
        result = score_level_fuse(_pair(0.9, 0.5), 0.5)
        assert result.fused_score == pytest.approx(0.7)
        assert result.label is P

    def test_equal_weights_boundary_negative(self):
        result = score_level_fuse(_pair(0.4, 0.4), 0.5)
        assert result.fused_score == pytest.approx(0.4)
        assert result.label is N

    def test_theta_one_depends_only_on_video(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = float(rng.random())
            a = float(rng.random())
            result = score_level_fuse(_pair(v, a), 1.0)
            assert result.fused_score == v
            assert result.label is (P if v > fusion_threshold(1.0) else N)

    def test_affine_combination_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            v, a = float(rng.random()), float(rng.random())
            theta = float(rng.random())
            fused = score_level_fuse(_pair(v, a), theta).fused_score
            assert min(v, a) - 1e-12 <= fused <= max(v, a) + 1e-12

    def test_monotone_in_each_score(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            v, a = float(rng.random()), float(rng.random())
            theta = float(rng.random())
            base = score_level_fuse(_pair(v, a), theta).fused_score
            up_v = score_level_fuse(_pair(min(1.0, v + 0.1), a), theta).fused_score
            up_a = score_level_fuse(_pair(v, min(1.0, a + 0.1)), theta).fused_score
            assert up_v >= base - 1e-12
            assert up_a >= base - 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            _pair(1.2, 0.5)
        with pytest.raises(ValueError):
            score_level_fuse(_pair(0.5, 0.5), 1.5)


class TestOutputLevelFuse:
    def test_both_high(self):
        result = output_level_fuse(_pair(0.9, 0.8))
        assert result.fused_score == 1.0
        assert result.label is P

    def test_disagreement_is_negative(self):
        result = output_level_fuse(_pair(0.9, 0.1))
        assert result.fused_score == 0.5
        assert result.label is N

    def test_both_low(self):
        result = output_level_fuse(_pair(0.0, 0.0))
        assert result.fused_score == 0.0
        assert result.label is N

    def test_bin_boundaries(self):
        assert ternary_quantize(0.0) == -1
        assert ternary_quantize(1.0 / 3.0) == 0
        assert ternary_quantize(2.0 / 3.0 - 1e-9) == 0
        assert ternary_quantize(2.0 / 3.0) == 1

    def test_range_is_five_point_set(self):
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(500):
            seen.add(output_level_fuse(_pair(float(rng.random()), float(rng.random()))).fused_score)
        assert seen <= {0.0, 0.25, 0.5, 0.75, 1.0}

    def test_monotone_in_each_score(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            v, a = float(rng.random()), float(rng.random())
            base = output_level_fuse(_pair(v, a)).fused_score
            assert output_level_fuse(_pair(min(1.0, v + 0.2), a)).fused_score >= base
            assert output_level_fuse(_pair(v, min(1.0, a + 0.2))).fused_score >= base


class TestClassificationError:
    def test_all_correct(self):
        assert classification_error([(P, P), (N, N)]) == 0.0

    def test_one_class_all_wrong(self):
        labelled = [(P, N), (P, N), (N, N), (N, N), (N, N)]
        assert classification_error(labelled) == pytest.approx(0.5)

    def test_four_sample_case(self):
        labelled = [(P, P), (P, N), (N, N), (N, P)]
        assert classification_error(labelled) == pytest.approx(0.5)

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="absent"):
            classification_error([(P, P), (P, N)])


class TestGridSearchTheta:
    def _video_wins_dataset(self):
        # negatives score exactly zero on video; positives weakly; audio is noise.
        # only full video weight labels every positive correctly.
        rng = np.random.default_rng(5)
        pairs = []
        for i in range(200):
            positive = i % 2 == 0
            video = 0.2 if positive else 0.0
            audio = float(rng.random())
            pairs.append(_pair(video, audio, P if positive else N, seg_id=f"s{i}"))
        return pairs

    def test_perfect_video_noisy_audio_selects_one(self):
        pairs = self._video_wins_dataset()
        assert grid_search_theta(pairs) == 1.0
        errors = {theta: evaluate_theta(pairs, theta) for theta in THETA_CANDIDATES}
        assert errors[1.0] == 0.0
        assert all(errors[t] > 0.0 for t in THETA_CANDIDATES if t != 1.0)

    def test_all_tie_returns_equal_weight(self):
        # identical zero scores make every candidate produce all-negative labels
        pairs = [_pair(0.0, 0.0, P if i % 2 == 0 else N, seg_id=f"t{i}") for i in range(10)]
        errors = {theta: evaluate_theta(pairs, theta) for theta in THETA_CANDIDATES}
        assert len(set(errors.values())) == 1
        assert grid_search_theta(pairs) == 0.5

    def test_matches_brute_force_at_all_grid_points(self):
        rng = np.random.default_rng(6)
        pairs = [
            _pair(float(rng.random()), float(rng.random()), P if rng.random() > 0.4 else N, seg_id=f"g{i}")
            for i in range(150)
        ]
        if not any(p.truth is N for p in pairs):
            pairs[0] = _pair(0.1, 0.1, N, seg_id="g0")
        for theta in THETA_GRID:
            assert evaluate_theta(pairs, theta) == pytest.approx(_brute_error(pairs, theta))

    def test_chosen_never_worse_than_any_grid_point(self):
        rng = np.random.default_rng(7)
        for case in range(10):
            pairs = [
                _pair(float(rng.random()), float(rng.random()), P if rng.random() > 0.5 else N, seg_id=f"c{i}")
                for i in range(60)
            ]
            truths = {p.truth for p in pairs}
            if len(truths) < 2:
                continue
            chosen = grid_search_theta(pairs)
            chosen_error = evaluate_theta(pairs, chosen)
            for theta in THETA_GRID:
                assert chosen_error <= evaluate_theta(pairs, theta) + 1e-12

    def test_requires_ground_truth(self):
        with pytest.raises(ValueError, match="ground truth"):
            grid_search_theta([_pair(0.5, 0.5)])


class TestScoreFiles:
    def test_roundtrip(self, tmp_path):
        rows = [("a", "audio", 0.125), ("a", "video", 0.875), ("b", "audio", 1.0), ("b", "video", 0.0)]
        path = tmp_path / "scores.tsv"
        write_scores(path, rows)
        assert read_scores(path) == rows
