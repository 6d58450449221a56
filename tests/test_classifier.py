import numpy as np
import pytest

from bofsent.classifier import (
    LinearSvmModel,
    cross_validate_C,
    cv_accuracy_table,
    decision_distances,
    default_c_grid,
    normalize_score,
    read_svm_model,
    select_c,
    stratified_folds,
    svm_objective,
    train_svm,
    write_svm_model,
)
from util import subgradient_svm


def _separable_toy(rng, n_per_class=50, gap=2.0):
    """Two uniform boxes with a ``gap``-wide margin along the first axis."""
    half = gap / 2.0
    pos = rng.uniform([half, -1.0], [half + 2.0, 1.0], (n_per_class, 2))
    neg = rng.uniform([-half - 2.0, -1.0], [-half, 1.0], (n_per_class, 2))
    X = np.vstack([pos, neg])
    y = np.array([1.0] * n_per_class + [-1.0] * n_per_class)
    return X, y


class TestTrainSvm:
    def test_separable_toy_zero_errors(self):
        rng = np.random.default_rng(0)
        X, y = _separable_toy(rng, n_per_class=50, gap=2.0)
        model = train_svm(X, y, C=1.0, seed=0)
        predictions = np.where(X @ model.w + model.b > 0, 1.0, -1.0)
        assert (predictions != y).sum() == 0

    def test_symmetric_pair(self):
        X = np.array([[-1.0, 0.0], [1.0, 0.0]])
        y = np.array([-1.0, 1.0])
        model = train_svm(X, y, C=1000.0, seed=0)
        assert np.sign(X[0] @ model.w + model.b) == -1
        assert np.sign(X[1] @ model.w + model.b) == 1
        assert abs(model.w[1]) < 1e-9 * abs(model.w[0])  # w proportional to (1, 0)

    def test_objective_matches_subgradient_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (10, 2))
        y = np.where(rng.random(10) > 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        model = train_svm(X, y, C=1.0, seed=2)
        ours = svm_objective(model.w, model.b, X, y, 1.0)
        w_oracle, b_oracle = subgradient_svm(X, y, 1.0, iters=100_000)
        oracle = svm_objective(w_oracle, b_oracle, X, y, 1.0)
        assert abs(ours - oracle) <= 1e-3 * abs(oracle)

    def test_single_class_rejected(self):
        X = np.ones((4, 2))
        with pytest.raises(ValueError, match="both classes"):
            train_svm(X, np.ones(4), C=1.0, seed=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train_svm(np.empty((0, 2)), np.empty(0), C=1.0, seed=0)

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(3)
        X, y = _separable_toy(rng)
        a = train_svm(X, y, C=4.0, seed=9)
        b = train_svm(X, y, C=4.0, seed=9)
        assert np.array_equal(a.w, b.w)
        assert a.b == b.b
        assert (a.score_min, a.score_max) == (b.score_min, b.score_max)


class TestCrossValidation:
    def test_grid_endpoints(self):
        grid = default_c_grid()
        assert grid[0] == 0.125
        assert grid[-1] == 32768.0
        assert len(grid) == 19

    def test_trivially_separable_ties_to_smallest(self):
        rng = np.random.default_rng(4)
        X, y = _separable_toy(rng, n_per_class=25, gap=6.0)
        assert cross_validate_C(X, y, seed=0) == 0.125

    def test_seed_determinism(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (60, 3))
        y = np.where(X[:, 0] + 0.3 * rng.standard_normal(60) > 0, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        first = cross_validate_C(X, y, seed=7, max_epochs=150)
        second = cross_validate_C(X, y, seed=7, max_epochs=150)
        assert first == second

    def test_selected_c_maximizes_table(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0, 1, (50, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        table = cv_accuracy_table(X, y, seed=3, max_epochs=150)
        best = cross_validate_C(X, y, seed=3, max_epochs=150)
        best_acc = dict(table)[best]
        assert best_acc == max(acc for _, acc in table)
        # tie rule: no smaller C attains the same accuracy
        for C, acc in table:
            if acc == best_acc:
                assert C >= best
                break

    def test_select_c_ties_go_to_smaller_c(self):
        assert select_c([(4.0, 0.9), (0.5, 0.9), (1.0, 0.8)]) == 0.5
        assert select_c([(0.125, 0.7), (2.0, 0.8)]) == 2.0

    def test_stratified_folds_cover_both_classes(self):
        y = np.array([1.0] * 12 + [-1.0] * 8)
        folds = stratified_folds(y, 5, seed=0)
        covered = np.concatenate(folds)
        assert sorted(covered.tolist()) == list(range(20))
        for fold in folds:
            assert (y[fold] > 0).any() and (y[fold] < 0).any()

    def test_too_few_samples_to_stratify(self):
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        with pytest.raises(ValueError, match="stratify"):
            stratified_folds(y, 5, seed=0)


class TestDistancesAndScores:
    def _model(self, w, b=0.0):
        return LinearSvmModel(w=np.asarray(w, float), b=b, C=1.0, score_min=-1.0, score_max=1.0)

    def test_on_boundary(self):
        model = self._model([2.0, 0.0], b=-6.0)
        assert decision_distances(model, np.array([3.0, 5.0])[None])[0] == pytest.approx(0.0)

    def test_plain_arithmetic(self):
        model = self._model([2.0, 0.0], b=0.0)
        assert decision_distances(model, np.array([3.0, 5.0])[None])[0] == pytest.approx(3.0)

    def test_antisymmetry(self):
        rng = np.random.default_rng(8)
        model = self._model(rng.normal(0, 1, 4))
        x = rng.normal(0, 1, 4)
        assert decision_distances(model, x[None])[0] == pytest.approx(-decision_distances(model, -x[None])[0])

    def test_dimension_mismatch(self):
        model = self._model([1.0, 0.0])
        with pytest.raises(ValueError):
            decision_distances(model, np.zeros((2, 3)))

    def test_zero_weight_vector_rejected(self):
        model = self._model([0.0, 0.0])
        with pytest.raises(ValueError, match="zero weight"):
            decision_distances(model, np.array([1.0, 2.0])[None])

    def test_normalization_endpoints_and_clamp(self):
        rng = np.random.default_rng(9)
        X, y = _separable_toy(rng)
        model = train_svm(X, y, C=1.0, seed=0)
        assert normalize_score(model, model.score_min) == 0.0
        assert normalize_score(model, model.score_max) == 1.0
        assert normalize_score(model, model.score_max + 5.0) == 1.0
        assert normalize_score(model, model.score_min - 5.0) == 0.0

    def test_monotone_link(self):
        rng = np.random.default_rng(10)
        X, y = _separable_toy(rng)
        model = train_svm(X, y, C=1.0, seed=0)
        points = rng.normal(0, 2, (50, 2))
        distances = decision_distances(model, points)
        scores = normalize_score(model, distances)
        order = np.argsort(distances)
        assert (np.diff(scores[order]) >= -1e-15).all()

    def test_label_consistency_for_unclamped(self):
        rng = np.random.default_rng(11)
        X, y = _separable_toy(rng)
        model = train_svm(X, y, C=1.0, seed=0)
        boundary_score = normalize_score(model, 0.0)
        distances = decision_distances(model, X)
        scores = normalize_score(model, distances)
        inside = (scores > 0.0) & (scores < 1.0)
        assert inside.any()
        assert np.array_equal(scores[inside] > boundary_score, distances[inside] > 0.0)

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            LinearSvmModel(w=np.ones(2), b=0.0, C=1.0, score_min=0.5, score_max=0.5)


class TestModelIo:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        X, y = _separable_toy(rng)
        model = train_svm(X, y, C=2.0, seed=1)
        path = tmp_path / "m.svm"
        write_svm_model(path, model)
        back = read_svm_model(path)
        assert np.array_equal(back.w, model.w)
        assert back.b == model.b
        assert back.C == model.C
        assert (back.score_min, back.score_max) == (model.score_min, model.score_max)
