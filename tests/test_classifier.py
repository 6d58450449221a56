import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bofsent import classifier
from bofsent.classifier import (
    _SVM_HEADER,
    C_EXPONENT_MAX,
    C_EXPONENT_MIN,
    SVM_MAGIC,
    LinearSvmModel,
    cv_accuracy_table,
    decision_distances,
    c_grid,
    normalize_score,
    read_svm_model,
    select_c,
    stratified_folds,
    svm_objective,
    train_svm,
    write_svm_model,
)
from util import dcd_reference, subgradient_svm


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
        model = train_svm(X, y, C=1.0)
        predictions = np.where(X @ model.w + model.b > 0, 1.0, -1.0)
        assert (predictions != y).sum() == 0

    def test_symmetric_pair(self):
        X = np.array([[-1.0, 0.0], [1.0, 0.0]])
        y = np.array([-1.0, 1.0])
        model = train_svm(X, y, C=1000.0)
        assert np.sign(X[0] @ model.w + model.b) == -1
        assert np.sign(X[1] @ model.w + model.b) == 1
        assert abs(model.w[1]) < 1e-9 * abs(model.w[0])  # w proportional to (1, 0)

    def test_objective_matches_subgradient_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (10, 2))
        y = np.where(rng.random(10) > 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        model = train_svm(X, y, C=1.0)
        ours = svm_objective(model.w, model.b, X, y, 1.0)
        w_oracle, b_oracle = subgradient_svm(X, y, 1.0, iters=100_000)
        oracle = svm_objective(w_oracle, b_oracle, X, y, 1.0)
        assert abs(ours - oracle) <= 1e-3 * abs(oracle)

    def test_single_class_rejected(self):
        X = np.ones((4, 2))
        with pytest.raises(ValueError, match="both classes"):
            train_svm(X, np.ones(4), C=1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train_svm(np.empty((0, 2)), np.empty(0), C=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        rng = np.random.default_rng(14)
        X, y = _separable_toy(rng, n_per_class=5)
        X[3, 1] = bad
        with pytest.raises(ValueError, match="X holds NaN or infinite values"):
            train_svm(X, y, C=1.0)
        with pytest.raises(ValueError, match="X holds NaN or infinite values"):
            cv_accuracy_table(X, y, seed=0, n_folds=2)

    @pytest.mark.parametrize("C", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_c_rejected(self, C):
        rng = np.random.default_rng(15)
        X, y = _separable_toy(rng, n_per_class=5)
        with pytest.raises(ValueError, match="C must be finite and positive"):
            train_svm(X, y, C=C)

    def test_iteration_cap_reported(self):
        rng = np.random.default_rng(16)
        X, y = _separable_toy(rng)
        capped = train_svm(X, y, C=1.0, max_epochs=1)
        assert capped.solve.iterations == 1
        assert capped.solve.gap > 1e-6
        assert not capped.solve.converged
        full = train_svm(X, y, C=1.0)
        assert full.solve.converged and full.solve.gap <= 1e-6

    def test_unreachable_tolerance_stops_early(self):
        # Features of scale 100 at C = 2^15: rounding keeps the gap near 1e-7,
        # and the solve ends soon after the complementarity gap passes below it.
        rng = np.random.default_rng(0)
        X = rng.normal(0.0, 100.0, (30, 5))
        y = np.where(rng.random(30) > 0.5, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        model = train_svm(X, y, C=2.0**15, tol=1e-12)
        assert not model.solve.converged
        assert model.solve.iterations < 50
        assert model.solve.gap <= 1e-6

    def test_wide_repeated_rows_at_large_c_converge(self):
        # 35 rows, each a repeat of one of the first 17, of features up to 100 in
        # d = 64 columns at C = 2^15: a hard case for the Newton step's conditioning.
        rng = np.random.default_rng(0)
        n = int(rng.integers(8, 40))
        dim = int(rng.integers(n, 80))
        X = rng.uniform(0.0, 100.0, (n, dim))
        X = X[np.concatenate([[0, 1], rng.integers(max(2, n // 2), size=n - 2)])]
        y = rng.choice([-1.0, 1.0], n)
        y[:2] = (1.0, -1.0)
        assert (n, dim) == (35, 63)
        model = train_svm(X, y, C=2.0**15)
        assert model.solve.converged and model.solve.gap <= 1e-6
        assert svm_objective(model.w, model.b, X, y, 2.0**15) < 393_217.0

    def test_wide_problem_memory(self):
        # 75 segments of K=256 soft-assignment vectors: n < d, so no (n + d) x d Q factor.
        rng = np.random.default_rng(18)
        X = rng.uniform(0.0, 1.0, (75, 256))
        X /= X.sum(axis=1, keepdims=True)
        y = np.where(np.arange(75) % 2 == 0, 1.0, -1.0)
        tracemalloc.start()
        try:
            model = train_svm(X, y, C=8.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.solve.converged
        assert peak < 1.5e6

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(3)
        X, y = _separable_toy(rng)
        a = train_svm(X, y, C=4.0)
        b = train_svm(X, y, C=4.0)
        assert np.array_equal(a.w, b.w)
        assert a.b == b.b
        assert (a.score_min, a.score_max) == (b.score_min, b.score_max)

    # n <= dim + 1 takes the n-space Newton step, n > dim + 1 the d-space one.
    @pytest.mark.parametrize(("n", "dim"), [(60, 256), (100, 128), (150, 16)])
    def test_memory_layout_does_not_change_the_model(self, n, dim, tmp_path):
        rng = np.random.default_rng(n + dim)
        X = rng.dirichlet(np.ones(dim), n)  # simplex rows, as encoding gives
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        fortran = np.asfortranarray(X)
        for index, layout in enumerate((X, fortran)):
            write_svm_model(tmp_path / f"{index}.svm", train_svm(layout, y, C=8.0))
        assert (tmp_path / "0.svm").read_bytes() == (tmp_path / "1.svm").read_bytes()
        model = read_svm_model(tmp_path / "0.svm")
        assert decision_distances(model, fortran).tobytes() == decision_distances(model, X).tobytes()
        assert svm_objective(model.w, model.b, fortran, y, 8.0) == svm_objective(model.w, model.b, X, y, 8.0)


def _per_array_max_step(point, direction):
    """Reference step bound: one masked minimum per array, then the least of them."""
    limits = [-x[dx < 0] / dx[dx < 0] for x, dx in zip(point, direction)]
    return float(min((limit.min() for limit in limits if limit.size), default=np.inf))


class TestSolverProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        dim=st.integers(1, 60),  # both n > d and n <= d, d = dim + 1
        exponent=st.integers(C_EXPONENT_MIN, C_EXPONENT_MAX),
        rows=st.sampled_from(["distinct", "duplicated", "collinear"]),
        scale=st.sampled_from([1.0, 100.0]),
    )
    def test_gap_reference_and_determinism(self, seed, n, dim, exponent, rows, scale):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, (n, dim))
        if rows == "duplicated":  # every row repeats one of the first max(2, n // 2)
            X = X[np.concatenate([[0, 1], rng.integers(max(2, n // 2), size=n - 2)])]
        elif rows == "collinear":
            X = np.outer(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, dim))
        X = scale * X
        y = rng.choice([-1.0, 1.0], n)
        y[:2] = (1.0, -1.0)
        C = 2.0**exponent

        reference = svm_objective(*dcd_reference(X, y, C, max_epochs=1000), X, y, C)
        # The gap bounds P - P* by tol * max(1, |P|). At unit scale this tol keeps P
        # within 1e-9 of the reference's value, which may itself be optimal; at scale
        # 100 rounding holds the gap near 1e-7 at large C, so training's default holds.
        tol = 1e-9 * min(1.0, reference) if scale == 1.0 else 1e-6
        model = train_svm(X, y, C, tol=tol)
        assert model.solve.converged and model.solve.gap <= tol
        ours = svm_objective(model.w, model.b, X, y, C)
        assert ours <= reference + tol * max(1.0, ours)
        again = train_svm(X, y, C, tol=tol)
        assert again.w.tobytes() == model.w.tobytes() and again.b == model.b
        assert again.solve == model.solve

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        direction=st.sampled_from(["mixed", "nonnegative", "one array down"]),
    )
    def test_max_step_matches_the_per_array_minimum(self, seed, n, direction):
        rng = np.random.default_rng(seed)
        point = tuple(10.0 ** rng.uniform(-9.0, 3.0, (4, n)))
        steps = rng.normal(0.0, 1.0, (4, n)) * 10.0 ** rng.uniform(-6.0, 6.0, (4, n))
        if direction != "mixed":
            steps = np.abs(steps)
        if direction == "one array down":
            steps[rng.integers(4)] *= -1.0
        steps[:, rng.random(n) < 0.2] = 0.0  # components that do not move
        expected = _per_array_max_step(point, tuple(steps))
        assert classifier._max_step(point, tuple(steps)) == expected
        if direction == "nonnegative":
            assert expected == np.inf


class TestCrossValidation:
    def test_grid_endpoints(self):
        grid = c_grid()
        assert grid[0] == 0.125
        assert grid[-1] == 32768.0
        assert len(grid) == 19

    def test_trivially_separable_ties_to_smallest(self):
        rng = np.random.default_rng(4)
        X, y = _separable_toy(rng, n_per_class=25, gap=6.0)
        assert select_c(cv_accuracy_table(X, y, seed=0)[0]) == 0.125

    def test_seed_determinism(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (60, 3))
        y = np.where(X[:, 0] + 0.3 * rng.standard_normal(60) > 0, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        first = select_c(cv_accuracy_table(X, y, seed=7, max_epochs=150)[0])
        second = select_c(cv_accuracy_table(X, y, seed=7, max_epochs=150)[0])
        assert first == second

    def test_selected_c_maximizes_table(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0, 1, (50, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        table, _ = cv_accuracy_table(X, y, seed=3, max_epochs=150)
        best = select_c(table)
        best_acc = dict(table)[best]
        assert best_acc == max(acc for _, acc in table)
        # tie rule: no smaller C attains the same accuracy
        for C, acc in table:
            if acc == best_acc:
                assert C >= best
                break

    def test_exact_fold_tie_goes_to_smaller_c(self, monkeypatch):
        # Two folds of 45: 41 + 45 correct at C = 1 and 43 + 43 at C = 2 are both
        # 86/90, but float means of the fold accuracies read 0.9555555555555555
        # and 0.9555555555555556, so they would pick C = 2.
        X = np.arange(90.0)[:, None]
        y = np.array([1.0] * 44 + [-1.0] * 46)
        assert [fold.size for fold in stratified_folds(y, 2, seed=0)] == [45, 45]
        wrong = iter([4, 0, 2, 2])  # per (C, fold), in table order

        def scripted_distances(model, rows):
            distances = y[rows[:, 0].astype(int)].copy()
            distances[: next(wrong)] *= -1.0
            return distances

        solve = classifier.SvmSolve(iterations=1, gap=0.0, converged=True)
        monkeypatch.setattr(classifier, "train_svm", lambda *args, **kwargs: SimpleNamespace(solve=solve))
        monkeypatch.setattr(classifier, "decision_distances", scripted_distances)
        table, solves = cv_accuracy_table(X, y, seed=0, n_folds=2, c_grid=(1.0, 2.0))
        assert table == [(1.0, 86 / 90), (2.0, 86 / 90)]
        assert select_c(table) == 1.0
        assert [(record["C"], record["fold"]) for record in solves] == [(1.0, 0), (1.0, 1), (2.0, 0), (2.0, 1)]

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
        model = train_svm(X, y, C=1.0)
        assert normalize_score(model, model.score_min) == 0.0
        assert normalize_score(model, model.score_max) == 1.0
        assert normalize_score(model, model.score_max + 5.0) == 1.0
        assert normalize_score(model, model.score_min - 5.0) == 0.0

    def test_monotone_link(self):
        rng = np.random.default_rng(10)
        X, y = _separable_toy(rng)
        model = train_svm(X, y, C=1.0)
        points = rng.normal(0, 2, (50, 2))
        distances = decision_distances(model, points)
        scores = normalize_score(model, distances)
        order = np.argsort(distances)
        assert (np.diff(scores[order]) >= -1e-15).all()

    def test_label_consistency_for_unclamped(self):
        rng = np.random.default_rng(11)
        X, y = _separable_toy(rng)
        model = train_svm(X, y, C=1.0)
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
        model = train_svm(X, y, C=2.0)
        path = tmp_path / "m.svm"
        write_svm_model(path, model)
        back = read_svm_model(path)
        assert np.array_equal(back.w, model.w)
        assert back.b == model.b
        assert back.C == model.C
        assert (back.score_min, back.score_max) == (model.score_min, model.score_max)

    @pytest.mark.parametrize(
        ("w", "b", "C", "score_min", "message"),
        [
            ([np.nan, 1.0], 0.5, 2.0, -1.0, "must be finite"),
            ([1.0, 1.0], np.inf, 2.0, -1.0, "must be finite"),
            ([1.0, 1.0], 0.5, 2.0, -np.inf, "must be finite"),
            ([1.0, 1.0], 0.5, 0.0, -1.0, "C must be finite and positive"),
            ([1.0, 1.0], 0.5, -2.0, -1.0, "C must be finite and positive"),
            ([1.0, 1.0], 0.5, np.nan, -1.0, "C must be finite and positive"),
            ([], 0.5, 2.0, -1.0, "non-empty"),
        ],
        ids=["nan-w", "inf-b", "inf-bound", "zero-C", "negative-C", "nan-C", "dim-0"],
    )
    def test_bad_model_file_rejected(self, tmp_path, w, b, C, score_min, message):
        # An infinite b would make every normalized score 1.0, every segment positive.
        path = tmp_path / "m.svm"
        header = _SVM_HEADER.pack(SVM_MAGIC, len(w), b, C, score_min, 1.0)
        path.write_bytes(header + np.asarray(w, dtype="<f8").tobytes())
        with pytest.raises(ValueError, match=message):
            read_svm_model(path)
