"""Linear SVM training, cross-validated regularization search, confidence scoring.

The solver is dual coordinate descent on the L1-hinge objective with the bias
folded into the weight vector (the feature matrix is augmented with a constant
column, so the bias is regularized along with the weights):

    min_{w,b}  0.5 * (||w||^2 + b^2) + C * sum_i max(0, 1 - y_i (w . x_i + b))

Coordinate order is a fresh seeded permutation each epoch, so training is
bit-for-bit reproducible. Confidence scores are signed margins min-max
normalized with bounds captured on the training set and clamped at test time.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .atomic import atomic_open

SVM_MAGIC = b"SVM1"
_SVM_HEADER = struct.Struct("<4sIdddd")

C_EXPONENT_MIN = -3
C_EXPONENT_MAX = 15


def c_grid(exponent_min: int = C_EXPONENT_MIN, exponent_max: int = C_EXPONENT_MAX) -> tuple[float, ...]:
    """Powers of two 2^e for e in [exponent_min, exponent_max]; 19 values by default."""
    return tuple(2.0**e for e in range(exponent_min, exponent_max + 1))


# Alias for the default grid, reachable where a ``c_grid`` argument shadows the function.
default_c_grid = c_grid


def select_c(table: Sequence[tuple[float, float]]) -> float:
    """The C with the highest accuracy in a (C, accuracy) table; ties go to the smaller C."""
    return min(table, key=lambda row: (-row[1], row[0]))[0]


@dataclass(eq=False)
class LinearSvmModel:
    """Trained separator plus the score-normalization bounds learned at fit time."""

    w: np.ndarray
    b: float
    C: float
    score_min: float
    score_max: float

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.ndim != 1:
            raise ValueError("w must be a vector")
        if not self.score_min < self.score_max:
            raise ValueError("degenerate normalization bounds (score_min >= score_max)")

    @property
    def dim(self) -> int:
        return self.w.size


def _validate_problem(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D matrix")
    if y.shape != (X.shape[0],):
        raise ValueError("y must have one entry per row of X")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    if not (set(np.unique(y)) <= {-1.0, 1.0}):
        raise ValueError("labels must be -1 or +1")
    if (y > 0).all() or (y < 0).all():
        raise ValueError("both classes must be present")
    return X, y


def svm_objective(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, C: float) -> float:
    """Primal objective value (regularizer includes the bias term)."""
    margins = 1.0 - y * (X @ w + b)
    hinge = np.maximum(margins, 0.0).sum()
    return float(0.5 * (w @ w + b * b) + C * hinge)


def train_svm(
    X: np.ndarray,
    y: np.ndarray,
    C: float,
    seed: int,
    max_epochs: int = 1000,
    tol: float = 1e-6,
) -> LinearSvmModel:
    """Fit the separator by dual coordinate descent with a seeded permutation schedule."""
    X, y = _validate_problem(X, y)
    if C <= 0:
        raise ValueError("C must be positive")
    n, dim = X.shape
    augmented = np.hstack([X, np.ones((n, 1))])
    signed = augmented * y[:, None]  # rows y_i * x_i, the only form the updates need
    diag = (augmented * augmented).sum(axis=1)
    alpha = [0.0] * n
    v = np.zeros(dim + 1)
    rng = np.random.default_rng(seed)

    for _ in range(max_epochs):
        pg_max = -np.inf
        pg_min = np.inf
        for i in rng.permutation(n):
            zi = signed[i]
            gradient = float(zi @ v) - 1.0
            a = alpha[i]
            if a <= 0.0:
                projected = min(gradient, 0.0)
            elif a >= C:
                projected = max(gradient, 0.0)
            else:
                projected = gradient
            pg_max = max(pg_max, projected)
            pg_min = min(pg_min, projected)
            if abs(projected) > 1e-14:
                updated = min(max(a - gradient / diag[i], 0.0), C)
                if updated != a:
                    v += (updated - a) * zi
                    alpha[i] = updated
        if pg_max - pg_min <= tol:
            break

    w = v[:dim].copy()
    b = float(v[dim])
    norm = float(np.linalg.norm(w))
    if norm <= 0.0:
        raise ValueError("degenerate separator: zero weight vector")
    distances = (X @ w + b) / norm
    score_min = float(distances.min())
    score_max = float(distances.max())
    if not score_min < score_max:
        raise ValueError("degenerate normalization bounds: all training distances equal")
    return LinearSvmModel(w=w, b=b, C=float(C), score_min=score_min, score_max=score_max)


def decision_distances(model: LinearSvmModel, X: np.ndarray) -> np.ndarray:
    """Signed distances from the separating hyperplane, (w.x + b) / ||w||."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ValueError(f"expected (n, {model.dim}) inputs")
    norm = float(np.linalg.norm(model.w))
    if norm <= 0.0:
        raise ValueError("degenerate separator: zero weight vector")
    return (X @ model.w + model.b) / norm


def normalize_score(model: LinearSvmModel, distance) -> np.ndarray:
    """Min-max map of distances onto [0, 1] using the training-set bounds, clamped."""
    scaled = (np.asarray(distance, dtype=np.float64) - model.score_min) / (
        model.score_max - model.score_min
    )
    return np.clip(scaled, 0.0, 1.0)


def stratified_folds(y: np.ndarray, n_folds: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified fold assignment; every fold holds both classes."""
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for cls in (-1, 1):
        idx = np.flatnonzero(y == cls)
        if idx.size < n_folds:
            raise ValueError(
                f"class {cls:+d} has {idx.size} samples; cannot stratify {n_folds} folds"
            )
        shuffled = rng.permutation(idx)
        for f in range(n_folds):
            folds[f].extend(shuffled[f::n_folds].tolist())
    return [np.sort(np.array(f, dtype=int)) for f in folds]


def cv_accuracy_table(
    X: np.ndarray,
    y: np.ndarray,
    seed: int,
    n_folds: int = 5,
    c_grid: tuple[float, ...] | None = None,
    max_epochs: int = 1000,
    tol: float = 1e-6,
) -> list[tuple[float, float]]:
    """Mean held-out fold accuracy for every regularization candidate."""
    X, y = _validate_problem(X, y)
    grid = tuple(c_grid) if c_grid is not None else default_c_grid()
    folds = stratified_folds(y, n_folds, seed)
    all_idx = np.arange(X.shape[0])
    table = []
    for C in grid:
        accuracies = []
        for fold in folds:
            train_mask = np.ones(X.shape[0], dtype=bool)
            train_mask[fold] = False
            train_idx = all_idx[train_mask]
            model = train_svm(X[train_idx], y[train_idx], C, seed, max_epochs=max_epochs, tol=tol)
            raw = X[fold] @ model.w + model.b
            predicted = np.where(raw > 0.0, 1.0, -1.0)
            accuracies.append(float((predicted == y[fold]).mean()))
        table.append((C, float(np.mean(accuracies))))
    return table


def cross_validate_C(
    X: np.ndarray,
    y: np.ndarray,
    seed: int,
    n_folds: int = 5,
    c_grid: tuple[float, ...] | None = None,
    max_epochs: int = 1000,
    tol: float = 1e-6,
) -> float:
    """Pick the C maximizing mean fold accuracy; ties go to the smaller C."""
    return select_c(cv_accuracy_table(X, y, seed, n_folds, c_grid, max_epochs, tol))


def write_svm_model(path: str | Path, model: LinearSvmModel) -> None:
    with atomic_open(path) as fh:
        fh.write(
            _SVM_HEADER.pack(SVM_MAGIC, model.dim, model.b, model.C, model.score_min, model.score_max)
        )
        fh.write(np.ascontiguousarray(model.w, dtype="<f8").tobytes())


def read_svm_model(path: str | Path) -> LinearSvmModel:
    data = Path(path).read_bytes()
    if len(data) < _SVM_HEADER.size or data[:4] != SVM_MAGIC:
        raise ValueError(f"{path}: not an SVM model file")
    _, dim, b, C, score_min, score_max = _SVM_HEADER.unpack_from(data)
    body = data[_SVM_HEADER.size :]
    if len(body) != 8 * dim:
        raise ValueError(f"{path}: truncated weight payload")
    w = np.frombuffer(body, dtype="<f8").copy()
    return LinearSvmModel(w=w, b=b, C=C, score_min=score_min, score_max=score_max)
